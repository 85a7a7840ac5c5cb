"""Brute-force oracles, independent of the library's solution paths.

Everything here uses only direct quadrature (composite Simpson, midpoint
Riemann sums on dense grids, or adaptive Gauss-Kronrod from QUADPACK) of
the printed integrands, plus bisection.  The library integrates the profile
ODE in phi with Gauss cells and evaluates the period integral with a
periodic trapezoidal rule; none of that machinery is used here, so
agreement is a genuine cross-check.

The mesh data plane has per-element oracles: OBJ and PLY writers and
readers that handle one line or one face at a time, edge lists from
`np.unique(axis=0)` over sorted index pairs, and the face list of the
reflected CMC mesh built cell by cell.  The library does each of these as
whole-array operations.
"""

import struct

import numpy as np
from scipy.integrate import quad


def P_of(alpha, theta, x):
    C = np.sin(2.0 * theta) / (2.0 * alpha)
    return alpha ** 2 + np.cos(2.0 * theta) * x * x - C ** 2 * x ** 4


def simpson(f, a, b, n):
    """Composite Simpson with n subintervals (n even)."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def u_period(alpha, theta, n=10 ** 6):
    """U = integral over psi in [0, pi] of 1 / sqrt(P(cos psi))."""
    return simpson(lambda s: 1.0 / np.sqrt(P_of(alpha, theta, np.cos(s))),
                   0.0, np.pi, n)


def beta_period(alpha, theta, n=10 ** 6):
    """beta(U) as the printed x-integral, substituted x = sin t."""
    C = np.sin(2.0 * theta) / (2.0 * alpha)

    def f(t):
        x = np.sin(t)
        return C * x * x / np.sqrt(P_of(alpha, theta, x))

    return simpson(f, -np.pi / 2, np.pi / 2, n)


def G_period(alpha, theta, n=10 ** 6):
    """G(U) written as the printed x-integral, substituted x = sin t."""
    C = np.sin(2.0 * theta) / (2.0 * alpha)

    def f(t):
        x = np.sin(t)
        P = P_of(alpha, theta, x)
        sq = np.sqrt(P)
        return (C ** 2 * x * x - np.cos(2.0 * theta)) / (sq * (alpha + sq))

    return simpson(f, -np.pi / 2, np.pi / 2, n)


def L_integrand_t(alpha, theta, t):
    """Period integrand after the x = sin t substitution (smooth in t)."""
    C = np.sin(2.0 * theta) / (2.0 * alpha)
    x = np.sin(t)
    P = P_of(alpha, theta, x)
    sq = np.sqrt(P)
    num = 2.0 * alpha * C ** 2 * x * x - alpha * np.cos(2.0 * theta) \
        + C ** 2 * x * x * sq
    return num / (sq * (alpha + sq))


def L_simpson(alpha, theta, n=10 ** 6):
    return simpson(lambda t: L_integrand_t(alpha, theta, t),
                   -np.pi / 2, np.pi / 2, n)


def L_riemann(alpha, theta, n=10 ** 6):
    """Midpoint Riemann sum of the t-substituted period integrand."""
    t = (np.arange(n) + 0.5) / n * np.pi - np.pi / 2
    return L_integrand_t(alpha, theta, t).sum() * np.pi / n


def theta_tilde_bisect(alpha, n=10 ** 6, steps=200):
    """Root of L(alpha, .) by midpoint-Riemann L and plain bisection."""
    if alpha > 1:
        tp = np.pi / 2
    else:
        tp = 0.5 * np.arccos(1.0 - 2.0 * alpha ** 2)
    lo, hi = 0.0, min(tp - 1e-9, np.pi / 4)
    flo = L_riemann(alpha, lo, n)
    fhi = L_riemann(alpha, hi, n)
    assert flo < 0 < fhi, (flo, fhi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if L_riemann(alpha, mid, n) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _quad(f):
    val, _err = quad(f, -np.pi / 2, np.pi / 2, epsabs=1e-14, epsrel=1e-13,
                     limit=500)
    return val


def L_quad(alpha, theta):
    """L(alpha, theta) by adaptive Gauss-Kronrod in t."""
    return _quad(lambda t: L_integrand_t(alpha, theta, t))


def I_quad(alpha, theta):
    """(I1, I2, I3) by adaptive Gauss-Kronrod in t."""
    return tuple(_quad(f) for f in _I_integrands(alpha, theta))


def _I_integrands(alpha, theta):
    C = np.sin(2.0 * theta) / (2.0 * alpha)

    def mk(kind):
        def f(t):
            x = np.sin(t)
            P = P_of(alpha, theta, x)
            sq = np.sqrt(P)
            if kind == 1:
                return 2.0 * alpha ** 2 * C ** 2 * x * x / (sq * (alpha + sq))
            if kind == 2:
                return alpha ** 2 / (sq * (alpha + sq))
            return alpha * C ** 2 * x * x / (alpha + sq)
        return f

    return [mk(k) for k in (1, 2, 3)]


def I_split(alpha, theta, n=10 ** 6):
    """The three asymptotic integrals, by direct Simpson in t."""
    return tuple(simpson(f, -np.pi / 2, np.pi / 2, n)
                 for f in _I_integrands(alpha, theta))


def fd1_5pt(f, x, h):
    """5-point first derivative."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def fd2_5pt(f, x, h):
    """5-point second derivative."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


# -- mesh data plane -------------------------------------------------------

def obj_bytes(vertices, faces):
    """OBJ text, one formatted line per vertex and per face."""
    lines = []
    for x, y, z in vertices:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return ("\n".join(lines) + "\n").encode()


def read_obj(path):
    """(vertices, faces) of an OBJ file, parsed line by line."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(t) for t in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(t.split("/")[0]) - 1 for t in parts[1:4]])
    return (np.array(verts, dtype=np.float64).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))


PLY_HEADER = """ply
format binary_little_endian 1.0
element vertex {nv}
property double x
property double y
property double z
element face {nf}
property list uchar int32 vertex_indices
end_header
"""


def ply_bytes(vertices, faces):
    """Binary PLY, packed one face at a time."""
    header = PLY_HEADER.format(nv=len(vertices), nf=len(faces))
    buf = bytearray(header.encode())
    buf += np.asarray(vertices, dtype="<f8").tobytes()
    pack = struct.Struct("<Biii").pack
    for a, b, c in np.asarray(faces, dtype="<i4"):
        buf += pack(3, a, b, c)
    return bytes(buf)


def read_ply(path):
    """(vertices, faces) of a binary PLY file, unpacked one face at a time."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    nv = nf = 0
    for line in data[:end].decode().splitlines():
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            nv = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            nf = int(parts[2])
    verts = np.frombuffer(data, dtype="<f8", count=3 * nv, offset=end)
    off = end + 24 * nv
    faces = np.empty((nf, 3), dtype=np.int64)
    unpack = struct.Struct("<Biii").unpack_from
    for k in range(nf):
        n, a, b, c = unpack(data, off + 13 * k)
        assert n == 3, "only triangle faces"
        faces[k] = (a, b, c)
    return verts.reshape(nv, 3).copy(), faces


def undirected_edges(faces):
    """Unique undirected edges, lexicographically sorted (k, 2)."""
    faces = np.asarray(faces)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def boundary_edge_count(faces):
    """Edges used by exactly one face."""
    faces = np.asarray(faces)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    _, counts = np.unique(np.sort(e, axis=1), axis=0, return_counts=True)
    return int(np.sum(counts == 1))


def reflect_faces(nu, nv):
    """Faces of the reflected CMC mesh on an nu x nv grid, cell by cell.

    Front vertex (i, j) has id j nu + i; the back sheet shares columns 0
    and nu - 1 and numbers its inner columns after the front sheet.
    """
    def vid(i, j):
        return j * nu + i

    def vid_back(i, j):
        if i == 0 or i == nu - 1:
            return vid(i, j)
        return nu * nv + j * (nu - 2) + (i - 1)

    faces = []
    for j in range(nv - 1):
        for i in range(nu - 1):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append((a, b, c))
            faces.append((a, c, d))
            a2, b2 = vid_back(i, j), vid_back(i + 1, j)
            c2, d2 = vid_back(i + 1, j + 1), vid_back(i, j + 1)
            faces.append((a2, c2, b2))
            faces.append((a2, d2, c2))
    return np.array(faces, dtype=np.int64)
