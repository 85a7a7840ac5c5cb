"""Brute-force oracles, independent of the library's solution paths.

Everything here uses only direct quadrature (composite Simpson, midpoint
Riemann sums on dense grids, or adaptive Gauss-Kronrod from QUADPACK) of
the printed integrands, plus bisection.  The library integrates the profile
ODE in phi with Gauss cells and evaluates the period integral with a
periodic trapezoidal rule; none of that machinery is used here, so
agreement is a genuine cross-check.

The profile has three references.  One is the solver with the clamped
cubic-spline dense output the library used before its quintic Hermite
interpolant; the library must agree with it within the 1e-12 bound both
certify.  One is the library's own grid with the plain doubling search it
used before jumping by the error model; both must stop at the same count.
The third, at theta = 0 (helicoid, CMC source and conjugate), is closed
form: Jacobi elliptic functions from scipy.special.

The period rule has one reference of that other kind: its ladder as it
ran before the shared node table, forming each level's nodes itself, and
its integrand rows as they were formed before each pass wrote them into
one preallocated block; the library must return the same bits.

The mesh data plane has per-element oracles: OBJ and PLY writers and
readers that handle one line or one face at a time, edge lists from
`np.unique(axis=0)` over sorted index pairs, and the face list of the
reflected CMC mesh built cell by cell.  The library does each of these as
whole-array operations.
"""

import math
import struct

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import ellipj, ellipk

from nilcat.errors import ResolutionError
from nilcat.period import _N_MAX, _N_START, _ROUNDOFF
from nilcat.profile import MAX_NODES, START_NODES, TOL, AnnulusParams, \
    Profile, _GL_W, _GL_X


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


def periodic_trapezoid(rows, tol):
    """The period rule's ladder as the library ran it before its node
    table: each level forms its own nodes with np.cos, calls rows on them
    alone and sums f and |f| separately.  The library must return
    identical (integrals, error estimate, converged)."""
    n = _N_START
    h = math.pi / n
    f = rows(np.cos(np.arange(n) * h) ** 2)
    total, abs_total = f.sum(axis=1), np.abs(f).sum(axis=1)
    est = total * h
    while True:
        f = rows(np.cos((np.arange(n) + 0.5) * h) ** 2)
        total = total + f.sum(axis=1)
        abs_total = abs_total + np.abs(f).sum(axis=1)
        n, h = 2 * n, 0.5 * h
        fine = total * h
        err = float(np.max(np.abs(fine - est)))
        est = fine
        ok = err <= max(tol, _ROUNDOFF * float(np.max(abs_total)) * h)
        if ok or n >= _N_MAX:
            return est, err, ok


def period_rows(alpha, theta, split=False, constants=False):
    """The rows of `L_integral`'s pass as it formed them before it wrote
    them into one preallocated block: each row a fresh array, stacked.
    L and dL/dtheta, then L1 and L2 with split, then I1-I3, U, beta(U)
    and G(U) with constants."""
    params = AnnulusParams(alpha, theta)
    a, C, c2t = params.alpha, params.C, params.cos2theta
    # c' = -2 sin 2 theta = -4 alpha C and (C^2)' = 2 C c / alpha
    dc, dC2 = -4.0 * a * C, 2.0 * C * c2t / a

    def rows(x2):
        sq = np.sqrt(a * a + c2t * x2 - C * C * x2 * x2)
        d = sq * (a + sq)
        L = (2.0 * a * C * C * x2 - a * c2t + C * C * x2 * sq) / d
        dsq = (dc - dC2 * x2) * x2 / (2.0 * sq)
        dN = (2.0 * a + sq) * dC2 * x2 - a * dc + C * C * x2 * dsq
        out = [L, (dN - L * dsq * (a + 2.0 * sq)) / d]
        if split:
            out += [-2.0 * a * C * C * (1.0 - x2) / d,
                    (2.0 * a * C * C - a * c2t + C * C * x2 * sq) / d]
        if constants:
            C2x2 = C * C * x2
            out += [2.0 * a * a * C2x2 / d, a * a / d, a * C2x2 / (a + sq),
                    1.0 / sq, C * x2 / sq, (C2x2 - c2t) / d]
        return np.stack(out)

    return rows


def f_printed(model, conjugate, u):
    """The CMC lift coefficient f(u) as the literal printed quotient
    (alpha cos phi* - alpha* cos phi) / (alpha cos phi cos^2 phi*), read
    from the model's profile and from `conjugate`, the profile
    `conjugate_profile(model.alpha_star)`; valid away from cos phi = 0,
    where it cancels catastrophically."""
    u = np.asarray(u, dtype=float)
    c = np.cos(model.profile.eval(u).phi)
    cs = np.cos(conjugate.eval(u).phi)
    return (model.alpha * cs - model.alpha_star * c) \
        / (model.alpha * c * cs ** 2)


def appendix_rows(alpha, theta):
    """The rows of the period pass that gave the constants before they
    joined `L_integral`'s pass: L, I1, I2, I3, U, beta(U) and G(U), with
    no slope row, in the library's own arithmetic."""
    a = alpha
    C = math.sin(2.0 * theta) / (2.0 * a)
    c2t = math.cos(2.0 * theta)

    def rows(x2):
        sq = np.sqrt(a * a + c2t * x2 - C * C * x2 * x2)
        d = sq * (a + sq)
        C2x2 = C * C * x2
        return np.stack([
            (2.0 * a * C * C * x2 - a * c2t + C * C * x2 * sq) / d,
            2.0 * a * a * C2x2 / d, a * a / d, a * C2x2 / (a + sq), 1.0 / sq,
            C * x2 / sq, (C2x2 - c2t) / d])

    return rows


def ladder_levels(rows, tol):
    """(integrals, number of node levels) of the period rule on rows."""
    calls = []

    def counted(x2):
        calls.append(len(x2))
        return rows(x2)

    return periodic_trapezoid(counted, tol)[0], len(calls)


def theta_start_coefficients(n=40, lo=0.01, hi=1000.0):
    """Chebyshev coefficients of g(y) = theta_tilde(alpha) (1 + alpha) /
    alpha in y = alpha / (1 + alpha) on [y(lo), y(hi)], interpolating at
    the n first-kind Chebyshev points with the roots find_theta_tilde
    returns there (numpy.polynomial's interpolation, which the library
    does not use)."""
    from nilcat.period import find_theta_tilde

    ya, yb = lo / (1.0 + lo), hi / (1.0 + hi)

    def g(s):
        y = 0.5 * (ya + yb) + 0.5 * (yb - ya) * np.asarray(s)
        return np.array([find_theta_tilde(v / (1.0 - v)).theta / v
                         for v in y])

    return np.polynomial.chebyshev.chebinterpolate(g, n - 1)


def fd1_5pt(f, x, h):
    """5-point first derivative."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def fd2_5pt(f, x, h):
    """5-point second derivative."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


# -- cubic-spline profile -------------------------------------------------

class SplineProfile:
    """The profile solver with the dense output the library used before its
    quintic Hermite interpolant: the same Gauss-Legendre phi-cells, one
    clamped cubic spline in u through (phi, beta, G), and a grid that starts
    at 4096 cells and doubles while the spline's midpoint error exceeds
    1e-12 (cap 2^16).  Takes the three numbers the quartic reads, so it
    serves the conjugate (alpha*, -1, 0) as well as (alpha, cos 2 theta, C).
    """

    def __init__(self, alpha, cos2theta, C):
        self.alpha, self.cos2theta, self.C = alpha, cos2theta, C
        nodes = 4096
        while True:
            self._build(nodes)
            if self._interp_error() <= 1e-12:
                break
            if nodes >= 1 << 16:
                raise ResolutionError("spline oracle misses 1e-12 at 2^16")
            nodes *= 2

    def _increments(self, lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        c2 = np.cos(mid[:, None] + half[:, None] * _GL_X[None, :]) ** 2
        sqP = np.sqrt(self.alpha ** 2 + self.cos2theta * c2
                      - self.C ** 2 * c2 * c2)
        w = half[:, None] * _GL_W[None, :]
        return ((w / sqP).sum(axis=1),
                (w * (self.C * c2 / sqP)).sum(axis=1),
                (w * ((self.C ** 2 * c2 - self.cos2theta)
                      / ((self.alpha + sqP) * sqP))).sum(axis=1))

    def _build(self, n):
        phi = -np.pi * np.arange(n + 1) / n
        cols = [np.concatenate([[0.0], np.cumsum(d)])
                for d in self._increments(phi[1:], phi[:-1])]
        self.phi_nodes, (self.u_nodes, self.beta_nodes, self.G_nodes) = \
            phi, cols
        self.U, self.betaU, self.GU = (float(c[-1]) for c in cols)
        sqP1 = math.sqrt(self.alpha ** 2 + self.cos2theta - self.C ** 2)
        slopes = np.array([-sqP1, self.C, (self.C ** 2 - self.cos2theta)
                           / (self.alpha + sqP1)])
        self._sp = CubicSpline(cols[0], np.stack([phi, cols[1], cols[2]], 1),
                               bc_type=((1, slopes), (1, slopes)))

    def _interp_error(self):
        phi = self.phi_nodes
        mid = 0.5 * (phi[:-1] + phi[1:])
        du, dbeta, dG = self._increments(mid, phi[:-1])
        exact = np.stack([mid, self.beta_nodes[:-1] + dbeta,
                          self.G_nodes[:-1] + dG], axis=1)
        return float(np.max(np.abs(self._sp(self.u_nodes[:-1] + du) - exact)))

    def eval(self, u):
        """(phi, beta, G) at arbitrary u through the quasi-period laws."""
        u = np.asarray(u, dtype=float)
        k = np.floor(u / self.U)
        u0 = u - k * self.U
        over = u0 >= self.U
        u0[over] -= self.U
        k[over] += 1.0
        y = self._sp(u0)
        return (y[:, 0] - k * np.pi, y[:, 1] + k * self.betaU,
                y[:, 2] + k * self.GU)


class DoublingProfile(Profile):
    """The library's profile with the grid search it used before the jump:
    build at START_NODES cells and double while the measured midpoint error
    exceeds TOL, raising at MAX_NODES.  Counts its builds in builds."""

    def __init__(self, params):
        self.params = params
        self.nodes_n = START_NODES
        self.builds = 0
        self._build()
        while self._interp_error() > TOL:
            if self.nodes_n >= MAX_NODES:
                raise ResolutionError("doubling misses TOL at MAX_NODES")
            self.nodes_n *= 2
            self._build()

    def _build(self):
        self.builds += 1
        super()._build()


# -- theta = 0 profiles from Jacobi elliptic functions -----------------------
#
# At theta = 0, phi'^2 = alpha^2 + cos^2 phi = (1 + alpha^2)(1 - m sin^2 phi)
# with m = 1 / (1 + alpha^2), so -phi is the Jacobi amplitude of
# u sqrt(1 + alpha^2) and U = 2 K(m) / sqrt(1 + alpha^2) (DLMF 22.16.1,
# 19.2.8).  The conjugate phi*'^2 = alpha*^2 - cos^2 phi* = alpha^2 (1 +
# sin^2 phi* / alpha^2) has the negative parameter -1/alpha^2: U* = 2 K(-1 /
# alpha^2) / alpha, and the imaginary-modulus transformation (DLMF 22.17.2)
# gives sin am = k' sn1 / dn1, cos am = cn1 / dn1 with k' = alpha / alpha*,
# where sn1, cn1, dn1 have argument alpha* u and parameter m.

def elliptic_U(alpha):
    return 2.0 * ellipk(1.0 / (1.0 + alpha * alpha)) \
        / math.sqrt(1.0 + alpha * alpha)


def elliptic_conjugate_U(alpha):
    return 2.0 * ellipk(-1.0 / (alpha * alpha)) / alpha


def _amplitude(alpha, u):
    """am(u sqrt(1 + alpha^2) | 1 / (1 + alpha^2))."""
    a2 = 1.0 + alpha * alpha
    return ellipj(np.asarray(u, dtype=float) * math.sqrt(a2), 1.0 / a2)[3]


def elliptic_phi(alpha, u):
    return -_amplitude(alpha, u)


def elliptic_conjugate_phi(alpha, u):
    am1 = _amplitude(alpha, u)
    am = np.arctan2(alpha / math.sqrt(1.0 + alpha * alpha) * np.sin(am1),
                    np.cos(am1))
    # am and am1 lie in the same quadrant: unwrap am onto am1's branch
    return -(am + 2.0 * np.pi * np.round((am1 - am) / (2.0 * np.pi)))


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
