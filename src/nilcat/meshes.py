"""Triangle-mesh container, topology checks, and deterministic file output.

Writers are atomic (temp file in the target directory, then rename) and
fully deterministic: fixed float formatting, no timestamps.  OBJ is ASCII
with 17 significant digits; PLY is binary little-endian with float64
vertex coordinates, so a round trip through read_ply is bit-exact.

OBJ numbers go through the exact whole-array conversion of `objtext`
(byte for byte '%.17g' % x when written, float(token) when read).  The
PLY face block is one structured array (a uchar count and three int32
indices per face) written with `tobytes` and read with `np.frombuffer`;
read_ply accepts only the header write_ply writes and a body of exactly
the declared size.

Undirected edges are encoded as int64 keys lo * n_vertices + hi, whose
order is the lexicographic order of the (lo, hi) pairs.  The Euler
characteristic counts edges with one sort of the keys plus a compare of
each key with its neighbour: a plain `np.unique` in numpy 2 deduplicates
integers through a hash table and then sorts its output anyway, which for
the 59,400 keys of a side-100 catenoid took 6.4-7.8 ms against
0.52-0.56 ms for the sort alone (2-vCPU VM, numpy 2.4).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass
class Mesh:
    """Vertices (n, 3) float64 and triangle faces (m, 3) int, 0-based."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise DomainError("vertices must have shape (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DomainError("faces must have shape (m, 3)")
        if self.faces.size and (self.faces.min() < 0
                                or self.faces.max() >= len(self.vertices)):
            raise DomainError("face indices out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def euler_characteristic(mesh: Mesh) -> int:
    """V - E + F; 0 for an annulus with open boundary rings.

    Face side (a, b) has the int64 key lo * n_vertices + hi, lo < hi.  The
    keys are sorted once; E is the number of runs of equal keys.
    """
    a = mesh.faces.T
    b = a[[1, 2, 0]]
    keys = (np.minimum(a, b) * mesh.n_vertices + np.maximum(a, b)).ravel()
    keys.sort()
    edges = int(np.count_nonzero(keys[1:] != keys[:-1])) + (len(keys) > 0)
    return mesh.n_vertices - edges + mesh.n_faces


# -- atomic, deterministic writers -------------------------------------------

def _atomic_write_bytes(path, data: bytes):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_obj(mesh: Mesh, path):
    from . import objtext  # on first use only; see its docstring
    _atomic_write_bytes(path, objtext.obj_bytes(mesh.vertices, mesh.faces))


def read_obj(path) -> Mesh:
    from . import objtext
    return Mesh(*objtext.obj_arrays(path))


_PLY_HEADER = """ply
format binary_little_endian 1.0
element vertex {nv}
property double x
property double y
property double z
element face {nf}
property list uchar int32 vertex_indices
end_header
"""
_PLY_FACE = np.dtype([("n", "u1"), ("i", "<i4", (3,))])


def write_ply(mesh: Mesh, path):
    if mesh.n_vertices > 2 ** 31 - 1:
        raise DomainError(f"{mesh.n_vertices} vertices: PLY face indices "
                          f"are int32")
    faces = np.empty(mesh.n_faces, dtype=_PLY_FACE)
    faces["n"] = 3
    faces["i"] = mesh.faces
    header = _PLY_HEADER.format(nv=mesh.n_vertices, nf=mesh.n_faces)
    _atomic_write_bytes(path, header.encode()
                        + mesh.vertices.astype("<f8").tobytes()
                        + faces.tobytes())


def read_ply(path) -> Mesh:
    """Read a PLY file of the one layout write_ply writes: every header line
    but the two counts must match _PLY_HEADER, and the body must hold
    exactly the bytes the counts call for."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"end_header\n")
    if end < 0:
        raise DomainError("the PLY file has no end_header line")
    end += len(b"end_header\n")
    lines = data[:end].decode("latin-1").split("\n")[:-1]
    want = _PLY_HEADER.split("\n")[:-1]
    counts = []
    for i in range(max(len(lines), len(want))):
        got = lines[i] if i < len(lines) else None
        line = want[i] if i < len(want) else None
        if line is not None and "{" in line:  # element vertex/face {n}
            key = line[:line.index("{")]
            if got is not None and got.startswith(key) \
                    and got[len(key):].isdecimal():
                counts.append(int(got[len(key):]))
                continue
        if got != line:
            raise DomainError(f"unsupported PLY header line {got!r}, "
                              f"expected {line!r}")
    nv, nf = counts
    if len(data) - end != 24 * nv + _PLY_FACE.itemsize * nf:
        raise DomainError(f"PLY body of {len(data) - end} bytes; the header "
                          f"calls for {24 * nv + _PLY_FACE.itemsize * nf}")
    verts = np.frombuffer(data, dtype="<f8", count=3 * nv, offset=end)
    faces = np.frombuffer(data, dtype=_PLY_FACE, count=nf,
                          offset=end + 24 * nv)
    if np.any(faces["n"] != 3):
        raise DomainError("only triangle PLY faces are supported")
    return Mesh(verts.reshape(nv, 3).copy(), faces["i"])


def write_mesh(mesh: Mesh, fmt: str, path):
    """Dispatch on format ('obj' or 'ply')."""
    if mesh.n_vertices == 0:
        raise DomainError("refusing to write an empty mesh")
    if fmt == "obj":
        write_obj(mesh, path)
    elif fmt == "ply":
        write_ply(mesh, path)
    else:
        raise DomainError(f"unknown mesh format {fmt!r}")


def csv_text(header, rows) -> str:
    """CSV with repr-formatted floats (shortest round-trip, deterministic)."""
    def fmt(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def grid_mesh_faces(nu: int, nv: int, wrap_u: bool) -> np.ndarray:
    """Triangulated faces of an nu x nv vertex grid, vertex id = j * nu + i.

    With wrap_u the last column of cells connects ring nu-1 back to ring 0,
    producing a cylinder (Euler characteristic 0 with both v-ends open).
    """
    cols = nu if wrap_u else nu - 1
    i = np.arange(cols)
    j = np.arange(nv - 1)
    ii, jj = np.meshgrid(i, j, indexing="ij")
    i1 = (ii + 1) % nu if wrap_u else ii + 1
    v00 = jj * nu + ii
    v10 = jj * nu + i1
    v01 = (jj + 1) * nu + ii
    v11 = (jj + 1) * nu + i1
    t1 = np.stack([v00, v10, v11], axis=-1).reshape(-1, 3)
    t2 = np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)
    return np.concatenate([t1, t2])
