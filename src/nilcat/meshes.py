"""Triangle-mesh container, topology checks, and deterministic file output.

Writers are atomic (temp file in the target directory, then rename) and
fully deterministic: fixed float formatting, no timestamps, sorted JSON
keys.  OBJ is ASCII with 17 significant digits; PLY is binary
little-endian with float64 vertex coordinates, so a round trip through
read_ply is bit-exact.

All file I/O is whole-array: the OBJ writer formats every vertex and face
record in one pass, the OBJ reader picks out the `v` and `f` records with
one regular-expression scan each and parses each block in one `np.loadtxt`,
and the PLY face block is one structured array (a uchar count and three int32
indices per face) written with `tobytes` and read with `np.frombuffer`.
Undirected edges are encoded as int64 keys lo * n_vertices + hi, so edge
counting is one 1-D `np.unique`; the key order is the lexicographic order
of the (lo, hi) pairs.
"""

from __future__ import annotations

import json
import os
import re
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


def _edge_keys(mesh: Mesh) -> np.ndarray:
    """One int64 key lo * n_vertices + hi per face side (lo < hi)."""
    a = mesh.faces
    b = np.roll(a, -1, axis=1)
    return np.minimum(a, b) * mesh.n_vertices + np.maximum(a, b)


def undirected_edges(mesh: Mesh) -> np.ndarray:
    """Unique undirected edges as a sorted (k, 2) array."""
    lo, hi = np.divmod(np.unique(_edge_keys(mesh)), mesh.n_vertices)
    return np.stack([lo, hi], axis=1)


def euler_characteristic(mesh: Mesh) -> int:
    """V - E + F; 0 for an annulus with open boundary rings."""
    return mesh.n_vertices - len(np.unique(_edge_keys(mesh))) + mesh.n_faces


def boundary_edge_count(mesh: Mesh) -> int:
    """Edges used by exactly one face."""
    _, counts = np.unique(_edge_keys(mesh), return_counts=True)
    return int(np.sum(counts == 1))


# -- atomic, deterministic writers -------------------------------------------

def _atomic_write_bytes(path, data: bytes):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_obj(mesh: Mesh, path):
    v_lines = "v %.17g %.17g %.17g\n" * mesh.n_vertices
    f_lines = "f %d %d %d\n" * mesh.n_faces
    text = v_lines % tuple(mesh.vertices.ravel().tolist()) \
        + f_lines % tuple((mesh.faces + 1).ravel().tolist())
    _atomic_write_bytes(path, text.encode())


def _obj_records(text: str, key: str) -> str:
    """The rest of every line whose first token is key, newline-joined.

    Every line of text must follow a newline: searching for that literal
    is much faster than trying a multiline '^' at every character.
    """
    pattern = rf"\n[^\S\n]*{key}(?!\S)[^\S\n]*(.*)"
    return "\n".join(re.findall(pattern, text))


def _first_three(block: str, dtype) -> np.ndarray:
    """The first three numbers on each line of block, as an (n, 3) array."""
    if not block:  # np.loadtxt warns on no data
        return np.empty((0, 3), dtype=dtype)
    lines = block.split("\n")
    out = np.loadtxt(lines, dtype=dtype, usecols=(0, 1, 2), ndmin=2)
    if len(out) != len(lines):  # np.loadtxt skips blank lines
        raise DomainError("an OBJ record holds no numbers")
    return out


def read_obj(path) -> Mesh:
    with open(path) as fh:
        text = "\n" + fh.read()
    verts = _first_three(_obj_records(text, "v"), np.float64)
    # a face corner 'a/b/c' keeps only its vertex index a
    corners = re.sub(r"/\S*", "", _obj_records(text, "f"))
    return Mesh(verts, _first_three(corners, np.int64) - 1)


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
    faces = np.empty(mesh.n_faces, dtype=_PLY_FACE)
    faces["n"] = 3
    faces["i"] = mesh.faces
    header = _PLY_HEADER.format(nv=mesh.n_vertices, nf=mesh.n_faces)
    _atomic_write_bytes(path, header.encode()
                        + mesh.vertices.astype("<f8").tobytes()
                        + faces.tobytes())


def read_ply(path) -> Mesh:
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode()
    nv = nf = 0
    for line in header.splitlines():
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            nv = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            nf = int(parts[2])
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


def write_csv(path, header, rows):
    _atomic_write_bytes(path, csv_text(header, rows).encode())


def write_json(path, obj):
    _atomic_write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True)
                               + "\n").encode())


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
