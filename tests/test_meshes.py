import errno
import json
import os
import warnings

import numpy as np
import pytest

import oracles
from nilcat import (
    DomainError,
    build_catenoid,
    build_cmc_annulus,
    build_helicoid,
    mesh_catenoid,
    mesh_helicoid,
    reflect_and_mesh,
)
import nilcat.meshes as meshes_mod
from nilcat.cli import main
from nilcat.meshes import (
    Mesh,
    csv_text,
    euler_characteristic,
    grid_mesh_faces,
    read_obj,
    read_ply,
    write_mesh,
    write_obj,
    write_ply,
)


def quad_mesh():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(verts, faces)


def torus_like(nu=8, nv=5):
    # cylinder grid: nu rings, open ends
    s = np.arange(nu) / nu
    t = np.linspace(0, 1, nv)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    verts = np.stack([np.cos(2 * np.pi * ss.T.ravel()),
                      np.sin(2 * np.pi * ss.T.ravel()), tt.T.ravel()], axis=-1)
    return Mesh(verts, grid_mesh_faces(nu, nv, wrap_u=True))


def extreme_mesh():
    """Signed zero, the smallest subnormal, a huge value and negatives."""
    rng = np.random.default_rng(4)
    special = [-0.0, 5e-324, 1e308, -1e308, -5e-324, 0.0, -1.5, 1 / 3]
    verts = np.concatenate([
        np.array(special + [-2.0]).reshape(3, 3),
        rng.standard_normal((20, 3))
        * 10.0 ** rng.integers(-300, 300, (20, 3)),
    ])
    faces = rng.integers(0, len(verts), (40, 3))
    return Mesh(verts, faces)


def random_mesh(seed, n_vertices=60, n_faces=150):
    """Random triangles on shared vertices, no grid structure."""
    rng = np.random.default_rng(seed)
    faces = np.array([rng.choice(n_vertices, 3, replace=False)
                      for _ in range(n_faces)])
    return Mesh(rng.standard_normal((n_vertices, 3)), faces)


def large_random_mesh(n_vertices=20000, n_faces=120000):
    """Random triangles with three distinct corners, drawn whole-array:
    corner offsets 0 < d1 < d2 < n_vertices."""
    rng = np.random.default_rng(11)
    a = rng.integers(0, n_vertices, n_faces)
    d1 = rng.integers(1, n_vertices // 2, n_faces)
    d2 = d1 + rng.integers(1, n_vertices // 2, n_faces)
    faces = np.stack([a, a + d1, a + d2], axis=1) % n_vertices
    return Mesh(rng.standard_normal((n_vertices, 3)), faces)


def edge_case_mesh(name):
    """The meshes the edge counters are checked on, by test id."""
    if name.isdigit():
        return random_mesh(int(name))
    if name == "duplicated_faces":
        m = random_mesh(5)
        return Mesh(m.vertices, np.concatenate([m.faces, m.faces[::3],
                                                m.faces[:7, ::-1]]))
    if name == "edge_of_three_faces":
        # a fin: edge (0, 1) is a side of three triangles
        verts = np.random.default_rng(6).standard_normal((5, 3))
        return Mesh(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
    if name == "large_random":
        return large_random_mesh()
    if name == "catenoid":
        return mesh_catenoid(build_catenoid(1.5), (-1.0, 1.0), 100, 100)
    if name == "helicoid":
        return mesh_helicoid(build_helicoid(1.5), (-1.0, 1.0), 100, 100)
    if name == "cmc":
        return reflect_and_mesh(build_cmc_annulus(1.5), 100, 50, (-1.0, 1.0))
    raise KeyError(name)


class TestTopology:
    def test_two_triangle_square_is_disk(self):
        m = quad_mesh()
        assert euler_characteristic(m) == 1
        assert oracles.boundary_edge_count(m.faces) == 4

    def test_cylinder_chi_zero(self):
        m = torus_like()
        assert euler_characteristic(m) == 0
        assert oracles.boundary_edge_count(m.faces) == 16

    @pytest.mark.parametrize("name", ["0", "1", "2", "3", "4",
                                      "duplicated_faces",
                                      "edge_of_three_faces", "large_random",
                                      "catenoid", "helicoid", "cmc"])
    def test_edges_match_oracle_on_random_meshes(self, name):
        m = edge_case_mesh(name)
        edges = oracles.undirected_edges(m.faces)
        assert euler_characteristic(m) \
            == m.n_vertices - len(edges) + m.n_faces

    def test_no_faces_no_edges(self):
        m = Mesh(np.zeros((4, 3)), np.zeros((0, 3), dtype=int))
        assert euler_characteristic(m) == 4

    def test_bad_faces_rejected(self):
        with pytest.raises(DomainError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))


class TestObj:
    def test_tiny_mesh_layout(self, tmp_path):
        p = tmp_path / "m.obj"
        write_obj(quad_mesh(), p)
        lines = p.read_text().strip().splitlines()
        assert sum(1 for t in lines if t.startswith("v ")) == 4
        assert sum(1 for t in lines if t.startswith("f ")) == 2
        assert lines[-1].split() == ["f", "1", "3", "4"]  # 1-based

    def test_roundtrip_values(self, tmp_path):
        m = torus_like()
        p = tmp_path / "m.obj"
        write_obj(m, p)
        back = read_obj(p)
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.faces, m.faces)

    def test_bytes_match_oracle(self, tmp_path):
        for m in (extreme_mesh(), torus_like()):
            write_obj(m, tmp_path / "m.obj")
            assert (tmp_path / "m.obj").read_bytes() \
                == oracles.obj_bytes(m.vertices, m.faces)

    def test_extreme_values_roundtrip_bit_exact(self, tmp_path):
        m = extreme_mesh()
        write_obj(m, tmp_path / "m.obj")
        back = read_obj(tmp_path / "m.obj")
        assert back.vertices.tobytes() == m.vertices.tobytes()
        assert np.array_equal(back.faces, m.faces)

    def test_reads_loose_files(self, tmp_path):
        text = (
            "# written by hand\n"
            "\n"
            "mtllib none.mtl\n"
            "  v 0 0 0\n"
            "\tv\t1.5\t0\t0\n"
            "v 1 1 -0.0 1.0\n"
            "v 0 1 0 # trailing comment\n"
            "vn 0 0 1\n"
            "vt 0.5 0.5\n"
            "   \n"
            "o part\n"
            "f 1/1/1 2/2/1 3/3/1\n"
            "  f 1//1 3//1 4//1\n"
            "\tf 4 1 2 3\n"
            "s off\n"
        )
        path = tmp_path / "loose.obj"
        path.write_text(text)
        m = read_obj(path)
        verts, faces = oracles.read_obj(path)
        assert np.array_equal(m.vertices, verts)
        assert m.vertices.tobytes() == verts.tobytes()
        assert np.array_equal(m.faces, faces)
        assert m.faces.tolist() == [[0, 1, 2], [0, 2, 3], [3, 0, 1]]

    @pytest.mark.parametrize("record", ["v", "v ", "v # no numbers",
                                        "v 1 2", "f", "f 1 2"])
    def test_short_record_rejected(self, tmp_path, record):
        # a skipped record would shift every later vertex index
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\n{record}\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(ValueError):
            read_obj(path)

    def test_vertices_only_roundtrip_without_warning(self, tmp_path):
        m = Mesh(np.arange(9.0).reshape(3, 3), np.zeros((0, 3), dtype=int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_mesh(m, "obj", tmp_path / "m.obj")
            back = read_obj(tmp_path / "m.obj")
        assert np.array_equal(back.vertices, m.vertices)
        assert back.faces.shape == (0, 3)


class TestPly:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = torus_like()
        p = tmp_path / "m.ply"
        write_ply(m, p)
        back = read_ply(p)
        assert back.vertices.tobytes() == m.vertices.tobytes()
        assert np.array_equal(back.faces, m.faces)

    def test_bytes_match_oracle(self, tmp_path):
        for m in (extreme_mesh(), torus_like()):
            write_ply(m, tmp_path / "m.ply")
            data = (tmp_path / "m.ply").read_bytes()
            assert data == oracles.ply_bytes(m.vertices, m.faces)
            back = read_ply(tmp_path / "m.ply")
            verts, faces = oracles.read_ply(tmp_path / "m.ply")
            assert back.vertices.tobytes() == verts.tobytes() \
                == m.vertices.tobytes()
            assert np.array_equal(back.faces, faces)

    def test_vertices_only_roundtrip_without_warning(self, tmp_path):
        m = Mesh(np.arange(9.0).reshape(3, 3), np.zeros((0, 3), dtype=int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_mesh(m, "ply", tmp_path / "m.ply")
            back = read_ply(tmp_path / "m.ply")
        assert back.vertices.tobytes() == m.vertices.tobytes()
        assert back.faces.shape == (0, 3)

    def test_quad_face_rejected(self, tmp_path):
        m = quad_mesh()
        data = bytearray(oracles.ply_bytes(m.vertices, m.faces))
        data[-13] = 4  # the count byte of the last face
        data += np.int32(0).tobytes()
        (tmp_path / "q.ply").write_bytes(bytes(data))
        with pytest.raises(DomainError):
            read_ply(tmp_path / "q.ply")

    @pytest.mark.parametrize("layout", ["big_endian", "float32"])
    def test_other_layouts_rejected(self, tmp_path, layout):
        # read as <f8 these files would give garbage vertices, not an error
        m = Mesh(np.arange(9.0).reshape(3, 3), np.zeros((0, 3), dtype=int))
        header = oracles.PLY_HEADER.format(nv=3, nf=0)
        if layout == "big_endian":
            header = header.replace("little", "big")
            body = m.vertices.astype(">f8").tobytes()
        else:
            header = header.replace("property double", "property float")
            body = m.vertices.astype("<f4").tobytes()
            body += bytes(12 * 3)  # as long as the <f8 body, so only
            # the header tells the layouts apart
        (tmp_path / "m.ply").write_bytes(header.encode() + body)
        with pytest.raises(DomainError, match="header line"):
            read_ply(tmp_path / "m.ply")

    @pytest.mark.parametrize("cut", [1, 13, 24])
    def test_truncated_body_rejected(self, tmp_path, cut):
        m = quad_mesh()
        data = oracles.ply_bytes(m.vertices, m.faces)
        (tmp_path / "m.ply").write_bytes(data[:-cut])
        with pytest.raises(DomainError, match="body"):
            read_ply(tmp_path / "m.ply")

    def test_missing_end_header_rejected(self, tmp_path):
        (tmp_path / "m.ply").write_bytes(b"ply\nformat ascii 1.0\n")
        with pytest.raises(DomainError):
            read_ply(tmp_path / "m.ply")

    def test_int32_index_overflow_rejected(self, tmp_path):
        # PLY face indices are int32: past 2^31 - 1 vertices an index such
        # as 2^31 + 5 would be written as -2147483643.  Broadcast views
        # stand in for the 2^31 vertices, so nothing large is allocated.
        mesh = object.__new__(Mesh)
        mesh.vertices = np.broadcast_to(np.zeros(3), (2 ** 31 + 6, 3))
        mesh.faces = np.broadcast_to(np.array([0, 1, 2 ** 31 + 5]), (1, 3))
        with pytest.raises(DomainError, match="int32"):
            write_ply(mesh, tmp_path / "m.ply")
        assert list(tmp_path.iterdir()) == []

    def test_vertex_count_preserved_across_formats(self, tmp_path):
        m = torus_like()
        write_mesh(m, "obj", tmp_path / "m.obj")
        write_mesh(m, "ply", tmp_path / "m.ply")
        assert read_obj(tmp_path / "m.obj").n_vertices \
            == read_ply(tmp_path / "m.ply").n_vertices == m.n_vertices

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DomainError):
            write_mesh(quad_mesh(), "stl", tmp_path / "m.stl")

    def test_empty_mesh_refused(self, tmp_path):
        empty = Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(DomainError):
            write_mesh(empty, "obj", tmp_path / "m.obj")


class TestDeterminism:
    def test_csv_byte_identical(self):
        rows = [[0.1, -2.5e-17, 3], [1 / 3, np.float64(2 / 7), 1]]
        text = csv_text(["x", "y", "n"], rows)
        assert text == csv_text(["x", "y", "n"], rows)
        assert text == ("x,y,n\n0.1,-2.5e-17,3\n"
                        "0.3333333333333333,0.2857142857142857,1\n")

    def test_json_byte_identical_and_sorted(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["solve-period", "--alpha", "1.5",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        keys = list(json.loads(a.read_text()))
        assert keys == sorted(keys)

    def test_obj_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        write_obj(torus_like(), a)
        write_obj(torus_like(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        write_obj(quad_mesh(), tmp_path / "m.obj")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.obj"]

    def _short_writes(self, monkeypatch, fail_after):
        # os.write writes at most 5 bytes a call; past fail_after calls it
        # raises as a full disk does
        real, calls = os.write, []

        def short(fd, data):
            calls.append(fd)
            if len(calls) > fail_after:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(fd, data[:5])

        monkeypatch.setattr(meshes_mod.os, "write", short)
        return calls

    def test_atomic_write_completes_short_writes(self, tmp_path, monkeypatch):
        data = bytes(range(23))
        calls = self._short_writes(monkeypatch, fail_after=10)
        meshes_mod._atomic_write_bytes(tmp_path / "b.bin", data)
        monkeypatch.undo()
        assert len(calls) == 5
        assert (tmp_path / "b.bin").read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin"]

    def test_failed_write_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "b.bin"
        target.write_bytes(b"before")
        self._short_writes(monkeypatch, fail_after=2)
        with pytest.raises(OSError) as err:
            meshes_mod._atomic_write_bytes(target, bytes(100))
        monkeypatch.undo()
        assert err.value.errno == errno.ENOSPC
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin"]
        assert target.read_bytes() == b"before"
