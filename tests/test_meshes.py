import warnings

import numpy as np
import pytest

import oracles
from nilcat import DomainError
from nilcat.meshes import (
    Mesh,
    boundary_edge_count,
    euler_characteristic,
    grid_mesh_faces,
    read_obj,
    read_ply,
    undirected_edges,
    write_csv,
    write_json,
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


class TestTopology:
    def test_two_triangle_square_is_disk(self):
        m = quad_mesh()
        assert euler_characteristic(m) == 1
        assert boundary_edge_count(m) == 4

    def test_cylinder_chi_zero(self):
        m = torus_like()
        assert euler_characteristic(m) == 0
        assert boundary_edge_count(m) == 16

    @pytest.mark.parametrize("seed", range(5))
    def test_edges_match_oracle_on_random_meshes(self, seed):
        m = random_mesh(seed)
        edges = undirected_edges(m)
        assert edges.dtype == np.int64
        assert np.array_equal(edges, oracles.undirected_edges(m.faces))
        assert boundary_edge_count(m) == oracles.boundary_edge_count(m.faces)
        assert euler_characteristic(m) \
            == m.n_vertices - len(edges) + m.n_faces

    def test_no_faces_no_edges(self):
        m = Mesh(np.zeros((4, 3)), np.zeros((0, 3), dtype=int))
        assert undirected_edges(m).shape == (0, 2)
        assert euler_characteristic(m) == 4
        assert boundary_edge_count(m) == 0

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
    def test_csv_byte_identical(self, tmp_path):
        rows = [[0.1, -2.5e-17, 3], [1 / 3, 2 / 7, 1]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["x", "y", "n"], rows)
        write_csv(b, ["x", "y", "n"], rows)
        assert a.read_bytes() == b.read_bytes()

    def test_json_byte_identical_and_sorted(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"beta": 2.0 / 3.0, "alpha": 1e-300})
        write_json(b, {"alpha": 1e-300, "beta": 2.0 / 3.0})
        assert a.read_bytes() == b.read_bytes()

    def test_obj_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        write_obj(torus_like(), a)
        write_obj(torus_like(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        write_obj(quad_mesh(), tmp_path / "m.obj")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.obj"]
