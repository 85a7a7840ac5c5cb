"""OBJ reader paths and OBJ I/O memory.

A chunk whose every line reads `key SP tok SP tok SP tok LF` and which
holds no '/' or '#' (all that write_obj writes) takes its token bounds
from one separator scan; other chunks go through the general tokenizer.
The same records must read to the same arrays either way, chunk by chunk,
and the number tokens of both go through the same kernels.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from nilcat import build_catenoid, build_cmc_annulus, mesh_catenoid, \
    reflect_and_mesh
from nilcat import objtext
from nilcat.errors import DomainError
from nilcat.meshes import read_obj, write_obj

PROPERTY = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

double = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, np.uint64).view(np.float64)))
vertex_token = st.one_of(
    st.tuples(st.sampled_from(["%.17g", "%r", "%.3g", "%.1e", "%g"]),
              st.one_of(double, st.floats(-10.0, 10.0))).map(
        lambda fx: fx[0] % fx[1]),
    st.sampled_from(["+.5", "1.", "-0", "1E-3", "00012", "1e+000", "inf",
                     "-nan", "1234567890123456789012345", "4.9e-324"]),
)


@st.composite
def records(draw):
    """v and f records as token lists, the faces' indices valid, some
    indices written as corners a/b/c and some records' last number
    followed by a comment with no space before it."""
    verts = draw(st.lists(st.lists(vertex_token, min_size=3, max_size=3),
                          min_size=1, max_size=12))
    index = st.tuples(st.integers(1, len(verts)), st.sampled_from(
        ["", "", "", "/1", "//2", "/3/4", "/"])).map(lambda c: "%d%s" % c)
    faces = draw(st.lists(st.lists(index, min_size=3, max_size=3),
                          max_size=12))
    order = draw(st.permutations(
        [["v"] + r for r in verts] + [["f"] + r for r in faces]))
    comment = st.sampled_from(["", "", "", "", "#", "#c"])
    return [r[:-1] + [r[-1] + draw(comment)] for r in order]


@st.composite
def dressed(draw, lines):
    """The same records with tabs, repeated spaces, leading blanks, CRLF
    and trailing comments, each line on its own."""
    out = []
    for tokens in lines:
        sep = st.sampled_from([" ", "  ", "\t", " \t"])
        text = draw(st.sampled_from(["", " ", "\t"])) + tokens[0] \
            + "".join(draw(sep) + t for t in tokens[1:])
        out.append(text + draw(st.sampled_from(["", " # note", "\t#"]))
                   + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(out)


def _oracle(path):
    """oracles.read_obj of the file with its comments cut: '#' starts one
    anywhere after a line's key, also inside a token."""
    bare = path.with_suffix(".bare")
    bare.write_bytes(re.sub(rb"#[^\r\n]*", b"", path.read_bytes()))
    return oracles.read_obj(bare)


def _read(path, chunk):
    """read_obj with chunks of about `chunk` bytes, counting the chunks
    that went through the general tokenizer."""
    general = []
    real_chunk, real_bounds = objtext._CHUNK, objtext._general_bounds
    objtext._CHUNK = chunk
    objtext._general_bounds = lambda *a: general.append(1) or real_bounds(*a)
    try:
        return read_obj(path), len(general)
    finally:
        objtext._CHUNK, objtext._general_bounds = real_chunk, real_bounds


@PROPERTY
@given(data=st.data(), lines=records(),
       chunk=st.sampled_from([16, 64, 256, 2 ** 17]))
def test_plain_and_general_paths_agree(tmp_path, data, lines, chunk):
    plain = "".join(" ".join(t) + "\n" for t in lines)
    # dress only some lines, so chunks of both kinds meet in one file
    keep = data.draw(st.lists(st.booleans(), min_size=len(lines),
                              max_size=len(lines)))
    mixed = "".join(" ".join(t) + "\n" if k else data.draw(dressed([t]))
                    for t, k in zip(lines, keep))
    (tmp_path / "plain.obj").write_bytes(plain.encode())
    (tmp_path / "mixed.obj").write_bytes(mixed.encode())
    a, general_a = _read(tmp_path / "plain.obj", chunk)
    b, general_b = _read(tmp_path / "mixed.obj", chunk)
    assert (general_a > 0) == ("/" in plain or "#" in plain)
    assert general_b > 0 or mixed == plain
    verts, faces = _oracle(tmp_path / "plain.obj")
    for m in (a, b):
        assert m.vertices.tobytes() == verts.tobytes()
        assert m.faces.dtype == np.int64
        assert m.faces.tobytes() == faces.tobytes()


@pytest.mark.parametrize("text, plain", [
    ("v 1 2 3", True),  # no newline at the end
    ("v 1 2 3\nvn 0 0 1\nvt 1 2 3\n", True),  # other keys, three numbers
    ("v 1 2 3\nvv 4 5 6\nfv 1 1 1\n", True),  # keys of two letters
    ("v 1 2 3\nv 4 5 6 7\n", False),  # four numbers
    ("v 1 2 3\nv  4 5 6\n", False),  # an empty token
    ("v 1 2 3\n\nv 4 5 6\n", False),  # an empty line
    ("v 1 2 3\nf 1 1 1 \n", False),  # a space before the newline
    ("v 1 2 3\r\nv 4 5 6\r\nv 7 8 9\r\nv 1 1 1\r\n", False),
    # a corner or an inline comment cuts a token short
    ("v 0 0 0\nv 1 1 1\nv 2 2 2\nf 1/1/1 2/2/2 3/3/3\n", False),
    ("v 0 0 0\nv 1 1 1\nv 2 2 2\nf 1/1 2/2 3/3\n", False),
    ("v 0 0 0\nv 1 1 1\nv 2 2 2\nf 1//1 2//2 3//3\n", False),
    ("v 0 0 0\nv 1 2 3#c\nv 4 5 6#\nf 1 2 3#c\n", False),
])
def test_plain_scan_edges(tmp_path, text, plain):
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    m, general = _read(path, 2 ** 17)
    assert (general == 0) == plain
    verts, faces = _oracle(path)
    assert m.vertices.tobytes() == verts.tobytes()
    assert np.array_equal(m.faces, faces)


@pytest.mark.parametrize("line", [
    " v 4 5", "v  4 5", "v 4 5 ",  # four separators, but a record of two
    "v 1 2\x013",  # a control byte is part of a token, not a separator
])
def test_plain_scan_rejects_bad_records(tmp_path, line):
    path = tmp_path / "bad.obj"
    path.write_bytes(f"v 0 0 0\n{line}\nv 1 1 1\n".encode())
    with pytest.raises(ValueError):
        read_obj(path)


@pytest.mark.parametrize("line", [
    "f /1 /2 /3", "f 1 2 /3",  # corners with no index
    "v 1#2 3 4", "v 1 2 #3", "f 1 2#3 1",  # a comment after one or two
])
def test_cut_tokens_leave_short_records(tmp_path, line):
    # single spaces and a newline after each line, as in a plain chunk
    path = tmp_path / "short.obj"
    path.write_bytes(f"v 0 0 0\nv 1 1 1\nv 2 2 2\n{line}\n".encode())
    with pytest.raises(DomainError, match="fewer than three"):
        read_obj(path)


@pytest.mark.parametrize("token", [
    "0.09375000000000000000", "-0.9999999999999999999", "0.0000000000000000001",
    "9.375000000000000000", ".937500000000000000000", "0.0052216139522364147",
])
@pytest.mark.parametrize("sep", [" ", "\t"])
def test_many_decimals_match_float(tmp_path, token, sep):
    # 19 to 22 digits after the point; the point's place is 10^19 and past
    path = tmp_path / "m.obj"
    path.write_bytes(f"v{sep}1 {token} {token}\nv 1 2 {token}".encode())
    assert read_obj(path).vertices.tobytes() == np.array(
        [[1.0, float(token), float(token)], [1.0, 2.0, float(token)]]).tobytes()


@pytest.fixture(scope="module")
def side_100_meshes():
    return [mesh_catenoid(build_catenoid(1.0), (-1.0, 1.0), 100, 100),
            reflect_and_mesh(build_cmc_annulus(1.0), 100, 50, (-1.0, 1.0))]


def test_written_files_take_the_plain_path(tmp_path, side_100_meshes):
    for m in side_100_meshes:
        write_obj(m, tmp_path / "m.obj")
        back, general = _read(tmp_path / "m.obj", 2 ** 17)
        assert general == 0
        assert back.vertices.tobytes() == m.vertices.tobytes()


def test_obj_io_memory(tmp_path, side_100_meshes):
    # mesh-export's peak RSS has a 10% bound; OBJ write and read of a
    # side-100 mesh peaked at 3.2 and 4.7 MB with an int64 gather index and
    # the general tokenizer on every chunk, and at 2.3 and 3.2 MB without
    path = tmp_path / "m.obj"
    for m in side_100_meshes:
        write_obj(m, path)
        read_obj(path)  # the first call imports and builds the tables
        for step in (lambda: write_obj(m, path), lambda: read_obj(path)):
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2 ** 20
