"""OBJ text conversion: the whole-array writer and reader against the
line-by-line oracles, on generated numbers and files.

The writer must give the bytes of '%.17g' for every float64 bit pattern;
the reader must give float() of every number token, bit for bit, on the
files np.loadtxt read before it, and raise where np.loadtxt raised.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from nilcat import (
    build_catenoid,
    build_cmc_annulus,
    build_helicoid,
    mesh_catenoid,
    mesh_helicoid,
    reflect_and_mesh,
)
from nilcat import objtext
from nilcat.meshes import Mesh, read_obj, write_obj

PROPERTY = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-11,
           1.0000000000000001e-11, 9.999999999999999e-12, 1e-4, 1e-5,
           0.1, 0.5, 1 / 3, 1.0, 9.999999999999998, 1e15, 2.0 ** 52,
           2.0 ** 52 - 1, 1e16, 1e17, 9.999999999999999e16, 1e308,
           -1e308, np.inf, -np.inf, np.nan]

coordinate = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array(b, np.uint64).view(np.float64))),
    st.floats(),
    st.floats(-10.0, 10.0),
    st.floats(-1e-3, 1e-3),
    st.sampled_from(SPECIAL),
)


@PROPERTY
@given(coords=st.lists(coordinate, min_size=3, max_size=90),
       seed=st.integers(0, 2 ** 32 - 1))
@example(coords=SPECIAL[:24], seed=0)
def test_writer_matches_oracle(tmp_path, coords, seed):
    verts = np.array(coords[:len(coords) // 3 * 3]).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    faces = rng.integers(0, len(verts), (int(rng.integers(0, 40)), 3))
    write_obj(Mesh(verts, faces), tmp_path / "m.obj")
    assert (tmp_path / "m.obj").read_bytes() == oracles.obj_bytes(verts, faces)


# -- the reader on generated files -------------------------------------------

digits = st.text("0123456789", min_size=1, max_size=25)


@st.composite
def decimal_token(draw):
    """[+-]digits[.digits][(e|E)[+-]digits], up to 25-digit mantissas and
    exponents past the float64 range."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    mant = draw(digits)
    point = draw(st.integers(0, len(mant)))
    text = mant[:point] + "." + mant[point:] if draw(st.booleans()) else mant
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) \
            + draw(st.sampled_from(["", "-", "+"])) \
            + str(draw(st.integers(0, 400)))
    return sign + text


number = st.one_of(
    decimal_token(),
    st.tuples(st.sampled_from(["%.17g", "%r", "%.3g", "%.25g", "%.1e",
                               "%E", "%g", "%.20f"]), coordinate)
    .map(lambda fx: fx[0] % fx[1]),
    st.sampled_from(["+.5", "1.", ".5", "1E-3", "-0", "+0", "-0.0", "inf",
                     "-inf", "nan", "+nan", "-nan", "Infinity", "-INF",
                     "00012", "0e0", "1e+000", "1e-0001", ".5e+3", "5.e-2",
                     "1234567890123456789012345", "0.00012345678901234567",
                     "9007199254740993", "1e23", "2.2250738585072011e-308",
                     "4.9e-324", "1e-400", "1e400"]),
)
space = st.sampled_from([" ", "  ", "\t", " \t", "\x0b", "\x0c"])
lead = st.sampled_from(["", " ", "\t", "  "])
comment = st.sampled_from(["", " # trailing comment", " #", "\t#x"])


@st.composite
def obj_file(draw):
    """Text of an OBJ file whose every v and f record has at least three
    numbers and valid 1-based vertex indices."""
    lines = []
    nv = draw(st.integers(1, 12))
    for _ in range(nv):
        tokens = draw(st.lists(number, min_size=3, max_size=5))
        lines.append(draw(lead) + "v" + "".join(draw(space) + t
                                                for t in tokens)
                     + draw(comment))
    for _ in range(draw(st.integers(0, 8))):
        corners = []
        for _ in range(draw(st.integers(3, 4))):
            a = draw(st.integers(1, nv))
            corners.append(draw(st.sampled_from(
                [f"{a}", f"{a}/1", f"{a}/2/3", f"{a}//4", f"+{a}",
                 f"0{a}"])))
        lines.append(draw(lead) + "f" + "".join(draw(space) + c
                                                for c in corners)
                     + draw(comment))
    for _ in range(draw(st.integers(0, 4))):
        lines.append(draw(st.sampled_from(
            ["# comment", "", "   ", "vn 0 0 1", "vt 0.5 0.5", "o part",
             "s off", "g x", "v#1 2 3", "vv 1 2 3", "mtllib a.mtl"])))
    order = draw(st.permutations(range(len(lines))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines[i] for i in order) \
        + draw(st.sampled_from(["", newline]))


@PROPERTY
@given(text=obj_file())
def test_reader_matches_oracle(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    m = read_obj(path)
    verts, faces = oracles.read_obj(path)
    assert m.vertices.tobytes() == verts.tobytes()
    assert m.faces.dtype == np.int64
    assert np.array_equal(m.faces, faces)


@PROPERTY
@given(coords=st.lists(coordinate, min_size=3, max_size=60))
def test_round_trip_bit_exact(tmp_path, coords):
    verts = np.array(coords[:len(coords) // 3 * 3]).reshape(-1, 3)
    faces = np.zeros((0, 3), dtype=np.int64)
    write_obj(Mesh(verts, faces), tmp_path / "m.obj")
    back = read_obj(tmp_path / "m.obj").vertices
    nan = np.isnan(verts)  # text keeps a NaN's sign, not its payload
    assert np.array_equal(np.isnan(back), nan)
    assert back[~nan].tobytes() == verts[~nan].tobytes()


@pytest.mark.parametrize("text", [
    "v\u00a01\u20002 3\n",  # Unicode spaces separate tokens, as str.split
    "v 1\x1c2\x1f3\n",
    "v 1 2 3\rv 4 5 6\r",  # a lone \r ends a line
    "  v 1 2 3 4 junk\nf 1 1 1 x\n",
])
def test_reader_whitespace_like_str_split(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    verts, faces = oracles.read_obj(path)
    m = read_obj(path)
    assert m.vertices.tobytes() == verts.tobytes()
    assert np.array_equal(m.faces, faces)


@pytest.mark.parametrize("token", [
    "+111e" + "1" * 23, "-111e-" + "1" * 22, "1" * 30, "-" + "0" * 30 + "1.5",
    "0." + "0" * 25 + "1e30", "." + "9" * 26, "12345678901234567890.5e-3",
    "0.0052216139522364147", "-0.00012345678901234567", "1e-0000000001",
])
def test_long_tokens_match_float(tmp_path, token):
    # tokens past 24 bytes or 19 digits, or with the point in the top
    # bytes of the mantissa words
    path = tmp_path / "m.obj"
    path.write_bytes(f"v {token} {token} 0\n".encode())
    assert read_obj(path).vertices.tobytes() \
        == np.array([[float(token), float(token), 0.0]]).tobytes()


@pytest.mark.parametrize("record", [
    "v 0x1p3 1 2", "v 1_0 2 3", "v 1 2 1_0", "v \u0661 2 3", "v 1e 2 3",
    "v . 2 3", "v 1..2 2 3", "v 1e5.5 2 3", "v +-1 2 3", "v 1#2 3 4",
    "f 1 2 1_0", "f 1 2 1.0", "f 1 2 1e0", "f 1 2 99999999999999999999",
    "v", "f", "v 1 2", "f 1 2", "f /1 /2 /3",
])
def test_bad_records_raise(tmp_path, record):
    # np.loadtxt rejected all of these; float() alone would accept some
    path = tmp_path / "bad.obj"
    path.write_bytes(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{record}\n".encode())
    with pytest.raises(ValueError):
        read_obj(path)


def test_lone_record_without_numbers_raises(tmp_path):
    # the regex reader took a file whose only v record was bare as holding
    # no vertices; a record without numbers is now always an error
    path = tmp_path / "bad.obj"
    path.write_bytes(b"v\n")
    with pytest.raises(ValueError):
        read_obj(path)


# -- the per-number path stays rare on the meshes nilcat writes ---------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
def test_fallback_is_rare(tmp_path, monkeypatch, alpha):
    slow = []
    g17, number = objtext._g17, objtext._number
    monkeypatch.setattr(objtext, "_g17", lambda x: slow.append(x) or g17(x))
    monkeypatch.setattr(objtext, "_number",
                        lambda t, i: slow.append(t) or number(t, i))
    for m in (mesh_catenoid(build_catenoid(alpha), (-1.0, 1.0), 100, 100),
              mesh_helicoid(build_helicoid(alpha), (-1.0, 1.0), 100, 100),
              reflect_and_mesh(build_cmc_annulus(alpha), 100, 50,
                               (-1.0, 1.0))):
        slow.clear()
        write_obj(m, tmp_path / "m.obj")
        back = read_obj(tmp_path / "m.obj")
        assert back.vertices.tobytes() == m.vertices.tobytes()
        assert len(slow) <= 1e-3 * m.vertices.size


def test_package_import_leaves_objtext_out():
    # only OBJ I/O compiles the conversion module (see its docstring)
    import os
    import subprocess
    import sys
    code = ("import sys, nilcat, nilcat.cli; "
            "assert 'nilcat.objtext' not in sys.modules; "
            "nilcat.cli.main(['solve-period', '--alpha', '1.5']); "
            "assert 'nilcat.objtext' not in sys.modules")
    src = os.path.dirname(os.path.dirname(objtext.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   capture_output=True, env=dict(os.environ, PYTHONPATH=src))
