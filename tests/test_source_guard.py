"""Source guard: one 5-point stencil, one root finder, one sweep path, one
edge counter, one OBJ number conversion, one period-rule node path, one
profile per CMC model, and a numpy-only run time.

Each derivative stencil lives in `nil3.stencil5`, bracketed roots are
refined by `roots.brentq` (the period root by Newton through
`period.L_integral`), alpha sweeps run as plain loops, mesh edges are
counted by one sort in `meshes.euler_characteristic`, OBJ numbers go
through the whole-array conversion of `objtext`, the period rule's nodes
come from the table of `period._ladder_nodes`, the CMC model samples
the theta = 0 profile alone, and nothing in `src/nilcat` imports scipy.
These scans fail if a copy of the stencil denominator, a second Brent
routine, a hand-rolled bisection loop, a thread pool, an `np.unique` in the
mesh module, a second OBJ conversion path, a second node path, a conjugate
profile in the CMC model or a scipy import comes back.
"""

import ast
import pathlib

import nilcat

SRC = pathlib.Path(nilcat.__file__).parent


def _sources():
    return {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_sources_found():
    assert {"nil3.py", "profile.py", "cmc.py", "verify.py"} <= set(_sources())


def test_one_5point_stencil():
    hits = []
    for name, text in _sources().items():
        tree = ast.parse(text)
        helper = None
        if name == "nil3.py":
            helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                          and n.name == "stencil5")
        for no, line in enumerate(text.splitlines(), 1):
            inside = helper is not None and \
                helper.lineno <= no <= helper.end_lineno
            if "(12 *" in line and not inside:
                hits.append(f"{name}:{no}: {line.strip()}")
    assert hits == []


def test_no_thread_pool_or_bisection_loop():
    for name, text in _sources().items():
        assert "ThreadPoolExecutor" not in text, name
        assert "range(200)" not in text, name
        assert "NILCAT_THREADS" not in text, name


def test_no_scipy_import():
    hits = []
    for name, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            hits += [f"{name}:{node.lineno}: {m}" for m in mods
                     if m.split(".")[0] == "scipy"]
    assert hits == []


def test_one_brentq():
    defs = [name for name, text in _sources().items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name == "brentq"]
    assert defs == ["roots.py"]


def test_no_unique_in_meshes():
    """numpy 2 sends a plain `np.unique` of integers through a hash table
    and then sorts the result: for the 59,400 edge keys of a side-100
    catenoid that took 6.4-7.8 ms, against 0.52-0.56 ms for one `np.sort`,
    and the Euler characteristic went from 7.5 ms to 0.9-1.1 ms (2-vCPU VM,
    numpy 2.4).  Edge counts come from one sort and a neighbour compare; the
    scan reads the code, not the docstrings that give this reason."""
    tree = ast.parse(_sources()["meshes.py"])
    hits = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "unique"
            or isinstance(node, ast.alias) and node.name == "unique"]
    assert hits == []


def _code_nodes(text):
    """The AST nodes of a module, without its docstrings."""
    tree = ast.parse(text)
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            docs.add(id(node.body[0].value))
    return [node for node in ast.walk(tree) if id(node) not in docs]


def test_one_obj_number_conversion():
    """OBJ numbers are written and read by the whole-array conversion in
    `objtext`; '%.17g' formats only the rare number it leaves.  Both reader
    paths (one separator scan for plain chunks, the general tokenizer for
    the rest) hand their tokens to the same kernels.  A record
    template such as "v %.17g %.17g %.17g\\n", an `np.loadtxt` or the `re`
    module would be a second, per-number path through every record (the
    one the conversion replaced, about three quarters of a mesh-export
    block).  The scan reads the code, not the docstrings."""
    hits = []
    text = _sources()
    for node in [n for name in ("meshes.py", "objtext.py")
                 for n in _code_nodes(text[name])]:
        if isinstance(node, ast.Attribute) and node.attr == "loadtxt" \
                or isinstance(node, ast.alias) and node.name == "loadtxt":
            hits.append((node.lineno, "loadtxt"))
        elif isinstance(node, ast.Import) \
                and any(a.name == "re" for a in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "re":
            hits.append((node.lineno, "import re"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and ("%.17g" in node.value and node.value != "%.17g"
                     or "%d %d" in node.value):
            hits.append((node.lineno, node.value))
    assert hits == []
    # one number kernel behind both token paths: the digit folds and the
    # rounding are called only from `_floats` and `_integers`, and those
    # only from `_obj_records`, after either path has found the tokens
    callers = {}
    for fn in ast.parse(text["objtext.py"]).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, []).append(fn.name)
    assert callers["_floats"] == callers["_integers"] == ["_obj_records"]
    assert sorted(callers["_fold8"]) == ["_floats", "_integers"]
    assert callers["_nearest"] == ["_floats"]
    assert {"_plain_bounds", "_general_bounds"} <= set(callers)


def test_one_period_node_path():
    """The period rule's nodes are prefixes of one table, each level formed
    once per process by `period._ladder_nodes`; before the table every
    ladder formed its nodes again with np.cos at every doubling.  np.cos
    (or np.sin) anywhere else in `period.py` would be a second node path."""
    tree = ast.parse(_sources()["period.py"])
    table = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                 and n.name == "_ladder_nodes")
    inside = {id(n) for n in ast.walk(table)}
    hits = [node.lineno for node in ast.walk(tree)
            if id(node) not in inside and (
                isinstance(node, ast.Attribute) and node.attr in ("cos", "sin")
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                or isinstance(node, ast.alias) and node.name in ("cos", "sin"))]
    assert hits == []


def test_theta_root_passes_through_L_integral():
    """`find_theta_tilde` is Newton's method on the exact slope, so
    `period.py` needs no `brentq` (the helicoid and CMC code still use the
    one in `roots`).  The search reaches the quadrature only through the
    public `L_integral`, so a tracer wrapped around it counts every pass a
    root makes."""
    tree = ast.parse(_sources()["period.py"])
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "brentq" not in imported
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def called(fn):
        return {node.func.id for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)}

    quadrature = {"_periodic_trapezoid", "_sqrtP_denominator_L",
                  "_ladder_nodes"}
    quadrature |= {name for name, fn in fns.items()
                   if called(fn) & quadrature}
    assert "L_integral" in quadrature
    assert called(fns["find_theta_tilde"]) & quadrature == {"L_integral"}



def test_period_constants_from_the_root_pass():
    """`solve-period` takes its constants from the pass that confirms the
    root (the `PeriodIntegrals` `find_theta_tilde` returns), so `cli.py`
    has no use for a separate `appendix_I_decomposition` pass.  The Newton
    start is a Clenshaw sum over a literal table, with no
    `numpy.polynomial` in `period.py`."""
    sources = _sources()
    assert "appendix_I_decomposition" not in sources["cli.py"]
    assert "polynomial" not in sources["period.py"]


def test_one_profile_per_cmc_model():
    """`CmcAnnulusModel` reads sin phi* = alpha sin phi / |phi'| from the
    conjugacy identity, so neither the model nor `build_cmc_annulus` names
    a conjugate (a `conjugate` attribute, `conjugate_profile`,
    `_ConjugateQuartic`): the conjugate profile is built by `verify`, which
    checks the identities against it.  The one exception is the parameter
    through which `hyperboloid_point_printed` takes that profile from its
    caller.  The scan reads the code, not the docstrings."""
    text = _sources()["cmc.py"]
    scopes = {n.name: n for n in ast.parse(text).body
              if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    hits = []
    for name in ("CmcAnnulusModel", "build_cmc_annulus"):
        code = _code_nodes(ast.get_source_segment(text, scopes[name]))
        printed = [n for n in code if isinstance(n, ast.FunctionDef)
                   and n.name == "hyperboloid_point_printed"]
        allowed = {id(n) for fn in printed for n in ast.walk(fn)
                   if isinstance(n, ast.arg) and n.arg == "conjugate"
                   or isinstance(n, ast.Name) and n.id == "conjugate"}
        for node in code:
            ident = getattr(node, "id", None) or getattr(node, "attr", None) \
                or getattr(node, "arg", None) or getattr(node, "name", None)
            if isinstance(ident, str) and "conjugate" in ident.lower() \
                    and id(node) not in allowed:
                hits.append(f"{name}:{node.lineno}: {ident}")
    assert hits == []
