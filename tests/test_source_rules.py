"""Rules the package source keeps."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bbibranch"


def test_no_assert_statements():
    # ``python -O`` strips asserts, and a failing one ends in a traceback
    # rather than the exit-5 report: theorem checks raise TheoremViolation.
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


def test_function_local_imports_are_pinned():
    # ``solve_shortest`` imports the route it runs locally: lpsolve for
    # ``lp`` and ``auto``, mconvex for ``mflow``; both import ``Instance``
    # from bibranching.  The cli handlers import lpsolve, packing, mconvex
    # and matroids locally.  So a command loads only the modules it runs.
    # No other function imports locally.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert found == {("bibranching.py", "solve_shortest")} | {
        ("cli.py", name) for name in (
            "cmd_packing_number", "cmd_pack", "_check_tdi", "_check_mconvex",
            "_random_b_branching", "_check_exchange", "_check_idp")}


def test_module_level_package_imports_are_pinned():
    # The package's import graph at module level.  bibranching, which every
    # command loads, imports neither lpsolve, mconvex nor matroids, so a
    # command loads those only where it runs them.
    found = {}
    for path in sorted(SRC.glob("*.py")):
        found[path.stem] = sorted(
            node.module for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ImportFrom) and node.level == 1)
    assert found == {
        "__init__": ["bibranching", "digraph", "errors"],
        "bibranching": ["digraph", "errors", "rationals"],
        "cli": ["bibranching", "digraph", "errors", "rationals"],
        "digraph": ["errors"],
        "errors": [],
        "lpsolve": ["bibranching", "digraph", "errors", "rationals"],
        "matroids": ["digraph"],
        "mconvex": ["bibranching", "digraph", "errors", "matroids"],
        "packing": ["bibranching", "digraph", "errors", "lpsolve", "matroids"],
        "rationals": ["errors"],
    }


def test_no_private_cross_module_imports():
    # A module's _-prefixed names are its own: no module imports one from
    # another module of the package.
    found = [
        "%s:%d %s" % (path.name, node.lineno, alias.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("bbibranch"))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert found == []


def test_fractions_are_built_in_rationals():
    # Numbers are int when integral and Fraction otherwise.  Only
    # ``rationals`` imports Fraction or calls it or its alias Q, so no other
    # code wraps an integral value in a Fraction.
    imports, calls = set(), set()

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Import):
            imports.update(path.name for alias in node.names
                           if alias.name == "fractions")
        if isinstance(node, ast.ImportFrom):
            if node.module == "fractions":
                imports.add(path.name)
            # Q and Fraction keep their names wherever they are imported.
            assert all(alias.asname is None for alias in node.names
                       if alias.name in ("Q", "Fraction"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("Q", "Fraction"):
            calls.add((path.name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert imports == {"rationals.py"}
    assert {call for call in calls if call[0] != "rationals.py"} == set()


def test_guard_sites_are_pinned():
    # Every size guard and sampling refusal (exit 4) is listed here, so
    # adding or removing one shows up as a change to this test.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, ast.Raise)
                          and isinstance(node.exc, ast.Call)
                          and isinstance(node.exc.func, ast.Name)
                          and node.exc.func.id == "GuardError"}
    assert found == {
        ("bibranching.py", "brute_force_shortest"),
        ("packing.py", "cut_family"),
        ("packing.py", "_exhaustive_partition"),
        ("packing.py", "pack_prescribed_b_branchings"),
        ("cli.py", "_check_exchange"),
    }


def test_capacity_checks_are_pinned():
    # b is checked where an instance or a sparsity matroid is built, and by
    # the packing routine that reads b before its split builds a matroid;
    # every other entry point gets b checked through one of these.
    sites = set()

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where is None else "%s.%s" % (where, node.name)
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "check_capacities":
            sites.add((path.name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert sites == {("bibranching.py", "Instance.__init__"),
                     ("matroids.py", "SparsityMatroid.__init__"),
                     ("packing.py", "pack_prescribed_b_branchings")}


def test_infeasibility_sites_are_pinned():
    # Exit 3 always carries the failing condition: only ``require_feasible``
    # builds an ``InfeasibleInstance``.  It runs up front only for ``mflow``
    # and brute force, and in the LP route once the cutting-plane LP is not
    # optimal.
    sites = {"InfeasibleInstance": set(), "require_feasible": set()}
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "id", getattr(node.func, "attr", None))
                        if name in sites:
                            sites[name].add((path.name, func.name))
    assert sites == {
        "InfeasibleInstance": {("bibranching.py", "require_feasible")},
        "require_feasible": {("bibranching.py", "solve_shortest"),
                             ("lpsolve.py", "_cutting_plane"),
                             ("mconvex.py", "solve_mflow")},
    }


def test_every_theorem_violation_carries_a_payload():
    # Exit 5 reports a defect, so every site that raises TheoremViolation
    # passes the evidence for it as ``payload=``.
    sites, bare = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "TheoremViolation"):
                sites += 1
                if not any(kw.arg == "payload" for kw in node.keywords):
                    bare.append("%s:%d" % (path.name, node.lineno))
    assert sites > 0
    assert bare == []


def test_one_max_flow_routine_and_one_network_per_caller():
    # Augmenting along a residual slot updates its twin, ``cap[slot ^ 1]``:
    # only ``max_flow_min_cut`` does so, so it is the one max-flow routine.
    # Each caller compiles its ``FlowNetwork`` once, outside any loop, and
    # runs all its flows on it, so no flow rebuilds the residual graph.
    # Separation compiles its network once per instance, in the cached
    # ``Instance.separation_network``, and each call of
    # ``min_bicut_candidates`` only supplies its capacities, once.
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    twins, compiles, supplies = set(), [], []

    def visit(node, path, where, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, in_loop = node.name, False
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.BinOp) \
                and isinstance(node.slice.op, ast.BitXor) \
                and getattr(node.slice.right, "value", None) == 1:
            twins.add((path.name, where))
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "FlowNetwork":
            compiles.append((path.name, where, in_loop))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) \
                == "with_capacities":
            supplies.append((path.name, where, in_loop))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where, in_loop or isinstance(node, loops))

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None, False)
    assert twins == {("digraph.py", "max_flow_min_cut")}
    assert sorted(compiles) == [("bibranching.py", "separation_network", False),
                                ("packing.py", "cut_condition_failure", False)]
    assert supplies == [("lpsolve.py", "min_bicut_candidates", False)]


def test_digraphs_are_built_at_three_sites():
    # Arc subsets are frozensets over one digraph, so only loading an
    # instance, its mirror and an induced subgraph build a ``Digraph``.
    sites = set()

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where is None else "%s.%s" % (where, node.name)
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "Digraph":
            sites.add((path.name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert sites == {("cli.py", "load_instance_data"),
                     ("bibranching.py", "Instance.mirror"),
                     ("bibranching.py", "subgraph")}


def test_exceptions_are_defined_in_errors():
    # Every exception class of the package is defined in ``errors``, next
    # to the others whose CLI exit codes are fixed: no module has its own.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("bbibranch." + path.stem)
        found |= {(path.name, name) for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == module.__name__}
    assert ("errors.py", "InputError") in found
    assert {entry for entry in found if entry[0] != "errors.py"} == set()


def test_every_definition_has_a_caller():
    # Every top-level function and class and every non-dunder method in the
    # package is named somewhere in the package outside its own definition,
    # so the package holds only code that it runs.  Code that only tests
    # reach lives under tests/ (conftest.py, paper_lemmas.py).
    exempt = {
        # perfbench/workloads.py calls these.
        "verify_packing", "Instance.weight_of",
        # An independent oracle for in_cut in the tests.
        "Digraph.out_cut",
        # perfbench/tracing.py wraps these by name.
        "partition_cross_arcs", "pack_prescribed_b_branchings",
        "_exhaustive_partition",
    }
    defined, named = {}, set()

    def visit(node, owners):
        if isinstance(node, ast.Name):
            named.add((node.id, owners))
        elif isinstance(node, ast.Attribute):
            named.add((node.attr, owners))
        for child in ast.iter_child_nodes(node):
            visit(child, owners + (child,) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else owners)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = node
            if isinstance(node, ast.ClassDef):
                defined.update(
                    ("%s.%s" % (node.name, item.name), item) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__")))
        visit(tree, ())
    uncalled = {key for key, node in defined.items()
                if not any(name == node.name and node not in owners
                           for name, owners in named)}
    assert uncalled == exempt
