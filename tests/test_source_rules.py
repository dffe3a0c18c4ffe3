"""Rules the package source keeps.

Each ``src/bbibranch`` module is parsed once into ``TREES`` and walked by
``_nodes``.  A rule that looks for nodes is a row of ``QUERIES``: to add one,
add a row, pin its sites in a test and plant one match of it in ``PLANTED``.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bbibranch"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _nodes(trees=TREES):
    """Yield (file, owner, node, in_loop) for each node of trees: the owner is
    the dotted name of the innermost function or class holding the node (a
    definition holds itself) or None, in_loop whether a loop in that owner does."""
    def walk(node, file, owner, in_loop):
        if isinstance(node, DEFS):
            owner = node.name if owner is None else "%s.%s" % (owner, node.name)
            in_loop = False
        yield file, owner, node, in_loop
        for child in ast.iter_child_nodes(node):
            yield from walk(child, file, owner, in_loop or isinstance(node, LOOPS))

    for file, tree in trees.items():
        yield from walk(tree, file, None, False)


def _called(node):
    """The name that a Call calls: ``f`` for ``f(...)`` and ``x.f(...)``."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))


def _where(match):
    """The row that records (file, owner) of each node that match accepts."""
    return lambda file, owner, node, in_loop: match(node) and (file, owner)


def _calls(*names):
    return _where(lambda node: _called(node) in names)


# Each row maps a (file, owner, node, in_loop) of the walk to the site that
# it records, or to a false value when the node is not one.
QUERIES = {
    "assert": _where(lambda node: isinstance(node, ast.Assert)),
    "local import": lambda file, owner, node, in_loop:
        isinstance(node, (ast.Import, ast.ImportFrom)) and owner and (file, owner),
    "private import": _where(lambda node: isinstance(node, ast.ImportFrom) and (
        node.level or (node.module or "").startswith("bbibranch")) and any(
        alias.name.startswith("_") for alias in node.names)),
    "fractions import": _where(lambda node: node.module == "fractions"
                               if isinstance(node, ast.ImportFrom) else
                               isinstance(node, ast.Import) and any(
                                   alias.name == "fractions" for alias in node.names)),
    # Q and Fraction keep their names wherever they are imported.
    "Fraction alias": _where(lambda node: isinstance(node, ast.ImportFrom) and any(
        alias.name in ("Q", "Fraction") and alias.asname for alias in node.names)),
    "Fraction": _calls("Q", "Fraction"),
    "guard": _where(lambda node: isinstance(node, ast.Raise)
                    and _called(node.exc) == "GuardError"),
    "capacity": _calls("check_capacities"),
    "InfeasibleInstance": _calls("InfeasibleInstance"),
    "require_feasible": _calls("require_feasible"),
    "TheoremViolation": lambda file, owner, node, in_loop:
        _called(node) == "TheoremViolation"
        and (file, owner, "line %d" % node.lineno,
             any(kw.arg == "payload" for kw in node.keywords)),
    # cap[slot ^ 1]: the reverse residual slot of ``slot``.
    "twin slot": _where(lambda node: isinstance(node, ast.Subscript)
                        and isinstance(node.slice, ast.BinOp)
                        and isinstance(node.slice.op, ast.BitXor)
                        and getattr(node.slice.right, "value", None) == 1),
    "FlowNetwork": lambda file, owner, node, in_loop:
        _called(node) == "FlowNetwork" and (file, owner, in_loop),
    "Digraph": _calls("Digraph"),
    "load_instance_file": _calls("load_instance_file"),
    "emit_report": _calls("emit_report"),
    "json dump": _calls("dump", "dumps"),
    "json writer": _calls("_write_json", "encode_basestring_ascii"),
    "gcd or lcm": lambda file, owner, node, in_loop:
        _called(node) in ("gcd", "lcm") and (file, owner, _called(node)),
    # A string that names an LP row relation or an LP sense.
    "LP relation or sense": _where(lambda node: isinstance(node, ast.Constant)
                                   and node.value in ("<=", ">=", "=", "min", "max")),
    # type(x) is int and type(x) is not int: exact int tests, bools excluded.
    "int test": _where(lambda node: isinstance(node, ast.Compare)
                       and _called(node.left) == "type"
                       and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                       and getattr(node.comparators[0], "id", None) == "int"),
}


def _sites(query, trees=TREES):
    """The sites that the row ``query`` records, one per node, in walk order."""
    return [site for row in _nodes(trees) if (site := QUERIES[query](*row))]


def test_no_assert_statements():
    # ``python -O`` strips asserts, and a failing one ends in a traceback
    # rather than the exit-5 report: theorem checks raise TheoremViolation.
    assert len(TREES) > 1 and _sites("assert") == []


def test_function_local_imports_are_pinned():
    # ``solve_shortest`` imports the route it runs locally: lpsolve for
    # ``lp`` and ``auto``, mconvex for ``mflow``; both import ``Instance``
    # from bibranching.  The cli handlers import lpsolve, packing, mconvex
    # and matroids locally.  So a command loads only the modules it runs.
    # No other function or class imports locally.
    assert set(_sites("local import")) == {("bibranching.py", "solve_shortest")} | {
        ("cli.py", name) for name in (
            "cmd_packing_number", "cmd_pack", "_check_tdi", "_check_mconvex",
            "_random_b_branching", "_check_exchange", "_check_idp")}


def test_module_level_package_imports_are_pinned():
    # The package's import graph at module level.  bibranching, which every
    # command loads, imports neither lpsolve, mconvex nor matroids, so a
    # command loads those only where it runs them.
    found = {file.removesuffix(".py"): sorted(
        node.module for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1)
        for file, tree in TREES.items()}
    assert found == {
        "__init__": ["bibranching", "digraph", "errors"],
        "bibranching": ["digraph", "errors", "rationals"],
        "cli": ["bibranching", "digraph", "errors", "rationals"],
        "digraph": ["errors"],
        "errors": [],
        "lpsolve": ["bibranching", "digraph", "errors", "rationals"],
        "matroids": ["bibranching", "digraph", "errors"],
        "mconvex": ["bibranching", "digraph", "errors", "matroids"],
        "packing": ["bibranching", "digraph", "errors", "lpsolve", "matroids"],
        "rationals": ["errors"],
    }


def test_no_private_cross_module_imports():
    # A module's _-prefixed names are its own: no module imports one from
    # another module of the package.
    assert _sites("private import") == []


def test_fractions_are_built_in_rationals():
    # Numbers are int when integral and Fraction otherwise.  Only
    # ``rationals`` imports Fraction or calls it or its alias Q, so no other
    # code wraps an integral value in a Fraction.
    assert {file for file, _ in _sites("fractions import")} == {"rationals.py"}
    assert _sites("Fraction alias") == []
    assert {site for site in _sites("Fraction") if site[0] != "rationals.py"} == set()


def test_guard_sites_are_pinned():
    # Every size guard and sampling refusal (exit 4) is listed here, so
    # adding or removing one shows up as a change to this test.
    assert set(_sites("guard")) == {
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
    assert set(_sites("capacity")) == {
        ("bibranching.py", "Instance.__init__"),
        ("matroids.py", "SparsityMatroid.__init__"),
        ("packing.py", "pack_prescribed_b_branchings")}


def test_infeasibility_sites_are_pinned():
    # Exit 3 always carries the failing condition: only ``require_feasible``
    # builds an ``InfeasibleInstance``.  It runs up front only for ``mflow``
    # and brute force, and in the LP route once the cutting-plane LP is not
    # optimal.
    assert set(_sites("InfeasibleInstance")) == {("bibranching.py", "require_feasible")}
    assert set(_sites("require_feasible")) == {("bibranching.py", "solve_shortest"),
                                               ("lpsolve.py", "_cutting_plane"),
                                               ("mconvex.py", "solve_mflow")}


def test_every_theorem_violation_carries_a_payload():
    # Exit 5 reports a defect, so every site that raises TheoremViolation
    # passes the evidence for it as ``payload=``.
    sites = _sites("TheoremViolation")
    assert sites
    assert [site for site in sites if not site[-1]] == []


def test_one_max_flow_routine_and_one_network_per_caller():
    # Augmenting along a residual slot updates its twin, ``cap[slot ^ 1]``:
    # only ``max_flow_min_cut`` does so, so it is the one max-flow routine.
    # Each caller compiles its ``FlowNetwork``s, capacities included, once
    # per call, outside any loop, and runs all its flows on them, so no flow
    # rebuilds the residual graph: separation one network per bicut family.
    assert set(_sites("twin slot")) == {("digraph.py", "max_flow_min_cut")}
    assert _sites("FlowNetwork") == [
        ("lpsolve.py", "min_bicut_candidates", False),
        ("lpsolve.py", "min_bicut_candidates", False),
        ("packing.py", "cut_condition_failure", False)]


def test_digraphs_are_built_at_two_sites():
    # Arc subsets are frozensets over one digraph, so only loading an
    # instance and an induced subgraph build a ``Digraph``.  An instance's
    # mirror reverses its validated digraph (``Digraph.reversed``) without
    # checking it again.
    assert set(_sites("Digraph")) == {("cli.py", "load_instance_data"),
                                      ("bibranching.py", "subgraph")}


def test_one_load_and_one_report_per_command():
    # ``cli.main`` loads the instance and writes the report, each once; the
    # handlers take the instance and return their payload.
    assert _sites("load_instance_file") == [("cli.py", "main")]
    assert _sites("emit_report") == [("cli.py", "main")]


def test_one_json_writer():
    # Every report (``emit_report``) and ``gen``'s document is serialized by
    # ``cli._write_json``, so keys are sorted, sets are sorted lists and
    # rationals are text the same way in each.  Its own recursion writes
    # every string, and nothing in the package calls json.dump or dumps.
    assert _sites("json dump") == []
    assert set(_sites("json writer")) == {("cli.py", "_write_json.text"),
                                          ("cli.py", "emit_report"),
                                          ("cli.py", "cmd_gen")}


def test_one_scale_in_the_simplex():
    # The simplex tableau holds exact entries, so no row carries a
    # denominator and no gcd reduces one, and no row is scaled: every cost a
    # command poses is an int.  lcm scales separation's point to int
    # capacities, and the weights to the canonical int weights W.
    assert _sites("gcd or lcm") == [("bibranching.py", "_canonical", "lcm"),
                                    ("lpsolve.py", "min_bicut_candidates", "lcm")]


def test_int_tests_are_pinned():
    # Vertex maps are read by ``Digraph.per_vertex`` and arc maps by
    # ``Digraph.per_arc``, so a hand-written test of a map's entries shows up
    # here.  The other sites test an arc index, an LP column, a scalar k, a
    # number in ``rationals``, or whether separation's point is integral.
    assert set(_sites("int test")) == {
        ("digraph.py", "Digraph.check_arcset"),
        ("digraph.py", "Digraph.per_arc"),
        ("digraph.py", "Digraph.per_vertex"),
        ("lpsolve.py", "RationalLP._check_variable"),
        ("lpsolve.py", "_violated_bicuts"),
        ("lpsolve.py", "integer_decomposition_check"),
        ("packing.py", "cut_family"),
        ("packing.py", "partition_cross_arcs"),
        ("rationals.py", "rat"),
        ("rationals.py", "rat_str"),
        ("rationals.py", "is_integral"),
    }


# A module with matches of every row of QUERIES: in a function, in a loop, in
# a function defined in that loop, and at module level.
PLANTED = """\
from .rationals import _private, Q as quotient
from fractions import Fraction


class Net:
    def flow(self, arcs, slot):
        assert arcs
        import fractions
        if not arcs:
            raise errors.GuardError("too many")
        check_capacities(self.b)
        require_feasible(self)
        raise InfeasibleInstance("no")
        raise TheoremViolation("no evidence")
        self.cap[slot ^ 1] += 1
        emit_report(load_instance_file(slot), type(slot) is not int, _write_json(slot))
        for arc in arcs:
            FlowNetwork(arcs, arc)

            def supply(network):
                FlowNetwork(network, arc)
        return Digraph([], []), Fraction(1, 2), json.dumps(arcs), lcm(2, 3), "<="
"""


def test_no_lp_relation_or_sense_strings():
    # Every LP is min c.x, and a row (coeffs, lo, hi) is bounded as a column
    # is, None standing for an infinite bound: no string names a relation
    # or a sense.
    assert _sites("LP relation or sense") == []


def test_every_query_finds_its_planted_site():
    # A rule that asserts no site passes on a walk that yields nothing, so
    # each row must find the one match planted for it, where it is.
    found = {query: _sites(query, {"planted.py": ast.parse(PLANTED)})
             for query in QUERIES}
    at_flow = [("planted.py", "Net.flow")]
    assert found == dict.fromkeys(QUERIES, at_flow) | {
        "private import": [("planted.py", None)],
        "fractions import": [("planted.py", None), ("planted.py", "Net.flow")],
        "Fraction alias": [("planted.py", None)],
        "TheoremViolation": [("planted.py", "Net.flow", "line 14", False)],
        "gcd or lcm": [("planted.py", "Net.flow", "lcm")],
        "FlowNetwork": [("planted.py", "Net.flow", True),
                        ("planted.py", "Net.flow.supply", False)],
    }


def test_exceptions_are_defined_in_errors():
    # Every exception class of the package is defined in ``errors``, next
    # to the others whose CLI exit codes are fixed: no module has its own.
    found = set()
    for file in TREES:
        module = importlib.import_module("bbibranch." + file.removesuffix(".py"))
        found |= {(file, name) for name, obj in vars(module).items()
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
        # perfbench/workloads.py calls this.
        "verify_packing",
        # Independent oracles in the tests: for in_cut, and for the
        # outdegrees that bibranching_report reads from out_arcs.
        "Digraph.out_cut", "Digraph.out_degree",
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
            visit(child, owners + (child,) if isinstance(child, DEFS) else owners)

    for tree in TREES.values():
        for node in tree.body:
            if isinstance(node, DEFS):
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
