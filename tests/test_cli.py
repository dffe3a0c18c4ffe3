"""Command-line surface: file formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbibranch import bibranching, cli, lpsolve, mconvex, packing
from bbibranch.cli import (EXIT_GUARD, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK,
                           EXIT_THEOREM, load_instance_data)
from bbibranch.digraph import Digraph
from bbibranch.errors import GuardError, InputError, TheoremViolation
from bbibranch.rationals import rat, rat_str

from conftest import (all_bicuts, digest_draws, one_arc_instance,
                      random_instance, repeat_separations, serialize_instance,
                      uncrossing_instance)

ONE_ARC = {
    "vertices": [
        {"id": "s", "side": "S", "b": 1},
        {"id": "t", "side": "T", "b": 1},
    ],
    "arcs": [{"tail": "s", "head": "t", "weight": 5}],
}


# Two 2-cycles of weight 0, one inside each side, and one arc s1 -> t1 of
# weight 5 that every b-bibranching needs.
SEPARATION_FAULT = {
    "vertices": [{"id": v, "side": v[0].upper(), "b": 1}
                 for v in ("s1", "s2", "t1", "t2")],
    "arcs": [{"tail": t, "head": h, "weight": w}
             for t, h, w in (("s1", "s2", 0), ("s2", "s1", 0), ("t1", "t2", 0),
                             ("t2", "t1", 0), ("s1", "t1", 5))],
}

# Runs the CLI on argv[2:] with one fault in the LP route: separation that
# finds nothing, or a final LP objective one above the true optimum.
FAULT_SCRIPT = """
import sys
from bbibranch import cli, lpsolve

solve = lpsolve.simplex_solve


def inflated(lp):
    result = solve(lp)
    if result.status == "optimal":
        result.objective += 1
    return result


if sys.argv[1] == "separation":
    lpsolve._violated_bicuts = lambda instance, x: []
else:
    lpsolve.simplex_solve = inflated
sys.exit(cli.main(sys.argv[2:]))
"""


# Weight strings outside the ASCII grammar [+-]?[0-9]+(/[0-9]+)?.
OUTSIDE_GRAMMAR = [
    "1_0", "\u0663", "\uff13/\uff14", "1/ 2", "-4/-2", "4/+2", "1/2/3",
    "", "/2", "1/", "1.5", "0x1", "1e3", "1/0"]


def assert_fixed_point(out: str) -> None:
    """A report or ``gen`` document is written exactly as json writes what
    it reads back."""
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


@pytest.fixture(autouse=True)
def reports_are_fixed_points(monkeypatch):
    # Every document cli writes in-process in this module, the planted
    # exit-5 payloads included, passes ``assert_fixed_point``.
    write = cli._write_json

    def checked(obj):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            write(obj)
        assert_fixed_point(buffer.getvalue())
        sys.stdout.write(buffer.getvalue())

    monkeypatch.setattr(cli, "_write_json", checked)


def run_cli(*argv, files=None, tmp_path=None):
    """The finished CLI subprocess on argv and the files; what it writes to
    stdout, if anything, passes ``assert_fixed_point``."""
    paths = []
    if files:
        for name, content in files.items():
            path = tmp_path / name
            path.write_text(json.dumps(content))
            paths.append(str(path))
    cmd = [sys.executable, "-m", "bbibranch.cli"] + [
        str(a) for a in argv] + paths
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.stdout:
        assert_fixed_point(run.stdout)
    return run


def _json_hook(obj):
    """The ``default`` hook of the ``json.dumps`` call that ``_write_json``
    replaced: a set as its sorted members, a rational as text."""
    return sorted(obj) if isinstance(obj, (set, frozenset)) else rat_str(obj)


JSON_LEAVES = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(), st.fractions(),
    st.sets(st.text()), st.frozensets(st.integers()), st.frozensets(st.fractions()))
JSON_DOCS = st.recursive(
    JSON_LEAVES, lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner)),
    max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=JSON_DOCS)
def test_write_json_matches_json_dumps(doc):
    # The writer is json's indent encoder with the old hook, byte for byte:
    # non-ASCII text, quotes and control characters escaped, nested and
    # empty containers, sets sorted and rationals as text.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_json(doc)
    assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2,
                                        default=_json_hook) + "\n"


class TestInstanceFormat:
    def test_round_trip(self):
        inst = one_arc_instance()
        data = serialize_instance(inst)
        again = load_instance_data(data)
        assert serialize_instance(again) == data

    def test_rational_weight_string(self):
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"][0]["weight"] = "7/3"
        inst = load_instance_data(doc)
        assert str(inst.weights[0]) == "7/3"

    def test_weights_are_int_when_integral(self):
        doc = json.loads(json.dumps(ONE_ARC))
        for weight, want in ((7, 7), ("4/2", 2), ("1/3", Fraction(1, 3)),
                             (" +4/2\n", 2), ("\t007/3 ", Fraction(7, 3))):
            doc["arcs"][0]["weight"] = weight
            (loaded,) = load_instance_data(doc).weights
            assert loaded == want and type(loaded) is type(want)

    @pytest.mark.parametrize("weight", OUTSIDE_GRAMMAR)
    def test_weight_string_outside_grammar_rejected(self, tmp_path, capsys,
                                                     weight):
        # Only ASCII [+-]?[0-9]+ with an optional /[0-9]+ is a weight.
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"][0]["weight"] = weight
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        # Instance reads every weight; the message names the arc and value.
        assert captured.err == \
            "input error: weight of arc 0 is not a rational: %r\n" % weight
        with pytest.raises(ValueError, match="zero denominator"
                           if weight == "1/0" else "not a rational"):
            rat(weight)

    @pytest.mark.parametrize("weight", [
        0, 7, "4/2", "1/3", " +4/2\n", "\t007/3 ", *OUTSIDE_GRAMMAR,
        -3, 0.5, True, None, [1], {}])
    def test_cli_and_instance_accept_the_same_weights(self, tmp_path, capsys,
                                                      weight):
        # The loader hands weights to Instance unread, so both accept
        # exactly the same values and read them to the same numbers.
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"][0]["weight"] = weight
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["solve", str(path)])
        out = capsys.readouterr().out
        D = Digraph(["s", "t"], [("s", "t")])
        try:
            direct = bibranching.Instance(D, {"s": "S", "t": "T"},
                                          {"s": 1, "t": 1}, [weight]).weights
        except InputError:
            direct = None
        assert (code == EXIT_INPUT) == (direct is None)
        if direct is None:
            assert out == ""
        else:
            assert code == EXIT_OK
            loaded = load_instance_data(doc).weights
            assert loaded == direct
            assert [type(w) for w in loaded] == [type(w) for w in direct]

    @pytest.mark.parametrize("where", ["weight text", "weight", "b", "solution"])
    def test_numbers_past_the_digit_limit_are_input_errors(self, tmp_path, capsys,
                                                           where):
        # 5000 digits is past the interpreter's limit on converting an int
        # from text (4300 by default), as weight text or as a JSON integer.
        huge = "1" * 5000
        doc = json.loads(json.dumps(ONE_ARC))
        if where == "weight text":
            doc["arcs"][0]["weight"] = huge
        text = json.dumps(doc)
        if where == "weight":
            text = text.replace('"weight": 5', '"weight": ' + huge)
        elif where == "b":
            text = text.replace('"b": 1', '"b": ' + huge, 1)
        instance, solution = tmp_path / "i.json", tmp_path / "s.json"
        instance.write_text(text)
        solution.write_text('{"arcs": [%s]}' % (huge if where == "solution" else 0))
        code = cli.main(["validate", str(instance), str(solution)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        if where == "weight text":
            # The value is a rational, only too long: the one line names
            # the arc and the limit, not the 5000 digits.
            assert captured.err == ("input error: weight of arc 0 has too many "
                                    "digits: more than %d\n" % sys.get_int_max_str_digits())
            with pytest.raises(InputError, match="^too many digits: more than %d$"
                               % sys.get_int_max_str_digits()):
                rat(huge)

    def test_missing_weight_reads_as_zero(self, tmp_path, capsys):
        # An arc with no "weight" key weighs 0.
        doc = json.loads(json.dumps(ONE_ARC))
        del doc["arcs"][0]["weight"]
        assert load_instance_data(doc).weights == [0]
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["result"]["value"] == "0"

    def test_float_weight_rejected(self):
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"][0]["weight"] = 0.5
        with pytest.raises(InputError):
            load_instance_data(doc)

    def test_bool_capacity_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(ONE_ARC))
        doc["vertices"][1]["b"] = True
        with pytest.raises(InputError, match="capacity b\\('t'\\)"):
            load_instance_data(doc)
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_schema_violations_rejected(self):
        with pytest.raises(InputError):
            load_instance_data([])
        with pytest.raises(InputError):
            load_instance_data({"vertices": [], "arcs": {}})
        with pytest.raises(InputError):
            load_instance_data({"vertices": [{"side": "S"}], "arcs": []})
        for tail, head in ((["s"], "t"), ("s", {"id": "t"})):
            with pytest.raises(InputError, match="must be strings"):
                load_instance_data({"vertices": ONE_ARC["vertices"],
                                    "arcs": [{"tail": tail, "head": head}]})


class TestSolveCommand:
    def test_value_and_exit_code(self, tmp_path):
        out = run_cli("solve", files={"i.json": ONE_ARC}, tmp_path=tmp_path)
        assert out.returncode == EXIT_OK
        report = json.loads(out.stdout)
        assert report["result"]["value"] == "5"
        assert report["result"]["arcs"] == [0]

    def test_infeasible_exit_code_and_witness(self, tmp_path):
        doc = {"vertices": ONE_ARC["vertices"], "arcs": []}
        out = run_cli("solve", files={"i.json": doc}, tmp_path=tmp_path)
        assert out.returncode == EXIT_INFEASIBLE
        report = json.loads(out.stdout)
        assert report["status"] == "infeasible"
        assert report["result"]["witness"]["witness"] == "t"
        raw = (tmp_path / "i.json").read_bytes()
        assert report["instance_hash"] == hashlib.sha256(raw).hexdigest()

    def test_theorem_violation_reports_payload(self, tmp_path, capsys,
                                               monkeypatch):
        def violate(instance, method):
            raise TheoremViolation("optima disagree", payload={
                "values": (Fraction(1, 3), 2), "set": frozenset({"t", "s"})})

        monkeypatch.setattr(cli, "solve_shortest", violate)
        path = tmp_path / "i.json"
        path.write_text(json.dumps(ONE_ARC))
        assert cli.main(["solve", str(path)]) == EXIT_THEOREM
        captured = capsys.readouterr()
        assert captured.err == "theorem violation: optima disagree\n"
        report = json.loads(captured.out)
        assert report["status"] == "theorem_violation"
        assert report["command"] == ["solve", str(path)]
        assert report["instance_hash"] == \
            hashlib.sha256(path.read_bytes()).hexdigest()
        assert report["result"] == {
            "message": "optima disagree",
            "payload": {"values": ["1/3", 2], "set": ["s", "t"]}}

    def test_fractional_lp_vertex_is_a_theorem_violation(self, tmp_path, capsys,
                                                         monkeypatch):
        # On two parallel arcs s -> t the LP optimum 1 is also reached at
        # x = (1/2, 1/2).  The integrality theorem rules out such a final
        # vertex, so it is reported with the LP and x, never repaired.
        original = lpsolve.simplex_solve
        faked = []

        def half_vertex(lp):
            result = original(lp)
            if result.status == "optimal" and not faked:
                faked.append(lp)
                result.x = [Fraction(1, 2), Fraction(1, 2)]
            return result

        monkeypatch.setattr(lpsolve, "simplex_solve", half_vertex)
        doc = {"vertices": ONE_ARC["vertices"],
               "arcs": [{"tail": "s", "head": "t", "weight": 1}] * 2}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path), "--method", "lp"]) == EXIT_THEOREM
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "theorem_violation"
        payload = report["result"]["payload"]
        assert payload["x"] == ["1/2", "1/2"]
        assert payload["lp"] == lpsolve.dump_lp(faked[0])

    def test_dual_bound_catches_a_suboptimal_lp_answer(self, tmp_path, capsys,
                                                       monkeypatch):
        # All arcs form a 0/1 b-bibranching, but one arc suffices: the row
        # duals bound every b-bibranching by that arc's weight only.  The
        # LP and its payload carry the canonical weights W = (5, 10) of
        # w = (1, 2), so all arcs weigh 15.
        original = lpsolve.simplex_solve
        faked = []

        def all_arcs(lp):
            result = original(lp)
            if result.status == "optimal":
                faked.append(lp)
                result.x = [Fraction(1)] * lp.num_vars
                result.objective = Fraction(sum(lp.objective))
            return result

        monkeypatch.setattr(lpsolve, "simplex_solve", all_arcs)
        doc = {"vertices": ONE_ARC["vertices"],
               "arcs": [{"tail": "s", "head": "t", "weight": w} for w in (1, 2)]}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        message = "dual bound 5 does not certify the LP optimum 15"
        for method in ("lp", "auto"):
            faked.clear()
            assert cli.main(["solve", str(path), "--method", method]) == EXIT_THEOREM
            captured = capsys.readouterr()
            assert captured.err == "theorem violation: %s\n" % message
            result = json.loads(captured.out)["result"]
            assert result["message"] == message
            assert result["payload"]["lp"] == lpsolve.dump_lp(faked[-1])
            assert result["payload"]["x"] == [1, 1]
            # b(t) y_t = 5, and no arc's load exceeds its weight.
            assert result["payload"]["y"] == {"v:s": "0", "v:t": "5"}

    def test_separation_fault_is_a_theorem_violation(self, tmp_path, capsys,
                                                     monkeypatch):
        # Without bicut rows the degree LP's optimum 0 takes only the
        # within-side 2-cycles.  That vertex is 0/1 and its dual bound 0 is
        # valid, so only the primal check can see that S never reaches T.
        monkeypatch.setattr(lpsolve, "_violated_bicuts", lambda instance, x: [])
        path = tmp_path / "i.json"
        path.write_text(json.dumps(SEPARATION_FAULT))
        lp = lpsolve._build_degree_lp(
            bibranching._canonical(load_instance_data(SEPARATION_FAULT))[0])
        for method in ("lp", "auto"):
            assert cli.main(["solve", str(path), "--method", method]) == EXIT_THEOREM
            result = json.loads(capsys.readouterr().out)["result"]
            assert result["message"] == "cutting-plane vertex is not a b-bibranching"
            assert result["payload"]["lp"] == lpsolve.dump_lp(lp)
            assert result["payload"]["x"] == [1, 1, 1, 1, 0]
            assert sorted(result["payload"]["failed"]) == ["s_reaches_t",
                                                           "t_reachable_from_s"]

    def test_separation_returning_a_row_again_is_a_theorem_violation(
            self, tmp_path, capsys, monkeypatch):
        # The cut validity check reports the first repeated row instead of
        # dropping it.  Under the canonical weights the second round's x
        # takes the arc s1 -> t1 and leaves arcs 0 and 3 out.
        repeat_separations(monkeypatch)
        path = tmp_path / "i.json"
        path.write_text(json.dumps(SEPARATION_FAULT))
        assert cli.main(["solve", str(path), "--method", "lp"]) == EXIT_THEOREM
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["message"] == "separated bicut is not violated"
        assert result["payload"] == {"U": ["t1", "t2"], "x": ["0", "1", "1", "0", "1"]}

    @pytest.mark.parametrize("fault", ["separation", "objective"])
    def test_certificate_failure_reports_ignore_the_hash_seed(self, tmp_path,
                                                              fault):
        # The objective fault's payload holds the dual of the bicut row
        # U = {t1, t2}, a frozenset whose str() follows the hash seed.
        path = tmp_path / "i.json"
        path.write_text(json.dumps(SEPARATION_FAULT))
        runs = [subprocess.run([sys.executable, "-c", FAULT_SCRIPT, fault,
                                "solve", str(path), "--method", "lp"],
                               capture_output=True, text=True,
                               env=dict(os.environ, PYTHONHASHSEED=seed))
                for seed in ("0", "1")]
        assert [run.returncode for run in runs] == [EXIT_THEOREM] * 2
        assert runs[0].stdout == runs[1].stdout
        assert_fixed_point(runs[0].stdout)
        assert runs[0].stderr == runs[1].stderr
        y = json.loads(runs[0].stdout)["result"]["payload"]["y"]
        assert ("U:{t1,t2}" in y) == (fault == "objective")

    @staticmethod
    def count_feasibility_calls(monkeypatch) -> list:
        calls = []
        original = bibranching.feasibility_witness

        def counted(instance):
            calls.append(instance)
            return original(instance)

        monkeypatch.setattr(bibranching, "feasibility_witness", counted)
        return calls

    @pytest.mark.parametrize("method", ["auto", "lp", "mflow", "brute"])
    def test_feasibility_checked_once(self, tmp_path, capsys, monkeypatch,
                                      method):
        # The LP route decides feasibility by its own LP, so a feasible solve
        # builds no all-arc report; mflow and brute force check up front.
        # With b(t) = 2 every route makes one check and reports its witness.
        calls = self.count_feasibility_calls(monkeypatch)
        infeasible = json.loads(json.dumps(ONE_ARC))
        infeasible["vertices"][1]["b"] = 2
        path = tmp_path / "i.json"
        path.write_text(json.dumps(ONE_ARC))
        assert cli.main(["solve", str(path), "--method", method]) == EXIT_OK
        capsys.readouterr()
        assert len(calls) == (method in ("mflow", "brute"))
        calls.clear()
        path.write_text(json.dumps(infeasible))
        assert cli.main(["solve", str(path), "--method", method]) == EXIT_INFEASIBLE
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["result"] == {
            "message": "no b-bibranching exists: condition t_indegree fails at t",
            "witness": {"condition": "t_indegree", "witness": "t"}}

    @pytest.mark.parametrize("what", ["tdi", "idp"])
    def test_feasible_checks_make_no_feasibility_call(self, tmp_path, capsys,
                                                      monkeypatch, what):
        calls = self.count_feasibility_calls(monkeypatch)
        path = tmp_path / "i.json"
        path.write_text(json.dumps(ONE_ARC))
        assert cli.main(["check", "--what", what, str(path)]) == EXIT_OK
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("method, loaded", [
        (None, False), ("lp", False), ("mflow", True)])
    def test_solve_loads_only_its_route(self, tmp_path, method, loaded):
        # A fresh process, so earlier imports in this one do not count.
        path = tmp_path / "i.json"
        path.write_text(json.dumps(ONE_ARC))
        argv = ["solve", str(path)] + ([] if method is None else ["--method", method])
        script = ("import contextlib, io, sys\n"
                  "from bbibranch import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = cli.main(sys.argv[1:])\n"
                  "print(code, 'bbibranch.mconvex' in sys.modules,"
                  " 'bbibranch.matroids' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", script] + argv,
                             capture_output=True, text=True)
        assert out.stdout.split() == [str(EXIT_OK), str(loaded), str(loaded)]

    @pytest.mark.parametrize("method", ["lp", "mflow"])
    def test_value_past_the_digit_limit_is_written_in_full(self, tmp_path, capsys,
                                                           method):
        # Two weights of 4300 digits, the interpreter's default limit on
        # converting an int to text, sum to a value of 4301 digits.
        doc = {"vertices": [{"id": "s", "side": "S", "b": 2},
                            {"id": "t", "side": "T", "b": 2}],
               "arcs": [{"tail": "s", "head": "t", "weight": "9" * 4300}] * 2}
        code, result = _cli_result(tmp_path, capsys, doc, "solve", "--method", method)
        assert code == EXIT_OK
        assert result["value"] == "1" + "9" * 4299 + "8"

    def test_lp_route_at_int_iterates_compiles_no_flow_network(
            self, tmp_path, capsys, monkeypatch):
        # Every iterate here is an int point, so each round separates by
        # search and no flow network is compiled.
        compiled, points = [], []
        separate = lpsolve._violated_bicuts

        def separating(instance, x, need=1):
            points.append(x)
            return separate(instance, x, need)

        monkeypatch.setattr(lpsolve, "FlowNetwork",
                            lambda *args: compiled.append(args))
        monkeypatch.setattr(lpsolve, "_violated_bicuts", separating)
        code, result = _cli_result(tmp_path, capsys, SEPARATION_FAULT,
                                   "solve", "--method", "lp")
        assert (code, result["value"]) == (EXIT_OK, "5")
        assert len(points) == 2
        assert all(type(v) is int for x in points for v in x)
        assert compiled == []

    def test_input_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = subprocess.run([sys.executable, "-m", "bbibranch.cli",
                              "solve", str(path)],
                             capture_output=True, text=True)
        assert out.returncode == EXIT_INPUT

    @pytest.mark.parametrize("bad", ["instance", "solution"])
    @pytest.mark.parametrize("content", [b'{"arcs": "\xff"}',
                                         b"[" * 2000 + b"]" * 2000],
                             ids=["not_utf8", "deeply_nested"])
    def test_unreadable_files_are_input_errors(self, tmp_path, capsys, bad,
                                               content):
        files = {"instance": tmp_path / "i.json", "solution": tmp_path / "s.json"}
        files["instance"].write_text(json.dumps(ONE_ARC))
        files["solution"].write_text(json.dumps({"arcs": [0]}))
        files[bad].write_bytes(content)
        code = cli.main(["validate", str(files["instance"]), str(files["solution"])])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("input error: ")

    def test_guard_exit_code(self, tmp_path):
        # brute force on > 20 arcs trips the size guard
        doc = {"vertices": ONE_ARC["vertices"],
               "arcs": [{"tail": "s", "head": "t", "weight": 1}] * 21}
        out = run_cli("solve", "--method", "brute",
                      files={"i.json": doc}, tmp_path=tmp_path)
        assert out.returncode == EXIT_GUARD


def _raise_theorem_violation(instance, method):
    raise TheoremViolation("optima disagree", payload={"method": method})


ONE_REPORT_PATHS = {
    # name: (argv before the file, instance text, patch, exit code, status)
    "ok": (["solve"], json.dumps(ONE_ARC), None, EXIT_OK, "ok"),
    "infeasible": (["solve"], json.dumps(dict(ONE_ARC, arcs=[])), None,
                   EXIT_INFEASIBLE, "infeasible"),
    "theorem_violation": (["solve"], json.dumps(ONE_ARC),
                          (cli, "solve_shortest", _raise_theorem_violation),
                          EXIT_THEOREM, "theorem_violation"),
    "failed_check": (["check", "--what", "mconvex", "--trials", "1"],
                     json.dumps(ONE_ARC),
                     (mconvex, "check_mnat_exchange",
                      lambda evaluator, vertices, x, y: (False, (x, y, "s"))),
                     EXIT_THEOREM, "failed"),
    "unreadable": (["solve"], "{not json", None, EXIT_INPUT, None),
    "guard": (["solve", "--method", "brute"],
              json.dumps(dict(ONE_ARC, arcs=ONE_ARC["arcs"] * 21)), None,
              EXIT_GUARD, None),
}


@pytest.mark.parametrize("name", sorted(ONE_REPORT_PATHS))
def test_each_command_writes_at_most_one_report(tmp_path, capsys, monkeypatch,
                                                 name):
    # main loads the instance and writes the report, each once: an exit with
    # a report (0, 3, 5) prints exactly one JSON object, which echoes argv and
    # the file's hash; input errors and guards (2, 4) print none.
    head, text, patch, code, status = ONE_REPORT_PATHS[name]
    if patch is not None:
        monkeypatch.setattr(*patch)
    path = tmp_path / "i.json"
    path.write_text(text)
    argv = [*head, str(path)]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    if status is None:
        assert out == ""
        return
    report = json.loads(out)  # a second object would be extra data
    assert report["command"] == argv
    assert report["status"] == status
    assert report["instance_hash"] == hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_result(tmp_path, capsys, doc, *argv):
    """Exit code and report result of ``argv[0] <doc file> argv[1:]``."""
    path = tmp_path / "i.json"
    path.write_text(json.dumps(doc))
    code = cli.main([argv[0], str(path), *argv[1:]])
    return code, json.loads(capsys.readouterr().out)["result"]


def _fake_x(monkeypatch, x):
    """Make the first optimal simplex result return x."""
    original = lpsolve.simplex_solve
    faked = []

    def fake(lp):
        result = original(lp)
        if result.status == "optimal" and not faked:
            faked.append(lp)
            result.x = list(x) + [0] * (lp.num_vars - len(x))
        return result

    monkeypatch.setattr(lpsolve, "simplex_solve", fake)
    return faked


class TestLpValuesAsText:
    """LP-derived values are int when integral, but reports write them as
    text either way: a payload x, an exit-5 y and the dual bound."""

    THREE_ARCS = {"vertices": ONE_ARC["vertices"],
                  "arcs": [{"tail": "s", "head": "t", "weight": 1}] * 3}

    def test_fractional_vertex_payload(self, tmp_path, capsys, monkeypatch):
        faked = _fake_x(monkeypatch, [Fraction(1, 2), 1, 0])
        code, result = _cli_result(tmp_path, capsys, self.THREE_ARCS,
                                   "solve", "--method", "lp")
        assert code == EXIT_THEOREM
        assert result["message"] == "vertex of an integral LP is fractional"
        assert result["payload"] == {"lp": lpsolve.dump_lp(faked[0]),
                                     "x": ["1/2", "1", "0"]}

    def test_unviolated_cut_payload(self, tmp_path, capsys, monkeypatch):
        _fake_x(monkeypatch, [Fraction(1, 2), 1, 0])
        monkeypatch.setattr(lpsolve, "_violated_bicuts",
                            lambda instance, x: all_bicuts(instance))
        code, result = _cli_result(tmp_path, capsys, self.THREE_ARCS,
                                   "solve", "--method", "lp")
        assert code == EXIT_THEOREM
        assert result["message"] == "separated bicut is not violated"
        assert result["payload"] == {"U": ["t"], "x": ["1/2", "1", "0"]}

    def test_fractional_unboxed_vertex_payload(self, tmp_path, capsys,
                                               monkeypatch):
        faked = _fake_x(monkeypatch, [Fraction(1, 2), Fraction(1, 2), 0])
        code, result = _cli_result(tmp_path, capsys, self.THREE_ARCS,
                                   "check", "--what", "tdi")
        assert code == EXIT_THEOREM
        assert result["message"] == \
            "unboxed cutting-plane vertex is fractional or violates a bicut"
        assert result["payload"] == {"lp": lpsolve.dump_lp(faked[0]),
                                     "x": ["1/2", "1/2", "0"]}

    def test_cross_free_dual_payload(self, tmp_path, capsys, monkeypatch):
        # The covering LP re-solved over the cross-free family returns a
        # fractional first dual: the payload carries that LP and its y as
        # text, keyed as the cutting plane's payload keys its duals.
        original = lpsolve.simplex_solve
        faked = []

        def halved(lp):
            result = original(lp)
            if sys._getframe(1).f_code.co_name == "tdi_spot_check":
                faked.append(lp)
                result.row_duals[0] = Fraction(1, 2)
            return result

        monkeypatch.setattr(lpsolve, "simplex_solve", halved)
        code, result = _cli_result(tmp_path, capsys,
                                   serialize_instance(uncrossing_instance()),
                                   "check", "--what", "tdi")
        assert code == EXIT_THEOREM
        assert result["message"] == "cross-free dual LP has no integral optimum"
        assert result["payload"]["lp"] == lpsolve.dump_lp(faked[0])
        y = result["payload"]["y"]
        assert y["v:t0"] == "1/2" and len(y) == len(faked[0].rows)
        assert all(isinstance(v, str) for v in y.values())

    def test_dual_bound_and_exit_five_y(self, tmp_path, capsys, monkeypatch):
        code, result = _cli_result(tmp_path, capsys, ONE_ARC, "solve")
        assert code == EXIT_OK
        assert result["value"] == result["certificate"]["dual_bound"] == "5"
        original = lpsolve.simplex_solve

        def inflated(lp):
            res = original(lp)
            res.objective += 1
            return res

        monkeypatch.setattr(lpsolve, "simplex_solve", inflated)
        code, result = _cli_result(tmp_path, capsys, ONE_ARC, "solve")
        assert code == EXIT_THEOREM
        # The LP's weight is the canonical W = 5 * 2 + 1 of w = 5.
        assert result["message"] == \
            "dual bound 11 does not certify the LP optimum 12"
        assert result["payload"]["x"] == [1]
        assert result["payload"]["y"] == {"v:s": "0", "v:t": "11"}


class TestExitFivePayloads:
    """Each forced theorem violation carries the evidence that shows it."""

    @staticmethod
    def _zero_stage_vertices(monkeypatch):
        monkeypatch.setattr(lpsolve, "zero_one_vertex",
                            lambda lp, result: [0] * lp.num_vars)

    def test_decomposition_that_misses_x(self, monkeypatch):
        # x = 2 chi_{s->t}: an empty first class leaves the arc in one class.
        self._zero_stage_vertices(monkeypatch)
        with pytest.raises(TheoremViolation,
                           match="decomposition does not sum to x") as exc:
            lpsolve.decompose(one_arc_instance(), 2, [2])
        assert exc.value.payload == {
            "x": [2], "classes": [frozenset(), frozenset({0})]}

    def test_decomposition_class_that_fails(self, tmp_path, capsys,
                                            monkeypatch):
        # Two parallel arcs pack k = 2; an empty first class fails all four
        # conditions at the only vertices.
        doc = {"vertices": ONE_ARC["vertices"], "arcs": ONE_ARC["arcs"] * 2}
        self._zero_stage_vertices(monkeypatch)
        code, result = _cli_result(tmp_path, capsys, doc, "pack")
        assert code == EXIT_THEOREM
        assert result == {
            "message": "decomposition class is not a b-bibranching",
            "payload": {
                "x": [1, 1], "classes": [[], [0, 1]], "class": 0,
                "failed": {condition: {"ok": False, "witness": v}
                           for condition, v in (
                               ("t_reachable_from_s", "t"),
                               ("s_reaches_t", "s"), ("t_indegree", "t"),
                               ("s_outdegree", "s"))}}}

    def test_mflow_output_that_fails(self, tmp_path, capsys, monkeypatch):
        # The oracles keep their values but lose their witness arcs, so the
        # output holds only the cross arc s -> t1 and misses t1 -> t2.
        original = mconvex.BBranchingOracle.eval_g_witness

        def no_arcs(self, x):
            result = original(self, x)
            return result if result is None else (result[0], frozenset())

        monkeypatch.setattr(mconvex.BBranchingOracle, "eval_g_witness", no_arcs)
        doc = {"vertices": [{"id": v, "side": v[0].upper(), "b": 1}
                            for v in ("s", "t1", "t2")],
               "arcs": [{"tail": "s", "head": "t1", "weight": 1},
                        {"tail": "t1", "head": "t2", "weight": 1}]}
        code, result = _cli_result(tmp_path, capsys, doc,
                                   "solve", "--method", "mflow")
        assert code == EXIT_THEOREM
        assert result == {
            "message": "submodular-flow output is not a b-bibranching",
            "payload": {"arcs": [0], "failed": {
                "t_reachable_from_s": {"ok": False, "witness": "t2"},
                "t_indegree": {"ok": False, "witness": "t2"}}}}

    def test_exchange_case_b_without_t(self, monkeypatch):
        # A search that finds only s itself makes {s} look like a tight
        # source component with no vertex t to compensate at.
        monkeypatch.setattr(Digraph, "reachable_from",
                            lambda self, B, X, reverse=False: frozenset(X))
        D = Digraph(["r", "s"], [("r", "s")])
        with pytest.raises(TheoremViolation,
                           match=r"case \(b\) vertex t missing") as exc:
            mconvex.exchange_b_branchings(D, {"r": 1, "s": 1}, [], [0], "s")
        assert exc.value.payload == {"s": "s", "reaching": frozenset({"s"}),
                                     "B1": frozenset(), "B2": frozenset({0})}


class TestValidateCommand:
    def test_valid_solution(self, tmp_path):
        out = run_cli("validate", files={"i.json": ONE_ARC,
                                         "s.json": {"arcs": [0]}},
                      tmp_path=tmp_path)
        assert out.returncode == EXIT_OK
        report = json.loads(out.stdout)
        assert report["result"]["valid"] is True

    def test_bool_arc_index_rejected(self, tmp_path, capsys):
        # true would otherwise be read as arc 1 of the two arcs.
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"].append({"tail": "s", "head": "t", "weight": 7})
        paths = []
        for name, content in (("i.json", doc), ("s.json", {"arcs": [True]})):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(content))
        code = cli.main(["validate"] + [str(p) for p in paths])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "invalid arc index" in captured.err

    def test_unhashable_arc_index_rejected(self, tmp_path, capsys):
        # An arc index is type-checked before it is hashed.
        paths = []
        for name, content in (("i.json", ONE_ARC), ("s.json", {"arcs": [[0]]})):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(content))
        code = cli.main(["validate"] + [str(p) for p in paths])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == "input error: invalid arc index: [0]\n"

    def test_empty_solution_fails_all_four(self, tmp_path):
        out = run_cli("validate", files={"i.json": ONE_ARC,
                                         "s.json": {"arcs": []}},
                      tmp_path=tmp_path)
        report = json.loads(out.stdout)
        conditions = report["result"]["conditions"]
        assert len(conditions) == 4
        assert all(not entry["ok"] for entry in conditions.values())


class TestPackCommands:
    def test_packing_number(self, tmp_path):
        out = run_cli("packing-number", files={"i.json": ONE_ARC},
                      tmp_path=tmp_path)
        report = json.loads(out.stdout)
        assert report["result"]["k"] == 1
        assert report["result"]["t_min"] == 1
        assert report["result"]["s_min"] == 1
        assert report["result"]["bicut_min"] == 1

    def test_pack_certificate(self, tmp_path):
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"].append({"tail": "s", "head": "t", "weight": 7})
        out = run_cli("pack", files={"i.json": doc}, tmp_path=tmp_path)
        report = json.loads(out.stdout)
        assert report["result"]["k"] == 2
        assert sorted(report["result"]["classes"]) == [[0], [1]]

    # S = {s1, s2, s3} with the 2-cycle s1 <-> s2, T = {t}, packing number
    # 2.  Cross arcs 2-5: s1 -> t, s2 -> t and twice s3 -> t.
    TWO_SIDED = {
        "vertices": [{"id": v, "side": v[0].upper(), "b": 1}
                     for v in ("s1", "s2", "s3", "t")],
        "arcs": [{"tail": tail, "head": head, "weight": 1}
                 for tail, head in (("s1", "s2"), ("s2", "s1"), ("s1", "t"),
                                    ("s2", "t"), ("s3", "t"), ("s3", "t"))],
    }

    def _pack(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(self.TWO_SIDED))
        code = cli.main(["pack", str(path)])
        return code, json.loads(capsys.readouterr().out)["result"]

    @pytest.mark.parametrize("limit, message", [
        ("FAMILY_SIDE_LIMIT", "cut family side limited to 1 vertices"),
        ("PRESCRIBED_ARC_LIMIT", "prescribed packing search limited to 1 arcs")])
    def test_size_guards(self, tmp_path, capsys, monkeypatch, limit, message):
        # pack peels chi_A and reaches no size guard of the paper's
        # construction: with the limit at 1 it still packs TWO_SIDED.  The
        # guard stays on the construction step that owns it: the S-side cut
        # family has 3 vertices, and the S-side prescribed packing searches
        # A[S], the 2 arcs of s1 <-> s2.
        monkeypatch.setattr(packing, limit, 1)
        code, result = self._pack(tmp_path, capsys)
        instance = load_instance_data(self.TWO_SIDED)
        assert code == EXIT_OK and result["k"] == 2
        assert packing.verify_packing(instance, result["classes"])
        view = instance.mirror
        d_S, _ = bibranching.subgraph(view.digraph, view.T)
        steps = {
            "FAMILY_SIDE_LIMIT": lambda: packing.cut_family(view, 2),
            "PRESCRIBED_ARC_LIMIT": lambda: packing.pack_prescribed_b_branchings(
                d_S, {v: 1 for v in view.T}, [dict.fromkeys(view.T, 0)])}
        with pytest.raises(GuardError, match=message):
            steps[limit]()

    def test_pack_runs_no_construction_step(self, tmp_path, capsys,
                                            monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pack reached the paper's construction")

        for name in ("partition_cross_arcs", "cut_family",
                     "pack_prescribed_b_branchings", "split_into_b_branchings"):
            monkeypatch.setattr(packing, name, refuse)
        code, result = self._pack(tmp_path, capsys)
        assert code == EXIT_OK and result["k"] == 2

    def test_medium_instances_pack(self, tmp_path, capsys):
        # The |V| = 14 corpus, then instances with m = 157, 307 and 593:
        # the construction's size guards refused 45 and 3 of them (exit 4).
        # Weights do not change a packing.
        big = 10 ** 6
        instances = [random_instance(random.Random(seed), 4, 10, 0.3, 1, 9,
                                     max_arcs=big) for seed in range(60)]
        instances += [random_instance(random.Random(seed), nS, nT, density, 1,
                                      9, max_arcs=big)
                      for nS, nT, density, seed in ((10, 34, 0.09, 5),
                                                    (12, 48, 0.1, 1),
                                                    (20, 90, 0.06, 3))]
        assert [inst.digraph.num_arcs() for inst in instances[60:]] == \
            [157, 307, 593]
        path = tmp_path / "i.json"
        for inst in instances:
            path.write_text(json.dumps(serialize_instance(inst)))
            code = cli.main(["pack", str(path)])
            result = json.loads(capsys.readouterr().out)["result"]
            assert code == EXIT_OK
            assert result["k"] == packing.packing_number(inst).k == \
                len(result["classes"])
            assert packing.verify_packing(inst, result["classes"])


def _special_id_doc(ids):
    """S vertex ids[0] and T vertices ids[1], ids[2], packing number 2."""
    s, t, x = ids
    return {"vertices": [{"id": v, "side": "S" if v == s else "T", "b": 1}
                         for v in ids],
            "arcs": [{"tail": tail, "head": head, "weight": w}
                     for (tail, head), w in zip(
                         [(s, t), (s, t), (s, x), (t, x), (x, t)],
                         [3, 1, 4, 1, 5])]}


class TestVertexIds:
    # The max-flow networks add nodes of their own; a vertex may carry any
    # string id, including "src*" and "snk*".  Each renamed copy keeps the
    # sorted order of the ids, so its report is the same up to the name.
    @pytest.mark.parametrize("ids, renamed", [
        (("s", "src*", "x"), "sr"), (("snk*", "t", "x"), "sn")])
    @pytest.mark.parametrize("command", [
        ("solve",), ("solve", "--method", "lp"), ("packing-number",),
        ("pack",), ("check", "--what", "idp")])
    def test_reports_match_a_renamed_copy(self, tmp_path, capsys, ids,
                                          renamed, command):
        name = next(v for v in ids if v.endswith("*"))
        results = []
        for doc_ids in (ids, tuple(renamed if v == name else v for v in ids)):
            path = tmp_path / "i.json"
            path.write_text(json.dumps(_special_id_doc(doc_ids)))
            code = cli.main([command[0], str(path), *command[1:]])
            captured = capsys.readouterr()
            assert code == EXIT_OK, captured.err
            results.append(json.dumps(json.loads(captured.out)["result"],
                                      sort_keys=True))
        assert results[0].replace(name, renamed) == results[1]


class TestCheckCommand:
    @pytest.mark.parametrize("what", ["tdi", "mconvex", "exchange", "idp"])
    def test_checks_pass_on_small_instance(self, tmp_path, what):
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"].append({"tail": "s", "head": "t", "weight": 2})
        out = run_cli("check", "--what", what, "--trials", "10",
                      files={"i.json": doc}, tmp_path=tmp_path)
        assert out.returncode == EXIT_OK, out.stdout + out.stderr
        report = json.loads(out.stdout)
        assert report["result"]["passed"] is True

    @pytest.mark.parametrize("what", ["mconvex", "exchange"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_must_be_positive(self, tmp_path, capsys, what, trials):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(ONE_ARC))
        code = cli.main(["check", "--what", what, "--trials", trials, str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == "input error: --trials must be at least 1\n"

    def test_tdi_on_infeasible_instance_reports_witness(self, tmp_path, capsys):
        # u has no in-arc, so even the unboxed degree + bicut LP is infeasible.
        doc = {"vertices": ONE_ARC["vertices"] + [{"id": "u", "side": "T",
                                                    "b": 1}],
               "arcs": ONE_ARC["arcs"]}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "tdi", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_INFEASIBLE
        assert report["status"] == "infeasible"
        assert report["result"]["witness"] == {
            "condition": "t_reachable_from_s", "witness": "u"}

    @pytest.mark.parametrize("doc", [
        SEPARATION_FAULT,
        # Only one reachability condition fails: a 2-cycle of weight 0
        # inside S that reaches T by an arc of weight 5 only, or the same
        # inside T.
        {"vertices": [{"id": v, "side": v[0].upper(), "b": 1}
                      for v in ("s1", "s2", "s3", "t1")],
         "arcs": [{"tail": t, "head": h, "weight": w}
                  for t, h, w in (("s1", "t1", 0), ("s2", "s3", 0),
                                  ("s3", "s2", 0), ("s2", "t1", 5))]},
        {"vertices": [{"id": v, "side": v[0].upper(), "b": 1}
                      for v in ("s1", "t1", "t2", "t3")],
         "arcs": [{"tail": t, "head": h, "weight": w}
                  for t, h, w in (("s1", "t1", 0), ("t2", "t3", 0),
                                  ("t3", "t2", 0), ("s1", "t2", 5))]},
    ], ids=["both", "s_reaches_t", "t_reachable_from_s"])
    def test_tdi_separation_fault_is_a_theorem_violation(self, tmp_path, capsys,
                                                         monkeypatch, doc):
        # Without bicut rows the unboxed degree LP's optimum 0 takes the
        # 2-cycles of weight 0, and its dual would certify 0; the vertex's
        # support fails a reachability condition, so it violates a bicut.
        monkeypatch.setattr(lpsolve, "_violated_bicuts", lambda instance, x: [])
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        lp = lpsolve._build_degree_lp(load_instance_data(doc), boxed=False)
        assert cli.main(["check", "--what", "tdi", str(path)]) == EXIT_THEOREM
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["message"] == \
            "unboxed cutting-plane vertex is fractional or violates a bicut"
        assert result["payload"] == {
            "lp": lpsolve.dump_lp(lp),
            "x": ["1"] * (len(doc["arcs"]) - 1) + ["0"]}

    def test_tdi_past_ten_vertices_uncrosses_a_fractional_dual(self, tmp_path,
                                                                capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(serialize_instance(uncrossing_instance())))
        code = cli.main(["check", "--what", "tdi", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        detail = json.loads(captured.out)["result"]["detail"]
        assert detail["uncrossing_steps"] >= 1
        assert detail["primal"] == detail["dual"]["objective"] == "123"
        assert all("/" not in val for val in detail["dual"]["y"].values())

    def test_tdi_requires_integer_weights(self, tmp_path, capsys):
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"][0]["weight"] = "1/2"
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "tdi", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == \
            "input error: TDI spot check requires integer weights\n"

    def test_tdi_passes_without_a_b_bibranching(self, tmp_path, capsys):
        # b(s) = 2 with one arc: no b-bibranching, but the unboxed LP takes
        # x = 2, so the check passes with primal 2 w.
        doc = json.loads(json.dumps(ONE_ARC))
        doc["vertices"][0]["b"] = 2
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "tdi", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert report["result"]["passed"] is True
        assert report["result"]["detail"]["primal"] == "10"

    def test_exchange_that_samples_nothing_is_a_guard(self, tmp_path, capsys):
        # With no arcs every b-branching is empty, so no pair has a vertex
        # with d_B1 < d_B2 and nothing is checked.
        doc = {"vertices": ONE_ARC["vertices"], "arcs": []}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "exchange", "--trials", "3",
                         str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_GUARD
        assert captured.out == ""
        assert "no pair of b-branchings sampled in 150 attempts" in captured.err

    def test_mconvex_without_arcs_checks_every_pair(self, tmp_path, capsys):
        # With no arcs f(x) is finite only at x = b, the one point of the
        # form b - d_B; the exchange still holds on every sampled pair.
        doc = {"vertices": [{"id": "v%d" % i, "side": "S" if i < 4 else "T",
                             "b": 1} for i in range(8)],
               "arcs": []}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "mconvex", "--trials", "3",
                         str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert report["result"]["detail"] == {"trials": {"f": 3, "g": 3}}

    def test_mconvex_reports_pairs_checked_per_function(self, tmp_path,
                                                       capsys):
        # Every sampled point lies in its function's domain, so both
        # functions check all three pairs on digest draw i01.
        instance = next(itertools.islice(digest_draws(), 1, None))
        path = tmp_path / "i01.json"
        path.write_text(json.dumps(serialize_instance(instance)))
        code = cli.main(["check", "--what", "mconvex", "--trials", "3",
                         "--seed", "0", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert report["result"]["detail"] == {"trials": {"f": 3, "g": 3}}

    def test_idp_runs_past_twelve_vertices_a_side(self, tmp_path, capsys):
        # The bicut rows are separated, so no side size is refused: one S
        # vertex with an arc to each of 13 T vertices decomposes.
        t_ids = ["t%02d" % i for i in range(13)]
        assert len(t_ids) > packing.FAMILY_SIDE_LIMIT
        doc = {"vertices": [{"id": v, "side": "S" if v == "s" else "T",
                             "b": 1} for v in ["s"] + t_ids],
               "arcs": [{"tail": "s", "head": t, "weight": 1} for t in t_ids]}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "idp", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert report["result"]["detail"] == {"k": 3,
                                              "classes": [list(range(13))] * 3}

    def test_idp_unviolated_upper_cut_is_a_theorem_violation(
            self, tmp_path, capsys, monkeypatch):
        # With k = 3 only the first stage's upper separation asks for 2;
        # faked, it returns the bicut {t}, which x - y already meets twice.
        # The default seed draws x = (2, 1), and that stage peels y = (1, 0).
        original = lpsolve._violated_bicuts
        monkeypatch.setattr(
            lpsolve, "_violated_bicuts",
            lambda instance, x, need=1: all_bicuts(instance)
            if need == 2 else original(instance, x, need))
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"].append({"tail": "s", "head": "t", "weight": 2})
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "idp", "--trials", "3",
                         str(path)])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == EXIT_THEOREM
        assert result == {"message": "separated bicut is not violated",
                          "payload": {"U": ["t"], "x": ["1", "0"]}}

    def test_mconvex_counterexample_is_a_theorem_violation(self, tmp_path,
                                                             capsys,
                                                             monkeypatch):
        # -f and -g are not M-natural convex: on digest draw i01 (which
        # passes unpatched) the third g pair fails at u = t2.
        for name in ("eval_f", "eval_g"):
            real = getattr(mconvex.BBranchingOracle, name)
            monkeypatch.setattr(
                mconvex.BBranchingOracle, name,
                lambda self, x, real=real: None if real(self, x) is None
                else -real(self, x))
        instance = next(itertools.islice(digest_draws(), 1, None))
        path = tmp_path / "i01.json"
        path.write_text(json.dumps(serialize_instance(instance)))
        code = cli.main(["check", "--what", "mconvex", "--trials", "3",
                         "--seed", "0", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_THEOREM
        assert report["status"] == "failed"
        assert report["result"]["detail"] == {
            "function": "g",
            "counterexample": [{"s0": 1, "s1": 0, "t0": 1, "t1": 2, "t2": 3},
                               {"s0": 1, "s1": 1, "t0": 1, "t1": 1, "t2": 1},
                               "t2"]}

    def run_faked_exchange(self, tmp_path, capsys, monkeypatch, doc, drawn,
                           answer):
        """check --what exchange on one pair: B1, B2 = drawn, and the
        exchange lemma replaced by one that returns answer."""
        drawn = iter(drawn)
        monkeypatch.setattr(cli, "_random_b_branching",
                            lambda rng, digraph, b: next(drawn))
        monkeypatch.setattr(mconvex, "exchange_b_branchings",
                            lambda digraph, b, B1, B2, s: answer)
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "exchange", "--trials", "1",
                         str(path)])
        return code, json.loads(capsys.readouterr().out)

    # a in S and x, y, z in T, b = 2; arcs 0 a->x, 1 a->y, 2 x->y, 3 y->z,
    # 4 z->x.  B1 = {a->y, y->z}, B2 = {a->x, x->y, z->x}: only x has
    # d1 < d2, so s = x.
    EXCHANGE_DOC = {
        "vertices": [{"id": v, "side": "S" if v == "a" else "T", "b": 2}
                     for v in "axyz"],
        "arcs": [{"tail": t, "head": h, "weight": 1}
                 for t, h in ("ax", "ay", "xy", "yz", "zx")]}
    EXCHANGE_DRAWN = (frozenset({1, 3}), frozenset({0, 2, 4}))

    def test_exchange_case_b_degrees_checked(self, tmp_path, capsys,
                                            monkeypatch):
        # The fake answer keeps union and intersection and is two
        # b-branchings, but its degrees differ from the shifted ones at
        # both y and z.
        code, report = self.run_faked_exchange(
            tmp_path, capsys, monkeypatch, self.EXCHANGE_DOC,
            self.EXCHANGE_DRAWN, (frozenset({0, 1, 2}), frozenset({3, 4}), "b"))
        assert code == EXIT_THEOREM
        assert report["status"] == "failed"
        assert report["result"]["detail"] == {"stage": "degrees", "s": "x",
                                              "case": "b"}

    @pytest.mark.parametrize("B1p, B2p, case, passed", [
        # The pair unchanged: no unit moves at s.
        ({1, 3}, {0, 2, 4}, "a", False),
        # One unit moves at s = x and one back at t = z: case (b) only.
        ({0, 1}, {2, 3, 4}, "a", False),
        ({0, 1}, {2, 3, 4}, "b", True),
    ], ids=["unchanged", "t_shift_as_a", "t_shift_as_b"])
    def test_exchange_shift_must_match_case(self, tmp_path, capsys,
                                            monkeypatch, B1p, B2p, case,
                                            passed):
        code, report = self.run_faked_exchange(
            tmp_path, capsys, monkeypatch, self.EXCHANGE_DOC,
            self.EXCHANGE_DRAWN, (frozenset(B1p), frozenset(B2p), case))
        if passed:
            assert code == EXIT_OK
            assert report["result"]["detail"] == {"trials": 1,
                                                  "cases": {"a": 0, "b": 1}}
        else:
            assert code == EXIT_THEOREM
            assert report["result"]["detail"] == {"stage": "degrees",
                                                  "s": "x", "case": case}

    def test_exchange_answer_must_be_b_branchings(self, tmp_path, capsys,
                                                 monkeypatch):
        # b = 1 on a in S and x, y in T; arcs 0 a->x, 1 x->y, 2 y->x, 3 a->y.
        # B1 = {a->x}, B2 = {y->x, a->y}: s = y.  The answer's B1' is the
        # 2-cycle x <-> y, which is no branching.
        doc = {"vertices": [{"id": v, "side": "S" if v == "a" else "T",
                             "b": 1} for v in "axy"],
               "arcs": [{"tail": t, "head": h, "weight": 1}
                        for t, h in ("ax", "xy", "yx", "ay")]}
        code, report = self.run_faked_exchange(
            tmp_path, capsys, monkeypatch, doc,
            (frozenset({0}), frozenset({2, 3})),
            (frozenset({1, 2}), frozenset({0, 3}), "a"))
        assert code == EXIT_THEOREM
        assert report["result"]["detail"] == {"stage": "branchings", "s": "y",
                                              "case": "a"}

    def test_idp_keeps_every_cross_arc_in_every_class(self, tmp_path,
                                                      capsys):
        # Each s needs outdegree 2, so the only b-bibranching is all four
        # arcs and x = 3 on every arc splits into three copies of it.
        doc = {"vertices": [{"id": v, "side": "S" if v[0] == "s" else "T",
                             "b": 2 if v[0] == "s" else 1}
                            for v in ("s0", "s1", "t0", "t1")],
               "arcs": [{"tail": s, "head": t, "weight": 1}
                        for s in ("s0", "s1") for t in ("t0", "t1")]}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--what", "idp", "--trials", "3",
                         str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert report["result"]["detail"] == {"k": 3,
                                              "classes": [[0, 1, 2, 3]] * 3}

    def test_idp_peels_classes_that_differ(self, tmp_path, capsys):
        # Each drawn b-bibranching is the cheaper of two parallel arcs under
        # weights drawn from --seed.  Some seeds draw the same arc twice and
        # some draw both, so x = (1, 1) and the two classes differ.
        doc = json.loads(json.dumps(ONE_ARC))
        doc["arcs"].append({"tail": "s", "head": "t", "weight": 2})
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        seen = set()
        for seed in range(6):
            code = cli.main(["check", "--what", "idp", "--trials", "2",
                             "--seed", str(seed), str(path)])
            report = json.loads(capsys.readouterr().out)
            assert code == EXIT_OK
            seen.add(tuple(map(tuple, report["result"]["detail"]["classes"])))
        assert ((0,), (1,)) in seen and ((0,), (0,)) in seen


class TestGenCommand:
    def test_deterministic_bytes(self):
        args = ["gen", "--seed", "9", "--nS", "2", "--nT", "2",
                "--arc-density", "0.7", "--bmax", "2", "--wmax", "9"]
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == EXIT_OK
        assert first.stdout == second.stdout

    def test_output_loads_and_respects_sides(self):
        out = run_cli("gen", "--seed", "3", "--nS", "2", "--nT", "3",
                      "--arc-density", "0.8")
        doc = json.loads(out.stdout)
        inst = load_instance_data(doc)
        assert len(inst.S) == 2 and len(inst.T) == 3

    def test_density_zero_gives_no_arcs(self):
        out = run_cli("gen", "--seed", "1", "--nS", "1", "--nT", "1",
                      "--arc-density", "0")
        doc = json.loads(out.stdout)
        assert doc["arcs"] == []

    def test_degenerate_parameters_rejected(self):
        out = run_cli("gen", "--seed", "1", "--nS", "0", "--nT", "1")
        assert out.returncode == EXIT_INPUT

    def test_arc_count_within_expectation_bounds(self):
        # 20 seeds at density 1/2 over 8 possible arc slots: the total count
        # must stay within 4 standard deviations of the binomial mean.
        total = 0
        slots_per = 2 * 1 + 2 + 1 * 0  # s-s pairs + s-t pairs (nS=2, nT=1)
        for seed in range(20):
            out = run_cli("gen", "--seed", str(seed), "--nS", "2", "--nT", "1",
                          "--arc-density", "0.5")
            total += len(json.loads(out.stdout)["arcs"])
        n = 20 * 4  # 2 s-s ordered pairs + 2 s-t pairs per instance
        mean = n / 2
        sigma = (n * 0.25) ** 0.5
        assert abs(total - mean) <= 4 * sigma


class TestReportDeterminism:
    def test_solve_reports_are_byte_identical(self, tmp_path):
        first = run_cli("solve", files={"i.json": ONE_ARC}, tmp_path=tmp_path)
        second = run_cli("solve", files={"i.json": ONE_ARC}, tmp_path=tmp_path)
        assert first.stdout == second.stdout
