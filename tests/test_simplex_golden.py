"""Golden simplex results: a change to ``simplex_solve`` must keep every value.

Seeded random LPs (``conftest.random_lp``) draw min and max LPs, a max
posed as min of -c, with rows bounded below, above or fixed (lo = hi),
negative bounds, rational coefficients, lower bounds, finite and fixed
upper bounds, and redundant rows (copies, negated copies and sums of
earlier rows).  For every LP the status, ``x``, ``objective``,
``row_duals`` and ``bound_duals``, written in the drawn sense (a max LP's
objective and duals negated back), must equal the values recorded in
``simplex_golden.json``; when several optima exist, this pins the one the
dual simplex's Bland rule reaches.  An LP with no dual-feasible start (a
negative cost on a column with no upper bound) is recorded as its
``InputError``.

A second set holds LPs shaped like the ones the commands solve, built from
the forty report-digest draws (``conftest.digest_draws``): the boxed
degree LP of ``_build_degree_lp`` with every ``conftest.all_bicuts`` row,
the TDI check's covering LP over ``conftest._dual_family``
(``conftest.covering_lp``), and the packing stage systems of
``build_system`` (on the instance and on its mirror, stages max(k, 2) down
to 2 for packing number k, on the whole cross-arc set) as
``find_integral_point`` poses them.  Last come the LPs ``decompose``
solves as ``pack`` runs it, peeling chi_A of every draw with packing
number k >= 2 into k classes: one ranged row per degree row, bounds
fixing at 0 the arcs already peeled, and lower and upper bicut rows, each
LP copied as it stood at that solve.  Then the fourteen LPs that
``tdi_spot_check`` solves, the rounds of its unboxed cutting plane, on one
draw shaped like the ``solve-sparse`` pool (|S| = 4, |T| = 10, b = 1, m =
59): 34 of their 312 pivots have an entry other than +-1.  Their results
are recorded in ``simplex_golden_production.json``.

The recorded files are rewritten by ``python tests/test_simplex_golden.py``
(with ``src`` and ``tests`` on ``PYTHONPATH``); do that only for a change
that means to alter simplex results or the LPs those builders produce,
and say so.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

from bbibranch import lpsolve
from bbibranch.errors import InputError
from bbibranch.lpsolve import (RationalLP, _build_degree_lp, decompose,
                               simplex_solve, tdi_spot_check)
from bbibranch.packing import build_system, packing_number
from bbibranch.rationals import rat_str

from conftest import (_dual_family, all_bicuts, covering_lp, digest_draws,
                      duality_failure, random_instance, random_lp)

GOLDEN = Path(__file__).resolve().parent / "simplex_golden.json"
PRODUCTION = Path(__file__).resolve().parent / "simplex_golden_production.json"
SEED = 5005
COUNT = 400


def _text(values):
    return None if values is None else [
        None if v is None else rat_str(v) for v in values]


def record(lp, sign=1) -> list:
    """One LP's result as JSON-ready strings, or its rejection; with sign
    -1, of the max LP that ``lp`` poses as min of -c, so its objective and
    duals negated."""
    try:
        result = simplex_solve(lp)
    except InputError as exc:
        return ["InputError", str(exc)]

    def signed(values):
        return None if values is None else [None if v is None else sign * v
                                            for v in values]

    return [result.status, _text(result.x),
            None if result.objective is None else rat_str(sign * result.objective),
            _text(signed(result.row_duals)), _text(signed(result.bound_duals))]


def golden_records() -> list:
    rng = random.Random(SEED)
    return [record(*random_lp(rng)) for _ in range(COUNT)]


def solved_lps(run, *args):
    """Every LP that ``run(*args)`` solves, copied as it stood at each
    solve, in solve order."""
    seen = []

    def recording(lp):
        snapshot = copy.copy(lp)
        snapshot.rows = list(lp.rows)
        snapshot.lower, snapshot.upper = list(lp.lower), list(lp.upper)
        seen.append(snapshot)
        return simplex_solve(lp)

    lpsolve.simplex_solve = recording
    try:
        run(*args)
    finally:
        lpsolve.simplex_solve = simplex_solve
    return seen


def production_lps():
    """The production-shaped LPs of every digest draw, in a fixed order."""
    draws = list(digest_draws())
    for instance in draws:
        lp = _build_degree_lp(instance, boxed=True)
        for _, cut in all_bicuts(instance):
            lp.add_row({a: 1 for a in cut}, 1, None)
        yield lp
        yield covering_lp(instance, _dual_family(instance))
        k = packing_number(instance).k
        for stage in range(max(k, 2), 1, -1):
            systems = [build_system(view, stage)
                       for view in (instance, instance.mirror)]
            arcs = systems[0].var_arcs
            col = {a: j for j, a in enumerate(arcs)}
            lp = RationalLP(len(arcs), [1] * len(arcs))
            for j in range(len(arcs)):
                lp.set_bounds(j, 0, 1)
            for system in systems:
                for coeffs, lo, hi, _ in system.rows:
                    lp.add_row({col[a]: c for a, c in coeffs.items()}, lo, hi)
            yield lp
    for instance in draws:
        k = packing_number(instance).k
        if k >= 2:
            yield from solved_lps(decompose, instance, k,
                                  [1] * instance.digraph.num_arcs())
    yield from solved_lps(tdi_spot_check, random_instance(
        random.Random(62), 4, 10, 0.42, 1, 50, max_arcs=66))


def production_records() -> list:
    return [record(lp) for lp in production_lps()]


def golden_lps() -> list:
    """Every golden LP: the random ones, then the production-shaped ones."""
    rng = random.Random(SEED)
    return [random_lp(rng)[0] for _ in range(COUNT)] + list(production_lps())


def _assert_matches(found, path):
    recorded = json.loads(path.read_text())
    assert len(found) == len(recorded)
    for index, (got, want) in enumerate(zip(found, recorded)):
        assert got == want, "LP %d" % index


def test_simplex_matches_recorded_results():
    found = golden_records()
    statuses = {entry[0] for entry in found}
    assert statuses == {"optimal", "infeasible", "InputError"}
    _assert_matches(found, GOLDEN)


def test_production_shape_lps_match_recorded_results():
    found = production_records()
    statuses = {entry[0] for entry in found}
    assert statuses == {"optimal", "infeasible"}
    _assert_matches(found, PRODUCTION)


def test_results_are_int_exactly_when_integral():
    # The number rule: every x, row dual, bound dual and objective is an
    # int when integral and a Fraction with denominator > 1 otherwise.
    kinds = set()
    for index, (lp, result) in enumerate(solved_goldens()):
        values = [result.objective, *(result.x or ()), *(result.row_duals or ()),
                  *(result.bound_duals or ())]
        for value in values:
            if value is not None:
                kinds.add(type(value))
                assert type(value) is int or (type(value) is Fraction
                                              and value.denominator > 1), index
    assert kinds == {int, Fraction}


def solved_goldens():
    """(LP, result) of every golden with a dual-feasible start, in
    ``golden_lps`` order."""
    out = []
    for lp in golden_lps():
        try:
            out.append((lp, simplex_solve(lp)))
        except InputError:
            pass
    return out


def optimal_results():
    """(LP, result) of every optimal golden, in ``golden_lps`` order."""
    return [(lp, result) for lp, result in solved_goldens()
            if result.status == "optimal"]


def test_every_optimal_golden_certifies_by_duality():
    pairs = optimal_results()
    assert len(pairs) == 331
    assert [index for index, (lp, result) in enumerate(pairs)
            if duality_failure(lp, result)] == []


def test_duality_check_rejects_planted_faults():
    # Each fault, planted in every optimal golden where it applies, is
    # named: a nonzero dual of a row with one finite bound with its sign
    # flipped, an x entry with a nonzero cost moved by 1, and the objective
    # off by 1.  (A dual of a row with two finite bounds may take either
    # sign, and a flipped one can still certify the optimum, so it is not
    # planted.)
    named = {"row dual": set(), "x": set(), "objective": set()}
    for lp, result in optimal_results():
        for i, v in enumerate(result.row_duals):
            if v and (lp.rows[i][1] is None) != (lp.rows[i][2] is None):
                duals = list(result.row_duals)
                duals[i] = -v
                named["row dual"].add(duality_failure(
                    lp, dataclasses.replace(result, row_duals=duals)))
        for j, c in enumerate(lp.objective):
            if c:
                x = list(result.x)
                x[j] += 1
                named["x"].add(duality_failure(lp, dataclasses.replace(result, x=x)))
        named["objective"].add(duality_failure(
            lp, dataclasses.replace(result, objective=result.objective + 1)))
    assert named == {"row dual": {"dual signs"}, "x": {"primal"},
                     "objective": {"primal"}}


def _write(path, records):
    path.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in records)
                    + "\n]\n")
    print("wrote %d results to %s" % (len(records), path))


if __name__ == "__main__":
    _write(GOLDEN, golden_records())
    _write(PRODUCTION, production_records())
