"""Golden simplex results: a change to ``simplex_solve`` must keep every value.

Seeded random LPs mix both senses, all three relations, negative
right-hand sides, rational coefficients, lower bounds, finite and fixed
upper bounds, and redundant rows (copies, negated copies and sums of
earlier rows).  Among them are LPs that leave an artificial variable
basic at level zero after phase 1, both where it can be pivoted out and
where its row has no other nonzero and is dropped.  For every LP the
status, ``x``, ``objective``, ``row_duals`` and ``bound_duals`` must equal
the values recorded in ``simplex_golden.json``; when several optima
exist, this pins the one Bland's rule reaches.

The recorded file is rewritten by ``python tests/test_simplex_golden.py``
(with ``src`` on ``PYTHONPATH``); do that only for a change that means to
alter simplex results, and say so.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from bbibranch.lpsolve import RationalLP, simplex_solve
from bbibranch.rationals import Q, rat_str

GOLDEN = Path(__file__).resolve().parent / "simplex_golden.json"
SEED = 5005
COUNT = 400


def _coefficient(rng):
    if rng.random() < 0.15:
        return Q(rng.randint(-5, 5), rng.randint(2, 3))
    return Q(rng.randint(-3, 4))


def random_lp(rng) -> RationalLP:
    """Rows mostly hold at a random point within the bounds; some LPs draw
    their right-hand sides freely and are usually infeasible."""
    n = rng.randint(1, 5)
    lp = RationalLP(n, [rng.randint(-3, 5) for _ in range(n)],
                    rng.choice(("min", "max")))
    point = []
    for j in range(n):
        lower = rng.choice((0, 0, 0, 1, -1, 2))
        draw = rng.random()
        width = None if draw < 0.3 else 0 if draw < 0.45 else rng.randint(1, 4)
        lp.set_bounds(j, lower, None if width is None else lower + width)
        point.append(lower + rng.randint(0, 3 if width is None else width))
    free_rhs = rng.random() < 0.2
    for _ in range(rng.randint(0, 5)):
        coeffs = {j: _coefficient(rng) for j in range(n) if rng.random() < 0.7}
        rel = rng.choice(("<=", ">=", "="))
        if free_rhs:
            rhs = rng.randint(-4, 8)
        else:
            rhs = sum((c * point[j] for j, c in coeffs.items()), Q(0))
            rhs += {"<=": 1, ">=": -1, "=": 0}[rel] * rng.randint(0, 2)
        lp.add_row(coeffs, rel, rhs)
    for _ in range(rng.randint(0, 2)):
        if not lp.rows:
            break
        coeffs, rel, rhs = rng.choice(lp.rows)
        if rng.random() < 0.5:
            factor = rng.choice((1, -1, 2))
            flipped = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            lp.add_row({j: factor * c for j, c in coeffs.items()},
                       rel if factor > 0 else flipped, factor * rhs)
        else:
            other, rel2, rhs2 = rng.choice(lp.rows)
            if rel == rel2:
                total = {j: coeffs.get(j, 0) + other.get(j, 0)
                         for j in set(coeffs) | set(other)}
                lp.add_row(total, rel, rhs + rhs2)
    return lp


def _text(values):
    return None if values is None else [
        None if v is None else rat_str(v) for v in values]


def record(result) -> list:
    """One LP's result as JSON-ready strings."""
    return [result.status, _text(result.x),
            None if result.objective is None else rat_str(result.objective),
            _text(result.row_duals), _text(result.bound_duals)]


def golden_records() -> list:
    rng = random.Random(SEED)
    return [record(simplex_solve(random_lp(rng))) for _ in range(COUNT)]


def test_simplex_matches_recorded_results():
    found = golden_records()
    statuses = {entry[0] for entry in found}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    recorded = json.loads(GOLDEN.read_text())
    assert len(found) == len(recorded)
    for index, (got, want) in enumerate(zip(found, recorded)):
        assert got == want, "LP %d" % index


if __name__ == "__main__":
    records = golden_records()
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in records)
                      + "\n]\n")
    print("wrote %d results to %s" % (len(records), GOLDEN))
