"""The benchmark tracer still finds, and still reads, what it wraps.

``perfbench/tracing.py`` records per-layer spans by wrapping functions of
``bbibranch`` by name, and its constructor raises ``LookupError`` when one
of them is gone.  Constructing it resolves every target without installing
a wrapper, so a refactor that would break traced benchmark runs fails here.
Its hooks also read results: ``CuttingPlaneResult.bicut_rows`` and
``.fallback_triggered``, and the ``(result, rounds)`` pair of
``lpsolve._solve_with_cuts``.  So the commands also run traced, and must
print what they print untraced.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from bbibranch import cli
from bbibranch.lpsolve import solve_primal_cutting_plane
from bbibranch.packing import packing_number

from conftest import digest_draws, random_instance, serialize_instance

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

COMMANDS = [["solve", "--method", "lp"], ["solve", "--method", "mflow"],
            ["pack"], ["packing-number"]] + [
    ["check", "--what", what, "--trials", "3"]
    for what in ("tdi", "idp", "mconvex", "exchange")]


def _tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracer_resolves_every_target():
    tracer = _tracing().Tracer()
    assert tracer._patches
    for holder, attr, original, _wrapper in tracer._patches:
        assert getattr(holder, attr) is original


def _draws():
    """Digest draw 35, the largest with k >= 2 (its LP needs no bicut row),
    and a seeded draw with k = 2 whose LP needs one."""
    draw = list(digest_draws())[35]
    rng = random.Random(198)
    cut = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                          rng.uniform(0.4, 0.9), 1, 9, max_arcs=12,
                          extra_cross=rng.randint(1, 3))
    return [pytest.param(draw, id="digest-35"), pytest.param(cut, id="bicut-row")]


@pytest.mark.parametrize("instance", _draws())
def test_traced_commands_print_what_untraced_ones_do(instance, tmp_path):
    assert packing_number(instance).k >= 2
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(serialize_instance(instance)))
    tracer = _tracing().Tracer()
    for n, command in enumerate(COMMANDS):
        argv = command[:1] + [str(path)] + command[1:]
        untraced = _run(argv)
        before = tracer.counts.copy()
        tracer.install()
        try:
            tracer.begin_op(n)
            traced = _run(argv)
            tracer.end_op()
        finally:
            tracer.uninstall()
        assert traced == untraced, argv
        if command[:3] == ["solve", "--method", "lp"]:
            work = tracer.counts - before
            rows, rounds = work["lpsolve.bicut_rows"], work["lpsolve.cp_rounds"]
            result = solve_primal_cutting_plane(instance)
            assert (rows, rounds) == (len(result.bicut_rows), result.rounds)
    assert tracer.counts["lpsolve.cp_rounds"] > 0
    assert "lpsolve.separation" in tracer.names
