"""Golden report digests: a refactor must leave every CLI report unchanged.

Eighty seeded instances are written to files with bare names and run
in-process through ``cli.main`` with six commands each: forty with extra
cross arcs (``conftest.digest_draws``, files ``iNN.json``) and forty
sparse ones whose ``solve`` often adds bicut rows (``conftest.bicut_draws``,
files ``bNN.json``).  The SHA-256 of the exit code,
stdout and stderr of every call must equal the value recorded in
``report_digests.json``.  Reports echo the instance path, so the calls run
from the test's temporary directory.

The recorded file is rewritten by ``python tests/test_report_digests.py``
(with ``src`` and ``tests`` on ``PYTHONPATH``); do that only for a change
that means to alter reports, and say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from bbibranch import cli
from bbibranch.lpsolve import solve_primal_cutting_plane

from conftest import bicut_draws, digest_draws, serialize_instance

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
COMMANDS = (
    ("solve",),
    ("solve", "--method", "mflow"),
    ("packing-number",),
    ("pack",),
    ("check", "--what", "exchange", "--trials", "5", "--seed", "3"),
    ("check", "--what", "tdi"),
)
DRAWS = (("i", digest_draws), ("b", bicut_draws))


def run_digest(argv) -> tuple[int, str, str]:
    """(exit code, stdout, digest) of one in-process ``cli.main`` call; the
    digest is the SHA-256 of its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = "%d\0%s\0%s" % (code, out.getvalue(), err.getvalue())
    return code, out.getvalue(), hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests(directory: Path) -> tuple[dict[str, str], list]:
    """Digest of every (instance, command) call, and each call's instance,
    command, exit code and stdout."""
    digests = {}
    calls = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for prefix, draws in DRAWS:
            for i, instance in enumerate(draws()):
                name = "%s%02d.json" % (prefix, i)
                Path(name).write_text(json.dumps(serialize_instance(instance)))
                for command in COMMANDS:
                    code, out, digest = run_digest(command[:1] + (name,) + command[1:])
                    digests["%s %s" % (name, " ".join(command))] = digest
                    calls.append((instance, command, code, out))
    finally:
        os.chdir(cwd)
    return digests, calls


def test_reports_match_recorded_digests(tmp_path):
    digests, calls = report_digests(tmp_path)
    # The draws cover an infeasible solve and TDI check, and a packing of two
    # or more b-bibranchings on a draw with some b(v) = 2, where a peeled
    # class must also take within-side arcs.
    for infeasible in (("solve",), ("check", "--what", "tdi")):
        assert any(command == infeasible and code == cli.EXIT_INFEASIBLE
                   for _, command, code, _ in calls)
    assert any(command == ("pack",) and code == cli.EXIT_OK
               and json.loads(out)["result"]["k"] >= 2
               and 2 in instance.b.values()
               for instance, command, code, out in calls)
    # At least three feasible solves add bicut rows, so the order and choice
    # of the rows the cutting plane adds reach the digests.
    assert sum(1 for instance, command, code, _ in calls
               if command == ("solve",) and code == cli.EXIT_OK
               and solve_primal_cutting_plane(instance).bicut_rows) >= 3
    recorded = json.loads(DIGESTS.read_text())
    assert digests == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found, _ = report_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(found), DIGESTS))
