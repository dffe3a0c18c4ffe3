"""Golden report digests: a refactor must leave every CLI report unchanged.

Forty seeded instances (``conftest.digest_draws``, with extra cross arcs)
are written to files with bare names and run in-process through
``cli.main`` with six commands each.  The SHA-256 of the exit code,
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

from conftest import digest_draws, serialize_instance

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
COMMANDS = (
    ("solve",),
    ("solve", "--method", "mflow"),
    ("packing-number",),
    ("pack",),
    ("check", "--what", "exchange", "--trials", "5", "--seed", "3"),
    ("check", "--what", "tdi"),
)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def report_digests(directory: Path) -> tuple[dict[str, str], list]:
    """Digest of every (instance, command) call, and each call's instance,
    command, exit code and stdout."""
    digests = {}
    calls = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for i, instance in enumerate(digest_draws()):
            name = "i%02d.json" % i
            Path(name).write_text(json.dumps(serialize_instance(instance)))
            for command in COMMANDS:
                code, out, err = _run(command[:1] + (name,) + command[1:])
                key = "%s %s" % (name, " ".join(command))
                digests[key] = hashlib.sha256(
                    ("%d\0%s\0%s" % (code, out, err)).encode("utf-8")).hexdigest()
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
    recorded = json.loads(DIGESTS.read_text())
    assert digests == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found, _ = report_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(found), DIGESTS))
