"""Byte identity of the CLI over the benchmark pools.

Regenerates every instance of the three ``perfbench`` pools with
``perfbench/workloads.py``, which it only reads, runs 9,300 commands on
them in-process through ``cli.main`` and writes one SHA-256 per command
(``test_report_digests.run_digest``: exit code, stdout and stderr):

- ``pack`` and ``packing-number`` on the 2,000 ``pack`` instances;
- ``solve``, ``check --what tdi`` and ``check --what idp --trials 3`` on
  the 1,500 ``solve-small`` instances;
- ``solve`` and ``check --what tdi`` on the 400 ``solve-sparse``
  instances, whose LPs take the few pivots on an entry other than +-1
  that the pools hold.

Run it from the repository root, with the ``src`` to test on ``PYTHONPATH``::

    PYTHONPATH=src python tests/pool_outputs.py OUT.json [BASELINE.json]

Given a second file, written the same way from another checkout's ``src``,
it prints every command whose digest differs and exits 1 if one does.  It
re-executes itself under ``PYTHONHASHSEED=0`` (``workloads.pin_hash_seed``)
so that both sides iterate sets of vertex ids in one order.  A full run
takes about ten seconds on a 2-vCPU VM.  The name has no ``test_`` prefix, so
pytest does not collect it; ``test_pool_outputs.py`` runs a slice.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from test_report_digests import run_digest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)

COMMANDS = {
    "pack": (("pack",), ("packing-number",)),
    "solve-small": (("solve",), ("check", "--what", "tdi"),
                    ("check", "--what", "idp", "--trials", "3")),
    "solve-sparse": (("solve",), ("check", "--what", "tdi")),
}


def pool_digests(directory: Path, limit: int | None = None) -> dict[str, str]:
    """Digest of every (pool instance, command) call, keyed by the instance
    file's name and the command; ``limit`` keeps the first entries of each
    pool.  Reports echo the instance path, so the calls run in ``directory``."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for pool, commands in COMMANDS.items():
            generator = workloads.WORKLOADS[pool].generator
            for entry in workloads.load_pool(pool)[:limit]:
                text = workloads.instance_text(generator(entry["seed"])[0])
                if workloads.text_digest(text) != entry["digest"]:
                    raise RuntimeError("pool %s entry %d no longer matches its "
                                       "generator" % (pool, entry["seed"]))
                name = "%s-%d.json" % (pool, entry["seed"])
                Path(name).write_text(text)
                for command in commands:
                    digest = run_digest(command[:1] + (name,) + command[1:])[2]
                    digests["%s %s" % (name, " ".join(command))] = digest
    finally:
        os.chdir(cwd)
    return digests


def differences(found: dict, baseline: dict) -> list[str]:
    """The commands whose digest differs or that only one side ran."""
    return sorted(key for key in found.keys() | baseline.keys()
                  if found.get(key) != baseline.get(key))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    workloads.pin_hash_seed()
    paths = [Path(arg).resolve() for arg in argv]
    with tempfile.TemporaryDirectory() as tmp:
        found = pool_digests(Path(tmp))
    paths[0].write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(found), paths[0]))
    if len(paths) == 1:
        return 0
    differ = differences(found, json.loads(paths[1].read_text()))
    for key in differ:
        print("differs: %s" % key)
    print("%d of %d commands differ" % (len(differ), len(found)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
