"""Byte identity of the CLI over the benchmark pools.

Regenerates every instance of the three ``perfbench`` pools with
``perfbench/workloads.py``, which it only reads, and 200 more, runs 13,300
commands on them in-process through ``cli.main`` and writes one SHA-256
per command (``test_report_digests.run_digest``: exit code, stdout and
stderr):

- ``pack`` and ``packing-number`` on the 2,000 ``pack`` instances;
- ``solve``, ``solve --method mflow``, ``check --what tdi``, ``check
  --what idp --trials 3`` and ``check --what mconvex --trials 3`` on the
  1,500 ``solve-small`` instances (``mflow`` and ``mconvex`` run the
  b-branching oracle's matroid intersection, ``mflow`` also its
  negative-cycle search);
- ``solve`` and ``check --what tdi`` on the 400 ``solve-sparse``
  instances, whose LPs take the few pivots on an entry other than +-1
  that the pools hold, and ``solve --method brute``, which writes the
  exit-4 report of the brute-force guard on each (every one has more arcs
  than ``BRUTE_FORCE_ARC_LIMIT``);
- ``solve``, ``pack`` and ``check --what tdi`` on the first 200
  ``solve-small`` sub-seeds that the pool left out.  The pools hold
  feasible instances only, and every sub-seed below 3,000 that the
  ``solve-small`` pool left out (1,956 of them) is infeasible, so these
  are the commands that write exit-3 reports: every ``solve`` and 58 of
  the ``check --what tdi`` (``pack`` reports k = 0).

Run it from the repository root, with the ``src`` to test on ``PYTHONPATH``::

    PYTHONPATH=src python tests/pool_outputs.py OUT.json [BASELINE.json]

Given a second file, written the same way from another checkout's ``src``,
it prints every command whose digest differs and exits 1 if one does.  It
re-executes itself under ``PYTHONHASHSEED=0`` (``workloads.pin_hash_seed``)
so that both sides iterate sets of vertex ids in one order.  A full run
takes about twelve seconds on a 2-vCPU VM.  The name has no ``test_`` prefix, so
pytest does not collect it; ``test_pool_outputs.py`` runs a slice.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from collections import Counter
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
    "solve-small": (("solve",), ("solve", "--method", "mflow"),
                    ("check", "--what", "tdi"),
                    ("check", "--what", "idp", "--trials", "3"),
                    ("check", "--what", "mconvex", "--trials", "3")),
    "solve-sparse": (("solve",), ("check", "--what", "tdi"),
                     ("solve", "--method", "brute")),
    "infeasible": (("solve",), ("pack",), ("check", "--what", "tdi")),
}
INFEASIBLE = 200  # sub-seeds of the "infeasible" group


def instances(group: str, limit: int | None):
    """(file name, instance text) of the group's first ``limit`` instances:
    a pool's entries, each checked against its recorded digest, or for
    ``infeasible`` the ``solve-small`` sub-seeds outside its pool."""
    if group == "infeasible":
        generator = workloads.WORKLOADS["solve-small"].generator
        pooled = {entry["seed"] for entry in workloads.load_pool("solve-small")}
        seeds = (seed for seed in itertools.count() if seed not in pooled)
        count = INFEASIBLE if limit is None else min(INFEASIBLE, limit)
        for seed in itertools.islice(seeds, count):
            yield "%s-%d.json" % (group, seed), workloads.instance_text(generator(seed)[0])
        return
    generator = workloads.WORKLOADS[group].generator
    for entry in workloads.load_pool(group)[:limit]:
        text = workloads.instance_text(generator(entry["seed"])[0])
        if workloads.text_digest(text) != entry["digest"]:
            raise RuntimeError("pool %s entry %d no longer matches its "
                               "generator" % (group, entry["seed"]))
        yield "%s-%d.json" % (group, entry["seed"]), text


def pool_digests(directory: Path, limit: int | None = None) -> tuple[dict, Counter]:
    """Digest of every (instance, command) call, keyed by the instance
    file's name and the command, and a tally of (command, exit code);
    ``limit`` keeps the first instances of each group.  Reports echo the
    instance path, so the calls run in ``directory``."""
    digests, exits = {}, Counter()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for group, commands in COMMANDS.items():
            for name, text in instances(group, limit):
                Path(name).write_text(text)
                for command in commands:
                    code, _, digest = run_digest(command[:1] + (name,) + command[1:])
                    digests["%s %s" % (name, " ".join(command))] = digest
                    exits[" ".join(command), code] += 1
    finally:
        os.chdir(cwd)
    return digests, exits


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
        found, exits = pool_digests(Path(tmp))
    paths[0].write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(found), paths[0]))
    for (command, code), count in sorted(exits.items()):
        print("  %s: %d commands exit %d" % (command, count, code))
    if len(paths) == 1:
        return 0
    differ = differences(found, json.loads(paths[1].read_text()))
    for key in differ:
        print("differs: %s" % key)
    print("%d of %d commands differ" % (len(differ), len(found)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
