"""Interleaved timing of ``solve --method mflow`` on two ``src`` trees.

Loads the ``bbibranch`` package of each tree under its own name, as
``ab_commands.py`` does, and writes two seeded medium instances,
``random_instance(Random(seed), nS, nT, density, 2, 50, max_arcs=1000)``:
(4, 9, 0.25) with seed 8, m = 39, and (8, 20, 0.12) with seed 0, m = 81.
Each round runs ``solve --method mflow`` once per side on each instance,
and the sides alternate which runs first, round by round.

Run it from the repository root, with the ``src`` that generates the
instances on ``PYTHONPATH``::

    PYTHONPATH=src python tests/mflow_probe.py BASE_SRC NEW_SRC ROUNDS

For each instance and side it prints the median and min-max wall time over
the rounds, the augmentations of one run (the ``matroids._augmenting_path``
calls that found a path), and whether the report's arcs and value equal the
other side's.  It exits 1 if they differ.  It re-executes itself under
``PYTHONHASHSEED=0`` (``workloads.pin_hash_seed``).  The name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import importlib
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

from ab_commands import load_tree, run, workloads
from conftest import random_instance, serialize_instance

INSTANCES = (("m = 39", (4, 9, 0.25), 8), ("m = 81", (8, 20, 0.12), 0))


def count_augmentations(name: str) -> list[int]:
    """A one-entry counter of the successful augmentations of the package
    loaded as ``name``, which it wraps."""
    matroids = importlib.import_module(name + ".matroids")
    search = matroids._augmenting_path
    count = [0]

    def counted(*args):
        path = search(*args)
        count[0] += path is not None
        return path

    matroids._augmenting_path = counted
    return count


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not argv[2].isdigit() or int(argv[2]) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    workloads.pin_hash_seed()
    sides = ("base", "new")
    mains, counts = [], []
    for side, src in zip(sides, argv[:2]):
        mains.append(load_tree(Path(src), "bbibranch_" + side))
        counts.append(count_augmentations("bbibranch_" + side))
    rounds = int(argv[2])
    all_same = True
    with tempfile.TemporaryDirectory() as tmp:
        for label, (nS, nT, density), seed in INSTANCES:
            instance = random_instance(random.Random(seed), nS, nT, density,
                                       2, 50, max_arcs=1000)
            path = Path(tmp) / ("mflow-%d.json" % seed)
            path.write_text(json.dumps(serialize_instance(instance)))
            argv = ["solve", str(path), "--method", "mflow"]
            times, augmentations, results = [[], []], [0, 0], [None, None]
            for n in range(rounds):
                for side in (n % 2, 1 - n % 2):
                    counts[side][0] = 0
                    elapsed, (code, out, _err) = run(mains[side], argv)
                    times[side].append(elapsed)
                    augmentations[side] = counts[side][0]
                    result = json.loads(out).get("result", {}) if code == 0 else {}
                    results[side] = (code, result.get("arcs"), result.get("value"))
            same = results[0] == results[1]
            all_same = all_same and same
            print("%s (%d, %d, %s, seed %d), %d rounds, exit %d, arcs and value %s"
                  % (label, nS, nT, density, seed, rounds, results[0][0],
                     "match" if same else "DIFFER"))
            for side in (0, 1):
                print("  %-4s median %7.3f s  min-max %7.3f-%7.3f s  "
                      "augmentations %d"
                      % (sides[side], statistics.median(times[side]),
                         min(times[side]), max(times[side]), augmentations[side]))
            print("  new/base median %.3f"
                  % (statistics.median(times[1]) / statistics.median(times[0])))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
