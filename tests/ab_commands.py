"""Interleaved in-process A/B timing of two ``src`` trees.

Loads the ``bbibranch`` package of each tree under its own name
(``bbibranch_base`` and ``bbibranch_new``), draws the seeded
``stratified_sample`` of each workload from the ``perfbench`` pools, which
it only reads, and runs each sampled command (the workload's ``solve`` or
``pack`` on the instance file, as ``perfbench/run.py`` does) ``REPEATS``
times on each tree.  The trees alternate which runs first, command by
command and repeat by repeat, so a host whose speed drifts within minutes
slows both sides alike; timing whole passes one tree after the other does
not resolve a 10 % difference on such a host.

Run it from the repository root::

    python tests/ab_commands.py BASE_SRC NEW_SRC ROUNDS [WORKLOAD ...]

For each round and each workload (default: ``solve-small`` and ``pack``)
it prints each side's p50, mean and p96 of the per-command median times,
the new/base ratio of each, and whether every command's exit code, stdout
and stderr matched byte for byte; after the last round it prints the
min-max of each ratio over the rounds.  It exits 1 if an output differed.
It re-executes itself under ``PYTHONHASHSEED=0``
(``workloads.pin_hash_seed``), the hash seed of the benchmark.  The name
has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)

SEED = 1
REPEATS = 5


def load_tree(src: Path, name: str):
    """``cli.main`` of the package under ``src/bbibranch``, imported as the
    package ``name``; the package's imports are relative, so it runs as is."""
    package = Path(src).resolve() / "bbibranch"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli").main


def run(main, argv):
    """(seconds, (exit code, stdout, stderr)) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return perf_counter() - start, (code, out.getvalue(), err.getvalue())


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank p-th percentile, as ``perfbench/run.py`` reads it."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def compare(workload, mains, directory: Path):
    """(per-side per-command medians, whether every output matched)."""
    wl = workloads.WORKLOADS[workload]
    sample = workloads.stratified_sample(workloads.load_pool(workload),
                                         wl.sample_size, SEED)
    times = [[], []]
    same = True
    for n, entry in enumerate(sample):
        path = directory / ("%s-%d.json" % (workload, entry["seed"]))
        path.write_text(workloads.instance_text(wl.generator(entry["seed"])[0]))
        argv = [wl.command, str(path)]
        spent = [[], []]
        outputs = [None, None]
        for repeat in range(REPEATS):
            first = (n + repeat) % 2
            for side in (first, 1 - first):
                elapsed, output = run(mains[side], argv)
                spent[side].append(elapsed)
                outputs[side] = output
        same = same and outputs[0] == outputs[1]
        for side in (0, 1):
            times[side].append(statistics.median(spent[side]))
    return times, same


STATS = (("p50", lambda t: percentile(t, 50)), ("mean", statistics.fmean),
         ("p96", lambda t: percentile(t, 96)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or not argv[2].isdigit() or int(argv[2]) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    workloads.pin_hash_seed()
    mains = [load_tree(Path(argv[0]), "bbibranch_base"),
             load_tree(Path(argv[1]), "bbibranch_new")]
    names = argv[3:] or ["solve-small", "pack"]
    ratios = {(workload, label): [] for workload in names for label, _ in STATS}
    all_same = True
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(1, int(argv[2]) + 1):
            for workload in names:
                times, same = compare(workload, mains, Path(tmp))
                all_same = all_same and same
                print("round %d, %s: %d commands x %d repeats per side, outputs %s"
                      % (n, workload, len(times[0]), REPEATS,
                         "identical" if same else "DIFFER"))
                for label, stat in STATS:
                    base, new = stat(times[0]), stat(times[1])
                    ratios[workload, label].append(new / base)
                    print("  %-4s base %8.1f us  new %8.1f us  new/base %.3f"
                          % (label, base * 1e6, new * 1e6, new / base))
    print("new/base over %s rounds, min-max:" % argv[2])
    for (workload, label), values in ratios.items():
        print("  %-12s %-4s %.3f-%.3f" % (workload, label, min(values), max(values)))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
