"""Benchmark for the bbibranch command line, one workload per run.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 40 --trace 0

Each operation is one user command (``bbibranch solve <file>`` or
``bbibranch pack <file>``) run in-process through ``bbibranch.cli.main``
with default options, so the CLI layer is timed but interpreter start-up
is not.  The load is a closed loop: one client, one process, one thread,
each command issued when the previous one has returned.

A run sets up (imports, instance sample, instance files, references),
warms up on one command, then makes a fixed number of full passes over the
sample: ``--seconds`` over the workload's nominal pass time, at least one
(see ``passes_for``, ``measure`` and ``summarize``).  The work of a run,
and with it ``attempted`` and ``failed``, thus does not depend on the
code's or the host's speed.  Spread over the passes, it times cold
set-ups in fresh processes and a fixed calibration loop; the declared
times are scaled to a reference machine speed (see ``SideWork``).  Every
output is checked against the references (see ``workloads.py``).  The
script re-executes itself with a fixed ``PYTHONHASHSEED`` first
(``workloads.pin_hash_seed``).  With ``--trace 1`` the run ends with one more pass
that runs each instance untraced and then traced, which yields the
per-layer metrics (see ``tracing.py``) and the tracing overhead.

The last line of standard output is the JSON result; lines before it are
a readable report.  Run details and the span file go to
``.perfbench_out/`` in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 15
CALIBRATE_EVERY_S = 0.25   # command time between calibration chunks
CALIBRATION_WINDOW = 4     # chunks on each side that set a command's slowdown
CALIBRATION_REF_S = 0.016  # chunk time that defines the reference speed
MIN_TAIL_BEYOND = 10

# Outcomes where the program asserted something false about a valid,
# feasible input; these make a run incorrect.  Refusals (guard, theorem
# violation report, crash) are failures without an answer.
WRONG = ("wrong_output", "false_infeasible", "false_input_error")
EXIT_KINDS = {2: "false_input_error", 3: "false_infeasible", 4: "guard",
              5: "theorem_violation"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int,
                        help="sample size override (the smoke test runs tiny samples)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one cold set-up in this process, print the seconds"
                             " and exit (a run starts these to measure setup_s)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def set_up(wl, seed, size):
    """Sample the pool, generate the instance texts, load the references."""
    from bbibranch.cli import load_instance_data

    pool = workloads.load_pool(wl.name)
    sample = workloads.stratified_sample(pool, size, seed)
    cases = []
    for entry in sample:
        doc, _shape = wl.generator(entry["seed"])
        text = workloads.instance_text(doc)
        if workloads.text_digest(text) != entry["digest"]:
            raise RuntimeError("pool %s entry %d no longer matches its generator"
                               % (wl.name, entry["seed"]))
        cases.append({"text": text, "entry": entry,
                      "instance": load_instance_data(doc)})
    return cases


def write_instances(cases, workdir: Path) -> None:
    """Write each case's instance file, the one its command reads."""
    workdir.mkdir(parents=True, exist_ok=True)
    for n, case in enumerate(cases):
        path = workdir / ("i%04d.json" % n)
        path.write_text(case["text"], encoding="utf-8")
        case["path"] = str(path)


def time_setup(argv) -> float:
    """Cold set-up time from a fresh process (``--setup-probe``).

    The probe imports ``bbibranch`` and runs ``set_up`` once, so work moved
    to import time shows in ``setup_s`` as well as work moved into
    ``set_up``; interpreter start-up is outside the probe's clock.  Writing
    the instance files (``write_instances``) is not timed: it runs no
    ``bbibranch`` code, and creating 400 small files on a 2-vCPU VM
    (ext4) took from 0.04 to 0.27 s within minutes, more than the rest of
    the set-up.
    """
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe"] + list(argv),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def run_command(main, argv):
    """(exit code, stdout text, error text) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash is one failed operation, not the end of the run
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def classify(wl, case, code, stdout, stderr):
    """(outcome kind, detail); kind 'ok' when the output checks out."""
    if code is None:
        return "crash", stderr.strip().splitlines()[-1]
    if code != 0:
        return EXIT_KINDS.get(code, "exit%d" % code), stderr.strip()[:200]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return "wrong_output", "report is not JSON: %s" % exc
    problem = workloads.CHECKS[wl.command](case["instance"], case["entry"]["ref"], report)
    return ("ok", None) if problem is None else ("wrong_output", problem)


def calibration_chunk() -> float:
    """Seconds for a fixed loop of the kind of work the commands do
    (``Fraction`` arithmetic and small dicts), independent of ``bbibranch``."""
    from fractions import Fraction

    start = perf_counter()
    total = Fraction(0)
    seen: dict[int, int] = {}
    for i in range(1, 4000):
        total += Fraction(i % 13 + 1, i % 97 + 1)
        seen[i % 101] = seen.get(i % 101, 0) + 1
    return perf_counter() - start


class SideWork:
    """Work interleaved with the commands, outside their clock.

    A shared host's speed drifts: on a 2-vCPU VM shared with other load, a
    fixed ``Fraction`` loop ranged from 48 to 91 ms within seconds, and
    whole 50-s runs of one workload moved by up to 1.6x, far beyond any
    useful regression bound.  So every ``CALIBRATE_EVERY_S`` of command
    time the run times ``calibration_chunk``.  A command's slowdown is the
    median of the chunks around it (``slowdown_at``) over
    ``CALIBRATION_REF_S``; its time is divided by that, which reads it at
    the reference speed.  The calibration shares no code with
    ``bbibranch``, so a change to the program moves the declared figures
    as it moves the raw ones.  ``SETUP_PROBES`` cold set-ups
    (``time_setup``) are spread evenly over the run's ``total_ops``
    commands and scaled the same way.
    """

    def __init__(self, total_ops: int, probe_argv):
        self.probe_argv = probe_argv
        self.probe_due = [total_ops * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
        self.calibration = [calibration_chunk()]
        self.setup_times: list[tuple[float, int]] = []  # (seconds, position)

    def position(self) -> int:
        """Chunks timed so far; a command's position is taken before it runs."""
        return len(self.calibration)

    def after_command(self, busy: float, ops: int) -> None:
        while busy >= CALIBRATE_EVERY_S * len(self.calibration):
            self.calibration.append(calibration_chunk())
        while self.probe_due and ops >= self.probe_due[0]:
            self.probe_due.pop(0)
            self.setup_times.append((time_setup(self.probe_argv), self.position()))

    def slowdown_at(self, position: int) -> float:
        lo = max(0, position - CALIBRATION_WINDOW - 1)
        window = self.calibration[lo:position + CALIBRATION_WINDOW]
        return statistics.median(window) / CALIBRATION_REF_S

    def scaled(self, timed: list[tuple[float, int]]) -> list[float]:
        """Times at the reference speed, from (seconds, position) pairs."""
        return [t / self.slowdown_at(pos) for t, pos in timed]


def passes_for(wl, seconds: float) -> int:
    """Full passes of a run: ``seconds`` over the nominal pass time, at least one.

    A fixed count, not a time limit: every instance runs equally often
    whatever the speed, so a faster program gets neither more repeats nor
    more attempted (or failed) operations, only a shorter run.
    """
    return max(1, round(seconds / wl.pass_s))


def measure(wl, cases, main, passes, side: SideWork):
    """Closed loop over the sample, ``passes`` times in the same order."""
    times = [[] for _ in cases]   # (seconds, calibration position) per instance
    outcome = [None] * len(cases)
    kinds = {}
    ops = ok_ops = 0
    busy = 0.0
    for _ in range(passes):
        for n, case in enumerate(cases):
            position = side.position()
            start = perf_counter()
            code, stdout, stderr = run_command(main, [wl.command, case["path"]])
            elapsed = perf_counter() - start
            busy += elapsed
            ops += 1
            times[n].append((elapsed, position))
            kind, detail = classify(wl, case, code, stdout, stderr)
            kinds[kind] = kinds.get(kind, 0) + 1
            ok_ops += kind == "ok"
            if outcome[n] is None or kind != "ok":
                outcome[n] = (kind, detail)
            side.after_command(busy, ops)
    return {"times": times, "outcome": outcome, "kinds": kinds, "ops": ops,
            "ok_ops": ok_ops, "busy": busy, "passes": passes}


def percentile_rank(size: int, p: int) -> int:
    """0-based nearest-rank index of the p-th percentile of ``size`` values."""
    return max(0, math.ceil(p * size / 100) - 1)


def tail_percentile(size: int) -> int:
    """Highest integer percentile with at least ten samples beyond it."""
    for p in range(99, 49, -1):
        if size - (percentile_rank(size, p) + 1) >= MIN_TAIL_BEYOND:
            return p
    return 50


def summarize(result, times):
    """End-to-end figures of one run from per-instance command ``times``.

    Throughput is the rate observed over the run: successful operations
    per second of command time, failed operations' time included.  The
    latency percentiles are over instances, each at the median of its
    repeats (one per pass), which a single interrupted repeat does not
    move.  An instance whose
    command failed ranks slowest; should a reported percentile land on one,
    the value is the run's whole command time, the longest that command
    could have taken within the run.
    """
    typical = [statistics.median(t) for t in times]
    ok = [kind == "ok" for kind, _ in result["outcome"]]
    per_case = sorted(t if good else math.inf for t, good in zip(typical, ok))
    size = len(per_case)
    tail_p = tail_percentile(size)
    busy = sum(map(sum, times))

    def at(p):
        value = per_case[percentile_rank(size, p)]
        return busy if math.isinf(value) else value

    return {"ok_ops_per_s": result["ok_ops"] / busy, "p50": at(50),
            "tail": at(tail_p), "tail_p": tail_p, "samples": size}


def end_to_end_metrics(result, times, setup_times, peak_rss_mb):
    """(summary, name -> (value, unit)) from command and set-up times."""
    summary = summarize(result, times)
    return summary, {
        "ok_ops_per_s": (summary["ok_ops_per_s"], "1/s"),
        "latency_p50_s": (summary["p50"], "s"),
        "latency_tail_s": (summary["tail"], "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

MAXFLOW_PARENTS = {"lpsolve.separation": "separation",
                   "matroids.sparsity": "sparsity",
                   "packing.packing_number": "packing_number"}

SELF_TIME_METRICS = {
    "lpsolve.simplex_s": "lpsolve.simplex",
    "lpsolve.separation_s": "lpsolve.separation",
    "digraph.maxflow_s": "digraph.maxflow",
    "matroids.sparsity_s": "matroids.sparsity",
    "matroids.wmi_s": "matroids.wmi",
    "mconvex.mflow_s": "mconvex.mflow",
    "mconvex.negcycle_s": "mconvex.negcycle",
    "packing.packing_number_s": "packing.packing_number",
    "packing.partition_s": "packing.partition",
    "packing.exhaustive_s": "packing.exhaustive",
    "packing.integral_point_s": "packing.integral_point",
    "packing.prescribed_s": "packing.prescribed",
    "bibranching.feasibility_s": "bibranching.feasibility",
    "bibranching.report_s": "bibranching.report",
    "cli.io_s": "cli.io",
}


def layer_metrics(tracer, untraced_pass_s, traced_ok, traced_ops):
    """name -> (value, unit) from one traced pass."""
    from tracing import LAYERS

    self_t = tracer.self_times()
    by_name_s: dict[str, float] = {}
    by_name_n: dict[str, int] = {}
    by_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    flow_s = {kind: 0.0 for kind in list(MAXFLOW_PARENTS.values()) + ["other"]}
    flow_n = {kind: 0 for kind in flow_s}
    op_s = 0.0
    unattributed = 0.0
    guard_refusals = 0
    for i, name in enumerate(tracer.names):
        by_name_s[name] = by_name_s.get(name, 0.0) + self_t[i]
        by_name_n[name] = by_name_n.get(name, 0) + 1
        if name == "op":
            op_s += tracer.end[i] - tracer.start[i]
            unattributed += self_t[i]
            continue
        by_layer[name.split(".")[0]] += self_t[i]
        if name == "digraph.maxflow":
            parent = tracer.parent[i]
            kind = MAXFLOW_PARENTS.get(tracer.names[parent], "other")
            flow_s[kind] += self_t[i]
            flow_n[kind] += 1
        elif name in ("packing.partition", "packing.prescribed") \
                and tracer.errors.get(i) == "GuardError":
            guard_refusals += 1

    c = tracer.counts
    metrics = {}
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = (by_name_s.get(span, 0.0), "s")
    for kind in flow_s:
        metrics["digraph.maxflow_s." + kind] = (flow_s[kind], "s")
        metrics["digraph.maxflow_calls." + kind] = (flow_n[kind], "count")
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (by_layer[layer], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics.update({
        "lpsolve.simplex_calls": (by_name_n.get("lpsolve.simplex", 0), "count"),
        "lpsolve.cp_rounds": (c["lpsolve.cp_rounds"], "count"),
        "lpsolve.bicut_rows": (c["lpsolve.bicut_rows"], "count"),
        "lpsolve.lp_fallbacks": (c["lpsolve.lp_fallbacks"], "count"),
        "digraph.maxflow_calls": (by_name_n.get("digraph.maxflow", 0), "count"),
        "matroids.sparsity_queries": (c["matroids.sparsity_queries"], "count"),
        "matroids.sparsity_memo_hits": (c["matroids.sparsity_memo_hits"], "count"),
        "matroids.sparsity_memo_hit_ratio": (
            ratio(c["matroids.sparsity_memo_hits"], c["matroids.sparsity_queries"]),
            "ratio"),
        "matroids.wmi_calls": (by_name_n.get("matroids.wmi", 0), "count"),
        "matroids.augmentations": (c["matroids.augmentations"], "count"),
        "mconvex.oracle_evals": (c["mconvex.oracle_evals"], "count"),
        "mconvex.oracle_memo_hits": (c["mconvex.oracle_memo_hits"], "count"),
        "mconvex.oracle_memo_hit_ratio": (
            ratio(c["mconvex.oracle_memo_hits"], c["mconvex.oracle_evals"]), "ratio"),
        "mconvex.cancel_rounds": (c["mconvex.cancel_rounds"], "count"),
        "packing.partition_calls": (c["packing.partition_calls"], "count"),
        "packing.peel_fallbacks": (c["packing.peel_fallbacks"], "count"),
        "packing.peel_fallback_ratio": (
            ratio(c["packing.peel_fallbacks"], c["packing.partition_calls"]), "ratio"),
        "packing.guard_refusals": (guard_refusals, "count"),
        "trace.ops": (traced_ops, "count"),
        "trace.spans": (len(tracer.names), "count"),
        "trace.op_s": (op_s, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.untraced_op_s": (untraced_pass_s, "s"),
        "trace.ok_ops_per_s": (ratio(traced_ok, op_s), "1/s"),
        "trace.untraced_ok_ops_per_s": (ratio(traced_ok, untraced_pass_s), "1/s"),
        "trace.overhead_ratio": (ratio(op_s, untraced_pass_s), "ratio"),
    })
    return metrics


RATIO_BASES = {
    "matroids.sparsity_memo_hit_ratio": ("matroids.sparsity_memo_hits",
                                         "matroids.sparsity_queries"),
    "mconvex.oracle_memo_hit_ratio": ("mconvex.oracle_memo_hits",
                                      "mconvex.oracle_evals"),
    "packing.peel_fallback_ratio": ("packing.peel_fallbacks",
                                    "packing.partition_calls"),
    "trace.overhead_ratio": ("trace.op_s", "trace.untraced_op_s"),
}


def traced_pass(wl, cases, main):
    """One pass in which every instance runs untraced, then traced.

    Running the pair back to back keeps drift in machine speed out of the
    tracing overhead.  The tracer's wrappers are installed only around the
    traced command.
    """
    from tracing import Tracer

    tracer = Tracer()
    ok = 0
    untraced_s = 0.0
    for n, case in enumerate(cases):
        argv = [wl.command, case["path"]]
        start = perf_counter()
        run_command(main, argv)
        untraced_s += perf_counter() - start
        tracer.install()
        try:
            tracer.begin_op(n)
            try:
                code, stdout, stderr = run_command(main, argv)
            finally:
                tracer.end_op()
        finally:
            tracer.uninstall()
        ok += classify(wl, case, code, stdout, stderr)[0] == "ok"
    return tracer, layer_metrics(tracer, untraced_s, ok, len(cases))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def environment(wl, args, cases, backend):
    ms = [c["instance"].digraph.num_arcs() for c in cases]
    env = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rational_backend": backend,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "instances": len(cases), "m_range": [min(ms), max(ms)],
        "pool_seeds": sorted(c["entry"]["seed"] for c in cases),
    }
    if wl.command == "pack":
        ks = [c["entry"]["ref"]["k"] for c in cases]
        env["k_range"] = [min(ks), max(ks)]
    kinds = {}
    for c in cases:
        kinds[c["entry"]["kind"]] = kinds.get(c["entry"]["kind"], 0) + 1
    env["kinds"] = kinds
    return env


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "bbibranch" / "cli.py").is_file():
        print("perfbench: no bbibranch sources at %s" % SRC, file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    size = args.instances or wl.sample_size
    out_dir = Path.cwd() / ".perfbench_out"
    workdir = Path.cwd() / ".perfbench_work" / ("%s-%d-%d" % (wl.name, args.seed, os.getpid()))

    if args.setup_probe:
        start = perf_counter()
        sys.path.insert(0, str(SRC))
        from bbibranch import cli  # noqa: F401
        from bbibranch.rationals import Q  # noqa: F401
        set_up(wl, args.seed, size)
        print(repr(perf_counter() - start))
        return 0

    sys.path.insert(0, str(SRC))
    from bbibranch import cli
    from bbibranch.rationals import Q
    backend = "%s.%s" % (Q.__module__, Q.__qualname__)

    try:
        cases = set_up(wl, args.seed, size)
        write_instances(cases, workdir)

        run_command(cli.main, [wl.command, cases[0]["path"]])  # warm-up
        passes = passes_for(wl, args.seconds)
        side = SideWork(passes * len(cases), argv)
        result = measure(wl, cases, cli.main, passes, side)
        busy = result["busy"]
        failed = result["ops"] - result["ok_ops"]
        wrong = sum(result["kinds"].get(k, 0) for k in WRONG)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _, raw = end_to_end_metrics(
            result, [[t for t, _ in timed] for timed in result["times"]],
            [t for t, _ in side.setup_times], peak_rss_mb)
        scaled_times = [side.scaled(timed) for timed in result["times"]]
        summary, end_to_end = end_to_end_metrics(
            result, scaled_times, side.scaled(side.setup_times), peak_rss_mb)
        slowdown = [side.slowdown_at(pos) for timed in result["times"] for _, pos in timed]
        layers = None
        if args.trace:
            tracer, layers = traced_pass(wl, cases, cli.main)
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / ("spans-%s-seed%d.csv.gz" % (wl.name, args.seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(wl, args, cases, backend)
    fail_frac = failed / result["ops"]
    failures = sorted({(c["entry"]["seed"], kind, detail)
                       for c, (kind, detail) in zip(cases, result["outcome"])
                       if kind != "ok"})
    print("# env %s" % json.dumps({k: v for k, v in env.items() if k != "pool_seeds"},
                                  sort_keys=True))
    print("# ops %d (ok %d, failed %d) in %d full passes and %.3f s of command time"
          % (result["ops"], result["ok_ops"], failed, result["passes"], busy))
    print("# outcomes %s" % json.dumps(result["kinds"], sort_keys=True))
    for seed, kind, detail in failures:
        print("# failed pool seed %d: %s %s" % (seed, kind, detail or ""))
    print("# latencies over %d instances, each at the median of its repeats; tail = p%d"
          % (summary["samples"], summary["tail_p"]))
    print("# slowdown against the reference speed, over commands: median %.4f, range"
          " %.4f-%.4f (%d calibration chunks); declared times are at the reference speed"
          % (statistics.median(slowdown), min(slowdown), max(slowdown),
             len(side.calibration)))
    for name, (value, unit) in end_to_end.items():
        print("# %-22s %14.6f %-4s  raw %.6f" % (name, value, unit, raw[name][0]))
    print("# %-22s %14.6f %s   (%d/%d)" % ("fail_frac", fail_frac, "ratio",
                                           failed, result["ops"]))
    if layers is not None:
        op_s = layers["trace.op_s"][0]
        for name, (value, unit) in sorted(layers.items()):
            extra = ""
            if unit == "s" and op_s and not name.startswith("trace."):
                extra = "   %5.1f%% of op time" % (100.0 * value / op_s)
            if name in RATIO_BASES:
                num, den = RATIO_BASES[name]
                extra = "   (%s / %s)" % (layers[num][0], layers[den][0])
            print("# %-36s %14.6f %-6s%s" % (name, value, unit, extra))

    details = {"env": env, "end_to_end": end_to_end, "per_layer": layers,
               "fail_frac": [failed, result["ops"]], "outcomes": result["kinds"],
               "failures": failures, "tail_percentile": summary["tail_p"],
               "latency_samples": summary["samples"], "passes": result["passes"],
               "raw_end_to_end": raw,
               "calibration_s": list(side.calibration),
               "setup_times_s": side.setup_times,
               "command_times_s": {c["entry"]["seed"]: t
                                   for c, t in zip(cases, scaled_times)}}
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / ("result-%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True, default=str)

    chosen = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": result["ops"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    workloads.pin_hash_seed()
    sys.exit(main())
