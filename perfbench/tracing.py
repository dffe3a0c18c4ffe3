"""Spans and counters recorded from outside the package.

The tracer wraps module-level functions (and two methods) of ``bbibranch``
at the boundary of each layer; nothing under ``src/`` is edited.  A wrapped
function that a module imported by name is replaced in every module that
holds it, so ``from .digraph import max_flow_min_cut`` callers are traced
too.  A target that no longer exists is an error (``LookupError``): a
per-layer metric must not read 0 because a refactor renamed its boundary,
so a change that moves a layer boundary updates the targets here.

Spans stay in memory as parallel arrays (name, start, end, parent, op) and
are written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children; calls are nested and
single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "bibranching", "lpsolve", "digraph", "matroids", "mconvex",
          "packing")


def _memo_hit(obj, attr, key) -> bool:
    memo = getattr(obj, attr, None)
    return memo is not None and key in memo


class Tracer:
    """Records spans and counts while an operation is open (``op >= 0``)."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.errors: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._prepare()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open("op")

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = -1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, span, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            idx = tracer._open(span) if span else -1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if idx >= 0:
                    tracer.errors[idx] = type(exc).__name__
                raise
            finally:
                if idx >= 0:
                    tracer._close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch_function(self, module: str, name: str, span, before=None,
                        after=None) -> None:
        mod = importlib.import_module("bbibranch." + module)
        original = getattr(mod, name, None)
        if original is None:
            raise LookupError("trace target bbibranch.%s.%s not found" % (module, name))
        wrapper = self._wrap(original, span, before, after)
        for holder_name in LAYERS:
            holder = importlib.import_module("bbibranch." + holder_name)
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, original, wrapper))

    def _patch_method(self, module: str, cls: str, name: str, span,
                      before=None, after=None) -> None:
        mod = importlib.import_module("bbibranch." + module)
        klass = getattr(mod, cls, None)
        original = getattr(klass, name, None) if klass is not None else None
        if original is None:
            raise LookupError("trace target bbibranch.%s.%s.%s not found"
                              % (module, cls, name))
        self._patches.append((klass, name, original,
                              self._wrap(original, span, before, after)))

    def _prepare(self) -> None:
        count = self.counts

        def sparsity_query(args):
            matroid, B = args[0], args[1]
            key = B if isinstance(B, frozenset) else frozenset(B)
            count["matroids.sparsity_queries"] += 1
            if _memo_hit(matroid, "_memo", key):
                count["matroids.sparsity_memo_hits"] += 1
            return (matroid, key) + tuple(args[2:])

        def oracle_eval(args):
            oracle, x = args[0], args[1]
            count["mconvex.oracle_evals"] += 1
            key_of = getattr(oracle, "_key", None)
            if key_of is not None and _memo_hit(oracle, "_memo_f", key_of(x)):
                count["mconvex.oracle_memo_hits"] += 1
            return args

        def counter(name, value=lambda result: 1):
            def after(result):
                count[name] += value(result)
            return after

        def calls(name):
            def before(args):
                count[name] += 1
                return args
            return before

        def cutting_plane(result):
            count["lpsolve.bicut_rows"] += len(result.bicut_rows)
            count["lpsolve.lp_fallbacks"] += int(bool(result.fallback_triggered))

        self._patch_function("cli", "load_instance_file", "cli.io")
        self._patch_function("cli", "emit_report", "cli.io")
        self._patch_function("bibranching", "feasibility_witness",
                             "bibranching.feasibility")
        self._patch_function("bibranching", "bibranching_report",
                             "bibranching.report")
        self._patch_function("lpsolve", "solve_primal_cutting_plane",
                             "lpsolve.cutting_plane", after=cutting_plane)
        self._patch_function("lpsolve", "_solve_with_cuts", None,
                             after=counter("lpsolve.cp_rounds",
                                           lambda result: result[1]))
        self._patch_function("lpsolve", "simplex_solve", "lpsolve.simplex")
        self._patch_function("lpsolve", "_violated_bicuts", "lpsolve.separation")
        self._patch_function("digraph", "max_flow_min_cut", "digraph.maxflow")
        self._patch_method("matroids", "SparsityMatroid", "violation_witness",
                           "matroids.sparsity", before=sparsity_query)
        self._patch_function("matroids", "weighted_matroid_intersection",
                             "matroids.wmi")
        self._patch_function("matroids", "_augmenting_path", None,
                             after=counter("matroids.augmentations",
                                           lambda path: int(path is not None)))
        self._patch_function("mconvex", "solve_mflow", "mconvex.mflow")
        self._patch_method("mconvex", "BBranchingOracle", "eval_f_witness", None,
                           before=oracle_eval)
        self._patch_function("mconvex", "_min_arc_negative_cycle",
                             "mconvex.negcycle",
                             after=counter("mconvex.cancel_rounds",
                                           lambda cyc: int(cyc is not None)))
        self._patch_function("packing", "packing_number", "packing.packing_number")
        self._patch_function("packing", "partition_cross_arcs", "packing.partition",
                             before=calls("packing.partition_calls"))
        self._patch_function("packing", "_exhaustive_partition",
                             "packing.exhaustive",
                             before=calls("packing.peel_fallbacks"))
        self._patch_function("packing", "find_integral_point",
                             "packing.integral_point")
        self._patch_function("packing", "pack_prescribed_b_branchings",
                             "packing.prescribed")

    def install(self) -> None:
        for holder, attr, _original, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _wrapper in self._patches:
            setattr(holder, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> array:
        n = len(self.names)
        child = array("d", bytes(8 * n))
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        return array("d", (self.end[i] - self.start[i] - child[i]
                           for i in range(n)))

    def write(self, path) -> None:
        """Every span as CSV: op, id, parent, name, start_s, end_s, error."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,id,parent,name,start_s,end_s,error\n")
            for i, name in enumerate(self.names):
                fh.write("%d,%d,%d,%s,%.9f,%.9f,%s\n" % (
                    self.op[i], i, self.parent[i], name, self.start[i],
                    self.end[i], self.errors.get(i, "")))
