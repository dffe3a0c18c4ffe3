"""Command-line front end: instance files, solvers, checkers, generator.

Instance files are JSON documents::

    {"vertices": [{"id": "s", "side": "S", "b": 1}, ...],
     "arcs": [{"tail": "s", "head": "t", "weight": 5}, ...]}

Weights may be integers or exact rationals written as "p/q" strings.
Reports are JSON with rationals serialized the same way, as text also when
integral (a checked 0/1 vertex is a list of ints), and arcs referenced by
their 0-based index in the instance file.  ``_write_json`` writes every
report and ``gen``'s document, with sorted keys and sets as sorted lists.

Exit codes: 0 success, 2 input error, 3 infeasible, 4 guard exceeded,
5 theorem-violation report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys

from .bibranching import Instance, bibranching_report, solve_shortest
from .digraph import Digraph
from .errors import GuardError, InfeasibleInstance, InputError, TheoremViolation
from .rationals import rat_str

# Handlers import lpsolve, packing, mconvex and matroids locally: the first
# three take about 25-30 ms to import (python -X importtime), against about
# 0.1 s for the whole set-up (setup_s) of perfbench's solve-small workload.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4
EXIT_THEOREM = 5
EXIT_CODES = {"ok": EXIT_OK, "infeasible": EXIT_INFEASIBLE,
              "theorem_violation": EXIT_THEOREM, "failed": EXIT_THEOREM}


# ---------------------------------------------------------------------------
# Instance (de)serialization
# ---------------------------------------------------------------------------

def load_instance_data(data: dict) -> Instance:
    """The instance of a parsed instance document.  Each weight goes to
    ``Instance`` unread, and an arc with no "weight" weighs 0."""
    if not isinstance(data, dict):
        raise InputError("instance document must be a JSON object")
    for field in ("vertices", "arcs"):
        if not isinstance(data.get(field), list):
            raise InputError("instance field %r must be a list" % field)
    side = {}
    b = {}
    ids = []
    for i, entry in enumerate(data["vertices"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise InputError("vertices[%d] must be an object with an 'id'" % i)
        vid = entry["id"]
        if not isinstance(vid, str):
            raise InputError("vertices[%d].id must be a string" % i)
        ids.append(vid)
        side[vid] = entry.get("side")
        b[vid] = entry.get("b")
    arcs = []
    weights = []
    for i, entry in enumerate(data["arcs"]):
        if not isinstance(entry, dict):
            raise InputError("arcs[%d] must be an object" % i)
        weights.append(entry.get("weight", 0))
        ends = (entry.get("tail"), entry.get("head"))
        if not all(isinstance(v, str) for v in ends):
            raise InputError("arcs[%d].tail and .head must be strings" % i)
        arcs.append(ends)
    digraph = Digraph(ids, arcs)
    return Instance(digraph, side, b, weights)


def _read_json(path: str, what: str):
    """(document, text) of the JSON file at path; ``InputError`` naming the
    ``what`` file when it cannot be read, is not JSON, or holds an integer
    longer than the interpreter converts (``sys.get_int_max_str_digits``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        return json.loads(raw), raw
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s file: %s" % (what, exc))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError("%s file is not valid JSON: %s" % (what, exc))
    except ValueError:
        raise InputError("%s file holds an integer of more than %d digits"
                         % (what, sys.get_int_max_str_digits())) from None


def load_instance_file(path: str) -> tuple[Instance, str]:
    data, raw = _read_json(path, "instance")
    instance = load_instance_data(data)
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return instance, digest


def _json_value(obj):
    """json's fallback: a set as its sorted members, a rational as text."""
    return sorted(obj) if isinstance(obj, (set, frozenset)) else rat_str(obj)


def _write_json(obj) -> None:
    # One write: json.dump would write the document in about a hundred chunks.
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2,
                                default=_json_value) + "\n")


def emit_report(argv: list, instance_hash: str, status: str, payload: dict) -> None:
    _write_json({"command": argv, "instance_hash": instance_hash,
                 "status": status, "result": payload})


# ---------------------------------------------------------------------------
# Subcommands: each takes the loaded instance and returns its payload
# ---------------------------------------------------------------------------

def cmd_validate(args, instance: Instance) -> dict:
    sol, _ = _read_json(args.solution, "solution")
    if not isinstance(sol, dict) or not isinstance(sol.get("arcs"), list):
        raise InputError("solution file must contain an 'arcs' list")
    report = bibranching_report(instance, sol["arcs"])
    return {"conditions": report, "valid": all(e["ok"] for e in report.values())}


def cmd_solve(args, instance: Instance) -> dict:
    solution = solve_shortest(instance, method=args.method)
    # The LP route's dual bound is text, like the value, also when integral.
    certificate = {key: rat_str(val) if key == "dual_bound" else val
                   for key, val in solution.certificate.items()}
    return {
        "arcs": solution.arcs,
        "value": rat_str(solution.weight),
        "method": args.method,
        "certificate": certificate,
    }


def _witness_payload(witness) -> dict:
    return {
        "t_min": witness.t_min, "t_argmin": witness.t_argmin,
        "s_min": witness.s_min, "s_argmin": witness.s_argmin,
        "bicut_min": witness.bicut_min,
        "bicut_witness": witness.bicut_witness,
    }


def cmd_packing_number(args, instance: Instance) -> dict:
    from .packing import packing_number

    witness = packing_number(instance)
    return {"k": witness.k, **_witness_payload(witness)}


def cmd_pack(args, instance: Instance) -> dict:
    from .packing import pack_b_bibranchings

    cert = pack_b_bibranchings(instance)
    return {
        "k": cert.k,
        "witness": _witness_payload(cert.witness),
        "classes": cert.classes,
    }


def _check_tdi(instance, rng, trials):
    from .lpsolve import dual_key_str, tdi_spot_check

    outcome = tdi_spot_check(instance)  # raises unless it proves a dual
    primal = rat_str(outcome["primal"])
    detail = {
        "primal": primal,
        "bicut_rows": outcome["bicut_rows"],
        "uncrossing_steps": outcome["uncrossing_steps"],
        "dual": {
            "objective": primal,
            "y": {dual_key_str(key): rat_str(val) for key, val in outcome["y"].items()},
        },
    }
    return True, detail


def _check_mconvex(instance, rng, trials):
    """The M-natural exchange on random pairs in the domains of f and g:
    x = b - d_B, B a random b-branching, is in f's, and such an x plus a
    random 0/1 vector is in g's, since g(x) = f(x wedge b)."""
    from .mconvex import BBranchingOracle, check_mnat_exchange

    D, b = instance.digraph, instance.b
    oracle = BBranchingOracle(D, b, instance.weights)

    def point(lift):
        B = _random_b_branching(rng, D, b)
        return {v: b[v] - D.in_degree(B, v) + (rng.randint(0, 1) if lift else 0)
                for v in D.vertices}

    for kind, evaluator in (("f", oracle.eval_f), ("g", oracle.eval_g)):
        for _ in range(trials):
            x, y = point(kind == "g"), point(kind == "g")
            ok, counterexample = check_mnat_exchange(evaluator, D.vertices, x, y)
            if not ok:
                return False, {"function": kind, "counterexample": counterexample}
    return True, {"trials": {"f": trials, "g": trials}}


def _random_b_branching(rng, digraph, b):
    from .matroids import is_b_branching

    order = list(range(digraph.num_arcs()))
    rng.shuffle(order)
    current: set[int] = set()
    for a in order:
        if rng.random() < 0.6 and is_b_branching(digraph, b, current | {a}):
            current.add(a)
    return frozenset(current)


def _check_exchange(instance, rng, trials):
    """The exchange lemma's conclusions on random pairs of b-branchings.  A
    pass reports the pairs checked; sampling none is ``GuardError`` (exit 4)."""
    from .matroids import is_b_branching
    from .mconvex import exchange_b_branchings

    D = instance.digraph
    done = 0
    attempts = 0
    cases = {"a": 0, "b": 0}
    while done < trials and attempts < trials * 50:
        attempts += 1
        B1 = _random_b_branching(rng, D, instance.b)
        B2 = _random_b_branching(rng, D, instance.b)
        candidates = [v for v in D.vertices
                      if D.in_degree(B1, v) < D.in_degree(B2, v)]
        if not candidates:
            continue
        s = rng.choice(sorted(candidates))
        # exchange_b_branchings raises on a changed union or intersection.
        B1p, B2p, case = exchange_b_branchings(D, instance.b, B1, B2, s)
        cases[case] += 1
        failure = {"s": s, "case": case}
        if not (is_b_branching(D, instance.b, B1p)
                and is_b_branching(D, instance.b, B2p)):
            return False, dict(failure, stage="branchings")
        # Case (a) shifts one unit of indegree at s from B2 to B1; case (b)
        # also shifts one unit back at a single vertex t != s.
        shift = {v: (D.in_degree(B1p, v) - D.in_degree(B1, v),
                     D.in_degree(B2p, v) - D.in_degree(B2, v)) for v in D.vertices}
        others = [d for v, d in shift.items() if v != s and d != (0, 0)]
        if shift[s] != (1, -1) or others != ([] if case == "a" else [(-1, 1)]):
            return False, dict(failure, stage="degrees")
        done += 1
    if done == 0:
        raise GuardError("no pair of b-branchings sampled in %d attempts" % attempts)
    return True, {"trials": done, "cases": cases}


def _check_idp(instance, rng, trials):
    from .lpsolve import integer_decomposition_check

    # x sums k b-bibranchings, each LP-optimal under weights drawn from rng.
    D = instance.digraph
    side = {v: "S" if v in instance.S else "T" for v in D.vertices}
    k = max(2, min(3, trials))
    x = [0] * D.num_arcs()
    for _ in range(k):
        weights = [rng.randint(0, 20) for _ in x]
        for a in solve_shortest(Instance(D, side, instance.b, weights),
                                method="lp").arcs:
            x[a] += 1
    classes = integer_decomposition_check(instance, k, x)
    return True, {"k": k, "classes": classes}


def cmd_check(args, instance: Instance) -> dict:
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    rng = random.Random(args.seed)
    checkers = {"tdi": _check_tdi, "mconvex": _check_mconvex,
                "exchange": _check_exchange, "idp": _check_idp}
    passed, detail = checkers[args.what](instance, rng, args.trials)
    return {"check": args.what, "passed": passed, "detail": detail}


def cmd_gen(args) -> int:
    if args.nS < 1 or args.nT < 1:
        raise InputError("nS and nT must be positive")
    if not (0.0 <= args.arc_density <= 1.0):
        raise InputError("arc density must lie in [0, 1]")
    if args.bmax < 1 or args.wmax < 0:
        raise InputError("bmax must be >= 1 and wmax >= 0")
    rng = random.Random(args.seed)
    s_ids = ["s%d" % i for i in range(args.nS)]
    t_ids = ["t%d" % i for i in range(args.nT)]
    vertices = [{"id": v, "side": "S", "b": rng.randint(1, args.bmax)}
                for v in s_ids]
    vertices += [{"id": v, "side": "T", "b": rng.randint(1, args.bmax)}
                 for v in t_ids]
    allowed = []
    for u in s_ids:
        allowed += [(u, v) for v in s_ids if v != u]
        allowed += [(u, v) for v in t_ids]
    for u in t_ids:
        allowed += [(u, v) for v in t_ids if v != u]
    arcs = []
    for tail, head in allowed:
        if rng.random() < args.arc_density:
            arcs.append({"tail": tail, "head": head,
                         "weight": rng.randint(0, args.wmax)})
    _write_json({"vertices": vertices, "arcs": arcs})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbibranch",
        description="exact solvers and checkers for b-bibranchings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="shortest b-bibranching")
    p.add_argument("instance")
    p.add_argument("--method", choices=["lp", "mflow", "brute", "auto"],
                   default="auto")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("packing-number", help="exact disjoint-packing value")
    p.add_argument("instance")
    p.set_defaults(func=cmd_packing_number)

    p = sub.add_parser("pack", help="construct a maximum disjoint packing")
    p.add_argument("instance")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("check", help="property spot checks")
    p.add_argument("instance")
    p.add_argument("--what", choices=["tdi", "mconvex", "exchange", "idp"],
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nS", type=int, required=True)
    p.add_argument("--nT", type=int, required=True)
    p.add_argument("--arc-density", type=float, default=0.5)
    p.add_argument("--bmax", type=int, default=1)
    p.add_argument("--wmax", type=int, default=9)
    return parser


def main(argv=None) -> int:
    """Parse argv; load the instance, run the command and write its report,
    each once; status ``failed`` is a check that does not pass."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        if args.command == "gen":
            return cmd_gen(args)
        instance, digest = load_instance_file(args.instance)
        payload = args.func(args, instance)
        status = "ok" if payload.get("passed", True) else "failed"
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except GuardError as exc:
        print("guard exceeded: %s" % exc, file=sys.stderr)
        return EXIT_GUARD
    except InfeasibleInstance as exc:
        status = "infeasible"
        payload = {"message": str(exc), "witness": exc.witness}
    except TheoremViolation as exc:
        print("theorem violation: %s" % exc, file=sys.stderr)
        status = "theorem_violation"
        payload = {"message": str(exc), "payload": exc.payload}
    emit_report(argv, digest, status, payload)
    return EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
