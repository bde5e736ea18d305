"""Command-line surface.

Subcommands: orbit, image, moments, mu, ucount, enum-graphs, curves, decomp,
sweep, verify.  Exit codes: 0 success, 1 check failure, 2 invalid
configuration, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, curves, dynamics, graphs, lab, recur
from .dynamics import poly_map
from .errors import BudgetError
from .report import render_records, writable, write_output

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_BUDGET = 3


def _add_map_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="prime modulus")
    parser.add_argument("--d", type=int, required=True, help="iteration degree")
    parser.add_argument("--A", type=int, required=True, help="leading coefficient")
    parser.add_argument("--C", type=int, required=True, help="constant term")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyiter",
        description="Iterated maps A*x^d + C over prime fields: images, "
                    "orbits, graph counts, curve point counts, and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    orbit = sub.add_parser("orbit", help="tail and cycle of the orbit of 0")
    _add_map_args(orbit)
    _add_output_args(orbit)

    image = sub.add_parser("image", help="image size of the N-th iterate")
    _add_map_args(image)
    image.add_argument("--N", type=int, default=1)
    _add_output_args(image)

    moments = sub.add_parser("moments", help="preimage moments W(N, k) for k = 0..K")
    _add_map_args(moments)
    moments.add_argument("--N", type=int, default=1)
    moments.add_argument("--k", type=int, default=3, help="largest moment order")
    _add_output_args(moments)

    mu = sub.add_parser("mu", help="exact density sequence mu_0..mu_R")
    mu.add_argument("--d", type=int, required=True)
    mu.add_argument("--r", type=int, default=8, help="largest level")
    _add_output_args(mu)

    ucount = sub.add_parser("ucount", help="complete proper graph count U(r, k)")
    ucount.add_argument("--d", type=int, required=True)
    ucount.add_argument("--r", type=int, required=True)
    ucount.add_argument("--k", type=int, required=True)
    _add_output_args(ucount)

    enum_graphs = sub.add_parser("enum-graphs", help="enumerate complete proper graphs")
    enum_graphs.add_argument("--d", type=int, required=True)
    enum_graphs.add_argument("--r", type=int, required=True)
    enum_graphs.add_argument("--k", type=int, required=True)
    enum_graphs.add_argument("--trees", action="store_true",
                             help="enumerate trees instead of complete graphs")
    enum_graphs.add_argument("--out", default=None)

    curves_cmd = sub.add_parser("curves", help="point counts of graph varieties")
    _add_map_args(curves_cmd)
    curves_cmd.add_argument("--N", type=int, default=1,
                            help="ambient depth for the Weil bound")
    curves_cmd.add_argument("--k", type=int, default=2)
    curves_cmd.add_argument("--r", type=int, default=None,
                            help="graph level (default N-1)")
    curves_cmd.add_argument("--graph", default=None,
                            help="canonical graph text; counts all enumerated "
                                 "graphs when omitted")
    _add_output_args(curves_cmd)

    decomp = sub.add_parser("decomp", help="union-vs-variety decomposition report")
    _add_map_args(decomp)
    decomp.add_argument("--N", type=int, default=1)
    decomp.add_argument("--k", type=int, default=2)
    _add_output_args(decomp)

    sweep = sub.add_parser("sweep", help="prime-range experiments")
    sweep.add_argument("--mode", choices=("theorem", "collision", "graph"),
                       default="theorem")
    sweep.add_argument("--d", type=int, required=True)
    sweep.add_argument("--N", type=int, default=1)
    sweep.add_argument("--p-min", type=int, required=True)
    sweep.add_argument("--p-max", type=int, required=True)
    sweep.add_argument("--per-prime", type=int, default=1)
    sweep.add_argument("--policy", choices=("all", "random"), default="random")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--require-precondition", action="store_true")
    _add_output_args(sweep)

    verify = sub.add_parser("verify", help="run the cross-module oracle suite")
    verify.add_argument("--quick", action="store_true",
                        help="reduced instance matrix")
    verify.add_argument("--out", default=None, help="manifest path (default stdout)")

    return parser


def _emit(records: list[dict], args) -> None:
    rows = [tuple(rec.values()) for rec in records]
    write_output(render_records(rows, list(records[0]), args.format), args.out)


def _run_orbit(args) -> int:
    f = poly_map(args.p, args.d, args.A, args.C)
    orbit = dynamics.orbit_of_zero(f)
    _emit([{
        "p": args.p, "d": args.d, "A": args.A, "C": args.C,
        "tail_len": orbit.tail_len, "cycle_len": orbit.cycle_len,
        "collision_index": orbit.collision_index,
    }], args)
    return EXIT_OK


def _run_image(args) -> int:
    f = poly_map(args.p, args.d, args.A, args.C)
    size = dynamics.image_size(f, args.N)
    _emit([{
        "p": args.p, "d": args.d, "A": args.A, "C": args.C, "N": args.N,
        "image_size": size, "zero_preimages": args.p - size,
        "precondition": dynamics.check_precondition(f, args.N),
    }], args)
    return EXIT_OK


def _run_moments(args) -> int:
    if args.k < 0:
        raise ValueError("--k must be nonnegative")
    f = poly_map(args.p, args.d, args.A, args.C)
    # W(N, 0) = W(N, 1) = p and every term n_j * j**k of W(N, k) is
    # nondecreasing in k, so no moment past the first too long to write is
    # computed: writable refuses that one as it comes
    moments = writable(dynamics.moment_w(f, args.N, k) for k in range(args.k + 1))
    records = [
        {"p": args.p, "d": args.d, "A": args.A, "C": args.C, "N": args.N, "k": k, "w": w}
        for k, w in enumerate(moments)
    ]
    _emit(records, args)
    return EXIT_OK


def _run_mu(args) -> int:
    # mu_r is n/d**e in lowest terms, e = (d**r - 1)/(d - 1), as n stays prime
    # to d.  Levels are computed only up to the first whose denominator is
    # past 10**limit, the least int CPython will not write (limit 0: no cap),
    # and writable refuses that one before any is rendered.  The test caps e
    # at 4 * limit, where d**e >= 16**limit is past already.
    d, limit = args.d, sys.get_int_max_str_digits()
    top, e = args.r, 0
    for r in range(args.r if d > 1 and limit else 0):  # mu_sequence refuses d < 2
        if d ** min(e, 4 * limit) >= 10**limit:
            top = r
            break
        e = d * e + 1
    levels = writable(recur.mu_sequence(d, top))
    records = [{"d": d, "r": r, "mu": mu, "mu_decimal": float(mu)} for r, mu in enumerate(levels)]
    _emit(records, args)
    return EXIT_OK


def _run_ucount(args) -> int:
    record = {"d": args.d, "r": args.r, "k": args.k,
              "u": recur.u_value(args.d, args.r, args.k)}
    _emit([record], args)
    return EXIT_OK


def _run_enum_graphs(args) -> int:
    if args.trees:
        found = graphs.enumerate_trees(args.r, args.k, args.d)
    else:
        found = graphs.enumerate_complete_proper(args.r, args.k, args.d)
    write_output("".join(g.canonical() + "\n" for g in found), args.out)
    return EXIT_OK


def _run_curves(args) -> int:
    f = poly_map(args.p, args.d, args.A, args.C)
    level = args.N - 1 if args.r is None else args.r
    if args.graph is not None:
        g = graphs.parse_canonical(args.graph)
        violation = graphs.graph_violation(g)
        if violation is not None:
            raise ValueError(violation)
        graph_list = [g]
    else:
        graph_list = graphs.enumerate_complete_proper(level, args.k, args.d)
    records = []
    for g in graph_list:
        pts = curves.count_curve_points(f, g)
        total = pts.total
        records.append({
            "p": args.p, "d": args.d, "A": args.A, "C": args.C,
            "N": args.N, "k": g.k, "graph": g.canonical(),
            "affine": pts.affine_count, "infinity": pts.infinity_count,
            "total": total, "weil_dev": curves.weil_deviation(args.p, total),
        })
    _emit(records, args)
    return EXIT_OK


def _run_decomp(args) -> int:
    f = poly_map(args.p, args.d, args.A, args.C)
    report = curves.decomposition_check(f, args.N, args.k)
    _emit([vars(report)], args)
    return EXIT_OK if report.union_equals_cr and report.affine_equals_w else EXIT_CHECK_FAILED


def _run_sweep(args) -> int:
    cfg = lab.SweepConfig(
        d=args.d, N=args.N, p_min=args.p_min, p_max=args.p_max,
        per_prime=args.per_prime, policy=args.policy, seed=args.seed,
        require_precondition=args.require_precondition,
    )
    # looked up on lab per call, so wrappers installed on the module
    # (perfbench/tracing.py) also see CLI sweeps
    runners = {
        "theorem": (lab.sweep_theorem, lab.THEOREM_FIELDS),
        "collision": (lab.collision_stats, lab.COLLISION_FIELDS),
        "graph": (lab.graph_sweep, lab.GRAPH_FIELDS),
    }
    runner, fields = runners[args.mode]
    records, summary = runner(cfg)
    metadata = {
        "seed": cfg.seed,
        "generator": lab.GENERATOR_NAME,
        "log_base": "e",
        "version": __version__,
        "mode": args.mode,
        "summary": summary,
    }
    write_output(render_records(records, fields, args.format, metadata), args.out)
    print(f"# {args.mode} sweep: {summary}", file=sys.stderr)
    return EXIT_OK


def _run_verify(args) -> int:
    manifest = lab.verify_all(desk=not args.quick)
    for check in manifest["checks"]:
        status = "PASS" if check["ok"] else "FAIL"
        print(f"{status} {check['name']}: {check['detail']}", file=sys.stderr)
    text = json.dumps(manifest, indent=2) + "\n"
    write_output(text, args.out)
    return EXIT_OK if manifest["ok"] else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "orbit": _run_orbit,
        "image": _run_image,
        "moments": _run_moments,
        "mu": _run_mu,
        "ucount": _run_ucount,
        "enum-graphs": _run_enum_graphs,
        "curves": _run_curves,
        "decomp": _run_decomp,
        "sweep": _run_sweep,
        "verify": _run_verify,
    }
    try:
        return handlers[args.command](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
