"""Command-line front end.

Every subcommand is a thin adapter over the library: parse arguments, call
one library entry point, print with a fixed format (floats always carry six
decimals so output is byte-stable across runs).

Exit codes: 0 success, 1 a verification suite found a counterexample,
2 usage or input errors (a suite that found nothing to check among them),
and also any unexpected internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

from . import census, eigen, graph6, multipartite, verify
from .census import format_float
from .graphs import complete_multipartite
from .indices import INDEX_NAMES, compute_indices


def _print_analytic(spec: multipartite.AnalyticSpectrum) -> None:
    print("value\tmult\tprovenance")
    for e in spec.entries:
        print(f"{format_float(e.value)}\t{e.multiplicity}\t{e.provenance}")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_spectrum(args: argparse.Namespace) -> int:
    g = graph6.decode(args.graph)
    vals = eigen.spectrum(g)
    nullity = eigen.nullity(vals, args.zero_tol)
    print(f"order {g.order} edges {g.edge_count}")
    print("spectrum " + " ".join(format_float(v) for v in vals))
    print(f"nullity {nullity}")
    return 0


def _cmd_indices(args: argparse.Namespace) -> int:
    g = graph6.decode(args.graph)
    idx = compute_indices(eigen.spectrum(g), args.zero_tol)
    for name in ("lambda_max", "lambda_min", "lambda_plus", "lambda_minus"):
        print(f"{name} {format_float(getattr(idx, name))}")
    for name in ("gap", "ind", "pow"):
        print(f"{name} {format_float(idx.by_name(name))}")
    return 0


def _parse_parts(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad part list {text!r}") from exc


def _cmd_multipartite(args: argparse.Namespace) -> int:
    spec = multipartite.multipartite_spectrum(args.parts)
    if args.mode in ("analytic", "both"):
        _print_analytic(spec)
    if args.mode in ("numeric", "both"):
        dense = eigen.spectrum(complete_multipartite(args.parts))
        print("numeric " + " ".join(format_float(v) for v in dense))
    if args.mode == "both":
        dev = float(np.max(np.abs(spec.values() - dense)))
        print(f"max_deviation {dev:.3e}")
    idx = spec.indices()
    print(f"gap {format_float(idx.gap)} ind {format_float(idx.ind)} "
          f"pow {format_float(idx.power)}")
    return 0


def _cmd_perturbed(args: argparse.Namespace) -> int:
    family = args.family.replace("-", "_")
    if family == "kmm_minus_e":
        spec = multipartite.kmm_minus_e_spectrum(args.m)
    else:  # argparse choices admit only the two families
        spec = multipartite.kmm_plus_e_spectrum(args.m)
    _print_analytic(spec)
    idx = spec.indices()
    print(f"gap {format_float(idx.gap)} ind {format_float(idx.ind)} "
          f"pow {format_float(idx.power)}")
    print(f"gap_limit_residual {abs(idx.gap - 2.0):.6e}")
    if family == "kmm_plus_e":
        print(f"ind_limit_residual {abs(idx.ind - 1.0):.6e}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    report = census.run_census(
        census._census_source(args.order, args.file), zero_tol=args.zero_tol,
        threads=args.threads, chunk_size=args.chunk_size,
    )
    os.makedirs(args.out, exist_ok=True)
    stats_path = os.path.join(args.out, "stats.csv")
    census.write_stats_csv(report, stats_path)
    hist_paths = census.write_histogram_csvs(report, args.out)
    print(f"order {report.order} count {report.count} "
          f"rejected_disconnected {report.rejected_disconnected}")
    for name in INDEX_NAMES:
        s = report.stats[name].finalize()
        mean = format_float(s.mean) if s.mean is not None else "-"
        std = format_float(s.std) if s.std is not None else "-"
        print(f"{name} mean {mean} std {std} "
              f"min {format_float(s.minimum)} max {format_float(s.maximum)}")
    print(f"wrote {stats_path} and {len(hist_paths)} histogram files")
    return 0


def _cmd_extremal(args: argparse.Namespace) -> int:
    name = {"lmax": "lambda_max", "lmin": "lambda_min"}.get(args.index, args.index)
    result = census.extremal(
        census._census_source(args.order, args.file), name, args.dir,
        zero_tol=args.zero_tol, threads=args.threads,
    )
    print(f"{result.direction} {result.index} {format_float(result.value)} "
          f"over {result.count} graphs")
    for w in result.witnesses:
        spec = eigen.spectrum(graph6.decode(w))
        print(f"witness {w} spectrum "
              + " ".join(format_float(v) for v in spec))
    if result.overflow:
        print(f"witness_overflow {result.overflow}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = verify.run_check(args.check, args.order, args.file, args.threads)
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.name} {status} checked {result.checked} "
          f"skipped {result.skipped}")
    if result.failures:
        print(f"first_counterexample {result.failures[0]}")
        return 1
    if not result.checked:
        # nothing was checked, so nothing was refuted either: not exit 1
        print(f"error: {result.name} found no case to check at order "
              f"{args.order}", file=sys.stderr)
        return 2
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    w = multipartite.density_search(args.delta, args.gamma)
    print(f"m1 {w.m1} m2 {w.m2} order {w.order} gap {format_float(w.gap)}")
    print(f"window [{format_float(w.order - args.gamma)}, "
          f"{format_float(w.order - args.delta)}]")
    return 0


def _cmd_approx_count(args: argparse.Namespace) -> int:
    approx = multipartite.approx_connected_count(args.order)
    line = f"order {args.order} approx {approx:.1f}"
    true = census.KNOWN_CONNECTED_COUNTS.get(args.order)
    if true is not None:
        rel = abs(approx - true) / true
        line += f" true {true} rel_error {rel:.4f}"
    else:  # past the known counts the formula was fitted to
        line += " extrapolated"
    print(line)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgap",
        description="Spectral gap, index and power analysis of connected graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # census, extremal and verify eigensolve their census blocks in a pool
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1,
        help="threads that solve the census blocks (default: the CPU "
             "count); any count gives the same output, and verify's prop1, "
             "prop3 and prop4, which read no census, ignore it")

    for name, what, fn in (("spectrum", "eigenvalues", _cmd_spectrum),
                           ("indices", "spectral indices", _cmd_indices)):
        p = sub.add_parser(name, help=f"{what} of one graph6 graph")
        p.add_argument("graph", help="graph6 string")
        p.add_argument("--zero-tol", type=float, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("multipartite", help="closed-form multipartite spectrum")
    p.add_argument("--parts", type=_parse_parts, required=True,
                   help="comma-separated part sizes, e.g. 1,2,3")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--analytic", dest="mode", action="store_const",
                      const="analytic")
    mode.add_argument("--numeric", dest="mode", action="store_const",
                      const="numeric")
    mode.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(fn=_cmd_multipartite, mode="both")

    p = sub.add_parser("perturbed",
                       help="balanced bipartite graph with one edge changed")
    p.add_argument("--family", required=True,
                   choices=["kmm_minus_e", "kmm_plus_e",
                            "kmm-minus-e", "kmm-plus-e"])
    p.add_argument("--m", type=int, required=True, help="part size")
    p.set_defaults(fn=_cmd_perturbed)

    p = sub.add_parser("census", help="index statistics over a census",
                       parents=[threads])
    p.add_argument("--order", type=int, default=None,
                   help="use the built-in enumeration of this order")
    p.add_argument("--file", default=None, help="graph6 file to read instead")
    p.add_argument("--out", default=".", help="directory for CSV output")
    p.add_argument("--chunk-size", type=int, default=census.CHUNK_SIZE)
    p.add_argument("--zero-tol", type=float, default=None)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("extremal", help="extreme index value with witnesses",
                       parents=[threads])
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--index", required=True,
                   choices=list(INDEX_NAMES) + ["lmax", "lmin"])
    p.add_argument("--dir", required=True, choices=["min", "max"])
    p.add_argument("--zero-tol", type=float, default=None)
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("verify", help="run one verification suite",
                       parents=[threads])
    p.add_argument("--check", required=True, choices=list(verify.CHECK_NAMES))
    p.add_argument("--order", type=int, required=True,
                   help="census order, or the largest part size for prop3/4")
    p.add_argument("--file", default=None,
                   help="graph6 census file for the census suites "
                        "(defaults to built-in enumeration)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("density", help="bipartite gap witness in a unit window")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("approx-count",
                       help="approximate number of connected graphs")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=_cmd_approx_count)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (args.command in ("census", "extremal")
            and (args.order is None) == (args.file is None)):
        parser.error("give exactly one of --order or --file")
    if args.command == "census" and min(args.threads, args.chunk_size) < 1:
        parser.error("--threads and --chunk-size must be at least 1")
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be at least 1")
    try:
        return args.fn(args)
    except (ValueError, OSError, multipartite.SearchBudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never let a bug pass for a counterexample (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
