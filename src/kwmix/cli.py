"""Experiment runner: every operation as a reproducible subcommand.

A subcommand parses its arguments, makes one library call and renders
what the call returns; the experiment itself, its draws and its checks
of the configuration live in the library.

Each invocation runs exactly one experiment, writes a machine-readable
result (CSV or JSON, floats at 17 significant digits), and, when writing
to a file, a metadata sidecar carrying the package version, the exact
command line, and the wall time. Result files contain no timestamps, so
identical configuration and seed give byte-identical bytes. A kernel
dump is streamed to stdout or the --out file, never held whole.

Exit codes: 0 success, 2 invalid configuration, 3 state-space cap
exceeded or memory exhausted, 4 internal invariant violation. Exit 2
also covers a mix-exact run that does not mix within --max-steps, a
mix-mc run that expects fewer than 5 samples per state (too few for its
chi-square test), a batch file that cannot be read as a list of command
lines, and an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
import time
from dataclasses import asdict

from . import __version__
from .analysis import chain_rule_check, lsc_search, paper_alpha_floor, spectral_gap
from .chains import FAMILIES, GATE_MODES, ChainSpec, build_kernel
from .comparison import UNIVERSAL_CONGESTION_BOUND, compare_check, congestion_delta
from .errors import InvariantViolation, StateCapExceeded
from .generic import (
    generic_fraction_exact,
    generic_fraction_mc,
    make_partition,
    verify_tgrev_product_structure,
)
from .mixing import (
    MIN_EXPECTED_COUNT,
    SAMPLERS,
    STATISTICS,
    end_state_test,
    kwise_stat_mc,
    kwise_tv_exact,
    mixing_curve,
)
from .reports import csv_lines, dump_kernel, json_dumps


def _chain_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--chain", required=True, choices=FAMILIES)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--n", type=int, help="wires (rev/grev/tgrev)")
    sub.add_argument("--N", type=int, dest="ncolors", help="colors (cc/ucc/complete)")
    sub.add_argument("--gate-mode", choices=GATE_MODES, default="parameter")
    sub.add_argument("--part-w", type=int, help="partition block width override")
    sub.add_argument("--part-p", type=int, help="partition block count override")


def _common_arguments(sub: argparse.ArgumentParser, seed: bool = False,
                      format_help: str | None = None) -> None:
    """--format and --out; --seed only for subcommands that draw randomness."""
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help=format_help)
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


def _spec_from_args(args: argparse.Namespace) -> ChainSpec:
    partition = None
    if args.chain in ("grev", "tgrev"):
        if args.n is None:
            raise ValueError(f"--chain {args.chain} needs --n")
        partition = make_partition(args.n, args.k, w=args.part_w, p=args.part_p)
    elif args.part_w is not None or args.part_p is not None:
        raise ValueError(f"--chain {args.chain} takes no --part-w or --part-p")
    return ChainSpec(
        family=args.chain,
        k=args.k,
        n=args.n,
        ncolors=args.ncolors,
        partition=partition,
        gate_mode=args.gate_mode,
    )


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwmix",
        description="Exact and Monte Carlo experiments on the mixing chains "
                    "of random reversible circuits and clique recoloring.",
    )
    parser.add_argument("--version", action="version", version=f"kwmix {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("kernel-dump", help="write an exact kernel "
                          "(JSON header line + row,col,prob CSV triples)")
    _chain_arguments(sub)
    _common_arguments(sub, format_help="ignored: the dump is always a JSON header "
                      "line and row,col,prob CSV triples")

    sub = subs.add_parser("gap", help="spectral gap of an exact kernel")
    _chain_arguments(sub)
    _common_arguments(sub)

    sub = subs.add_parser("lsc-search", help="multi-start search for small "
                          "log-Sobolev ratios (upper bounds on the constant)")
    _chain_arguments(sub)
    sub.add_argument("--restarts", type=int, default=200)
    _common_arguments(sub, seed=True)

    sub = subs.add_parser("chain-rule-check", help="residual of the "
                          "conditional-entropy chain rule on random functions")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--N", type=int, dest="ncolors", required=True)
    sub.add_argument("--count", type=int, default=100)
    _common_arguments(sub, seed=True)

    sub = subs.add_parser("congestion", help="exact comparison constant of "
                          "the uniform-to-standard recoloring path map")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--N", type=int, dest="ncolors", required=True)
    _common_arguments(sub)

    sub = subs.add_parser("compare-check", help="Dirichlet-form comparison "
                          "residual on random functions")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--N", type=int, dest="ncolors", required=True)
    sub.add_argument("--count", type=int, default=100)
    _common_arguments(sub, seed=True)

    sub = subs.add_parser("mix-exact", help="exact mixing time and TV decay")
    _chain_arguments(sub)
    sub.add_argument("--eps", type=float, default=0.25)
    sub.add_argument("--max-steps", type=int, default=100_000)
    _common_arguments(sub)

    sub = subs.add_parser("mix-mc", help="sampled end-state frequencies of "
                          "t-step trajectories vs the uniform stationary law")
    _chain_arguments(sub)
    sub.add_argument("--t", type=int, required=True)
    sub.add_argument("--samples", type=int, default=100_000)
    _common_arguments(sub, seed=True)

    sub = subs.add_parser("kwise-exact", help="exact k-wise approximation "
                          "error of the t-gate circuit (max-start TV)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--t", type=int, required=True)
    sub.add_argument("--gate-mode", choices=GATE_MODES, default="parameter")
    _common_arguments(sub)

    sub = subs.add_parser("kwise-test", help="chi-square test of a projected "
                          "circuit-output statistic against its uniform law")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--gates", type=int, required=True)
    sub.add_argument("--samples", type=int, default=100_000)
    sub.add_argument("--statistic", choices=STATISTICS, default="xor")
    sub.add_argument("--bins", type=int, help="hamming takes n + 1 - 2a bins for some "
                     "a >= 0, the weights <= a and >= n - a pooled into the two end bins; "
                     "default: the smallest such a for hamming, otherwise min(64, 2^n) "
                     f"halved, until no bin expects fewer than {MIN_EXPECTED_COUNT} "
                     "samples (never below 2 bins)")
    sub.add_argument("--sampler", choices=SAMPLERS, default="circuit")
    _common_arguments(sub, seed=True)

    sub = subs.add_parser("generic-frac", help="generic-state fraction "
                          "(Monte Carlo with Wilson interval, or exact)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--part-w", type=int)
    sub.add_argument("--part-p", type=int)
    sub.add_argument("--samples", type=int, default=10_000)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="enumerate all distinct "
                      "tuples (at most 10^7) instead of sampling; takes no --seed")
    mode.add_argument("--seed", type=int, default=0)
    _common_arguments(sub)

    sub = subs.add_parser("tgrev-verify", help="verify the product structure "
                          "of the generic-state product chain")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--part-w", type=int, required=True)
    sub.add_argument("--part-p", type=int, required=True)
    _common_arguments(sub)

    sub = subs.add_parser("batch", help="run a JSON list of saved command "
                          "lines (e.g. from metadata sidecars)")
    sub.add_argument("file", help="JSON: list of argv lists, or an object "
                     "with a 'command' key as written to sidecars")
    return parser


# ---------------------------------------------------------------------------
# Subcommands: each returns (json_obj, csv_header, csv_rows), or a writer
# ---------------------------------------------------------------------------


def _one_row(obj: dict) -> tuple[dict, tuple, list[tuple]]:
    """A result whose CSV is one row of all its JSON values, keys as header."""
    return obj, tuple(obj), [tuple(obj.values())]


def _run_kernel_dump(args) -> functools.partial:
    return functools.partial(dump_kernel, build_kernel(_spec_from_args(args)))


def _run_gap(args):
    spec = _spec_from_args(args)
    kernel = build_kernel(spec)
    gap = spectral_gap(kernel)
    return _one_row({"kernel": spec.label(), "states": kernel.size, "spectral_gap": gap})


def _run_lsc_search(args):
    spec = _spec_from_args(args)
    kernel = build_kernel(spec)
    result = lsc_search(kernel, restarts=args.restarts, seed=args.seed)
    bound_ln = paper_alpha_floor(spec)
    bound_lg2 = paper_alpha_floor(spec, 2.0)
    return _one_row({
        "kernel": spec.label(),
        "restarts": result.restarts,
        "best_ratio": result.best_ratio,
        "paper_bound": bound_ln,
        "margin": None if bound_ln is None else result.best_ratio - bound_ln,
        "paper_bound_log2": bound_lg2,
        "margin_log2": None if bound_lg2 is None else result.best_ratio - bound_lg2,
        "evaluations": result.evaluations,
    })


def _run_chain_rule_check(args):
    obj = asdict(chain_rule_check(args.k, args.ncolors, args.count, args.seed))
    rows = [(obj["k"], obj["N"], c["i"], obj["count"], c["max_abs_residual"],
             c["max_rel_residual"]) for c in obj["per_coordinate"]]
    return obj, ("k", "N", "i", "count", "max_abs_residual", "max_rel_residual"), rows


def _run_congestion(args):
    result = congestion_delta(args.k, args.ncolors)
    return _one_row({
        "k": result.k, "N": result.N,
        "A_delta_exact": result.a_delta,
        "paper_bound_19": UNIVERSAL_CONGESTION_BOUND,
        "formula_bound": result.formula_bound,
        "argmax_edge": f"{result.argmax_edge[0]}->{result.argmax_edge[1]}",
    })


def _run_compare_check(args):
    return _one_row(asdict(compare_check(args.k, args.ncolors, args.count, args.seed)))


def _run_mix_exact(args):
    spec = _spec_from_args(args)
    kernel = build_kernel(spec)
    try:
        tau, curve = mixing_curve(kernel, args.eps, max_steps=args.max_steps)
    except RuntimeError as exc:
        raise ValueError(f"{exc}; raise --max-steps") from exc
    series = list(enumerate(curve))
    obj = {"kernel": spec.label(), "epsilon": args.eps, "tau": tau,
           "series": [{"t": t, "tv": v} for t, v in series]}
    return obj, ("t", "tv"), series


def _run_mix_mc(args):
    spec = _spec_from_args(args)
    report = end_state_test(spec, args.t, args.samples, args.seed)
    obj = {"kernel": spec.label(), "t": args.t, "samples": args.samples,
           **asdict(report), "seed": args.seed}
    header = ("kernel", "t", "samples", "states", "chi2", "dof", "p_value",
              "empirical_tv", "seed")
    return obj, header, [tuple(obj[h] for h in header)]


def _run_kwise_exact(args):
    series = list(enumerate(kwise_tv_exact(args.n, args.k, args.t, args.gate_mode)))
    obj = {"n": args.n, "k": args.k, "gate_mode": args.gate_mode,
           "series": [{"t": t, "tv": v} for t, v in series],
           "final_tv": series[-1][1]}
    return obj, ("t", "tv"), series


def _run_kwise_test(args):
    report = kwise_stat_mc(
        n=args.n, k=args.k, gates=args.gates, samples=args.samples,
        statistic=args.statistic, seed=args.seed, bins=args.bins,
        sampler=args.sampler,
    )
    return _one_row({"M" if key == "samples" else key: value
                     for key, value in asdict(report).items()})


def _run_generic_frac(args):
    partition = make_partition(args.n, args.k, w=args.part_w, p=args.part_p)
    if args.exact:
        frac = generic_fraction_exact(partition)
        obj = {"n": args.n, "k": args.k, "w": partition.w, "p": partition.p,
               "mode": "exact", "fraction": float(frac),
               "fraction_numerator": frac.numerator,
               "fraction_denominator": frac.denominator}
        header = ("n", "k", "w", "p", "mode", "fraction")
        return obj, header, [tuple(obj[h] for h in header)]
    est = generic_fraction_mc(partition, args.samples, seed=args.seed)
    obj = {"n": args.n, "k": args.k, "w": partition.w, "p": partition.p,
           "mode": "mc", **asdict(est), "seed": args.seed}
    header = ("n", "k", "w", "p", "mode", "fraction", "wilson_low",
              "wilson_high", "union_bound_low", "samples", "seed")
    return obj, header, [tuple(obj[h] for h in header)]


def _run_tgrev_verify(args):
    partition = make_partition(args.n, args.k, w=args.part_w, p=args.part_p)
    report = verify_tgrev_product_structure(partition)
    return _one_row({
        "n": args.n, "k": args.k, "w": partition.w, "p": partition.p,
        **asdict(report), "passes": report.passes(),
    })


_RUNNERS = {
    "kernel-dump": _run_kernel_dump,
    "gap": _run_gap,
    "lsc-search": _run_lsc_search,
    "chain-rule-check": _run_chain_rule_check,
    "congestion": _run_congestion,
    "compare-check": _run_compare_check,
    "mix-exact": _run_mix_exact,
    "mix-mc": _run_mix_mc,
    "kwise-exact": _run_kwise_exact,
    "kwise-test": _run_kwise_test,
    "generic-frac": _run_generic_frac,
    "tgrev-verify": _run_tgrev_verify,
}


def _render(args, obj, header, rows) -> str:
    if args.format == "json":
        return json_dumps(obj) + "\n"
    return "\n".join(csv_lines(header, rows)) + "\n"


def _write_result(args, argv: list[str], result, started: float) -> None:
    """Call a writer, or write a rendered triple, on stdout or --out."""
    write = result if callable(result) else operator.methodcaller(
        "write", _render(args, *result))
    if args.out == "-":
        write(sys.stdout)
        return
    with open(args.out, "w") as fp:
        write(fp)
    params = {k: v for k, v in vars(args).items() if k != "subcommand"}
    sidecar = {
        "version": __version__,
        "command": argv,
        "params": params,
        "output": args.out,
        "wall_time_s": time.perf_counter() - started,
    }
    with open(args.out + ".meta.json", "w") as fp:
        fp.write(json_dumps(sidecar) + "\n")


def _batch_commands(path: str) -> list[list[str]]:
    """The argv lists of a batch file: a JSON list of argv lists or of
    objects with a 'command' key (as written to sidecars), or one object."""
    with open(path) as fp:
        payload = json.load(fp)
    entries = [payload] if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ValueError(f"batch file {path} holds no list of command lines")
    commands = [entry.get("command") if isinstance(entry, dict) else entry
                for entry in entries]
    for entry, argv in zip(entries, commands):
        if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
            raise ValueError(f"batch entry {entry!r} holds no list of strings")
        if argv[:1] == ["batch"]:
            raise ValueError(f"batch entry {entry!r} is itself a batch")
    return commands


def _batch_entry(argv: list[str]) -> int:
    """Exit code of one batch entry, an argparse rejection included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.subcommand == "batch":
            return max(map(_batch_entry, _batch_commands(args.file)), default=0)
        _write_result(args, argv, _RUNNERS[args.subcommand](args), started)
    except (ValueError, IndexError, OSError) as exc:
        print(f"kwmix: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except StateCapExceeded as exc:
        print(f"kwmix: state cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"kwmix: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"kwmix: internal invariant violated: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
