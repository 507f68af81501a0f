"""Output checks of the benchmark commands against reference outputs.

The references in ``reference/`` were recorded at the parent commit with
``record_reference.py``. Each check returns a list of problems; an empty list
means the output is correct.

- Integers and labels must match exactly.
- Exact floats (TV series, gaps, congestion, residuals, kernel-dump
  probabilities) must match within ``REL_TOL`` relative or ``ABS_TOL``
  absolute, so that refactors may move last ulps.
- ``lsc-search``: ``best_ratio`` stays above ``paper_bound`` and within
  ``SEARCH_REL_TOL`` of the reference, whatever the seed.
- Monte Carlo outputs are checked statistically, since their streams may
  change: each chi-square ``p_value`` is at least ``P_FLOOR`` and the
  ``generic-frac`` Wilson interval holds the closed-form fraction.
- ``congestion``'s ``argmax_edge`` is not checked: several edges attain the
  maximum, and which one is reported depends on iteration order.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
SEARCH_REL_TOL = 1e-6
P_FLOOR = 1e-6


def close(got: float, want: float) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def _exact(out: dict, ref: dict, keys, problems: list[str]) -> None:
    for key in keys:
        if out.get(key) != ref[key]:
            problems.append(f"{key}={out.get(key)!r}, reference {ref[key]!r}")


def _close(out: dict, ref: dict, keys, problems: list[str]) -> None:
    for key in keys:
        got = out.get(key)
        if not isinstance(got, (int, float)) or not close(got, ref[key]):
            problems.append(f"{key}={got!r}, reference {ref[key]!r}")


def _series(out: dict, ref: dict, problems: list[str]) -> None:
    got, want = out.get("series", []), ref["series"]
    if [p["t"] for p in got] != [p["t"] for p in want]:
        problems.append(f"series has t={[p['t'] for p in got]}, reference "
                        f"{[p['t'] for p in want]}")
        return
    for g, w in zip(got, want):
        if not close(g["tv"], w["tv"]):
            problems.append(f"series t={w['t']}: tv={g['tv']!r}, reference {w['tv']!r}")


def _p_value(out: dict, problems: list[str]) -> None:
    p = out.get("p_value")
    if not isinstance(p, (int, float)) or not p >= P_FLOOR:
        problems.append(f"p_value={p!r} below {P_FLOOR}")


def _falling(n: int, k: int) -> int:
    return math.prod(range(n - k + 1, n + 1))


def generic_fraction(n: int, k: int, w: int, p: int) -> Fraction:
    """Closed-form share of distinct k-tuples of n-bit strings that are
    generic: distinct on each of the p width-w blocks, free on the rest."""
    generic = _falling(1 << w, k) ** p * (1 << (k * (n - w * p)))
    return Fraction(generic, _falling(1 << n, k))


def _mix_exact(out, ref, problems):
    _exact(out, ref, ("kernel", "epsilon", "tau"), problems)
    _series(out, ref, problems)


def _kwise_exact(out, ref, problems):
    _exact(out, ref, ("n", "k", "gate_mode"), problems)
    _series(out, ref, problems)
    _close(out, ref, ("final_tv",), problems)


def _gap(out, ref, problems):
    _exact(out, ref, ("kernel", "states"), problems)
    _close(out, ref, ("spectral_gap",), problems)


def _lsc_search(out, ref, problems):
    _exact(out, ref, ("kernel", "restarts"), problems)
    _close(out, ref, ("paper_bound", "paper_bound_log2"), problems)
    best = out.get("best_ratio")
    if not isinstance(best, float) or not best > ref["paper_bound"]:
        problems.append(f"best_ratio={best!r} not above paper_bound {ref['paper_bound']!r}")
    elif abs(best - ref["best_ratio"]) > SEARCH_REL_TOL * ref["best_ratio"]:
        problems.append(f"best_ratio={best!r}, reference {ref['best_ratio']!r}")


def _congestion(out, ref, problems):
    _exact(out, ref, ("k", "N"), problems)
    _close(out, ref, ("A_delta_exact", "paper_bound_19", "formula_bound"), problems)


def _compare_check(out, ref, problems):
    _exact(out, ref, ("k", "N", "count"), problems)
    _close(out, ref, ("A_delta", "max_residual"), problems)


def _chain_rule_check(out, ref, problems):
    _exact(out, ref, ("k", "N", "count"), problems)
    _close(out, ref, ("max_abs_residual", "max_rel_residual"), problems)
    got = out.get("per_coordinate", [])
    if [c["i"] for c in got] != [c["i"] for c in ref["per_coordinate"]]:
        problems.append("per_coordinate rows differ from the reference")
        return
    for g, w in zip(got, ref["per_coordinate"]):
        _close(g, w, ("max_abs_residual", "max_rel_residual"), problems)


def _tgrev_verify(out, ref, problems):
    _exact(out, ref, ("n", "k", "w", "p", "passes"), problems)
    _close(out, ref, ("max_mixture_deviation", "max_block_factor_deviation",
                      "max_remainder_deviation", "gap_product", "gap_blocks",
                      "gap_remainder", "gap_identity_error"), problems)
    if out.get("passes") is not True:
        problems.append("product structure does not pass")


def _kwise_test(out, ref, problems):
    _exact(out, ref, ("n", "k", "gates", "M", "statistic", "bins", "dof",
                      "gate_mode", "sampler"), problems)
    _p_value(out, problems)


def _generic_frac(out, ref, problems):
    _exact(out, ref, ("n", "k", "w", "p", "mode", "samples"), problems)
    if problems:
        return
    exact = float(generic_fraction(out["n"], out["k"], out["w"], out["p"]))
    if not out["wilson_low"] <= exact <= out["wilson_high"]:
        problems.append(f"Wilson interval [{out['wilson_low']!r}, "
                        f"{out['wilson_high']!r}] misses the fraction {exact!r}")
    if out["hits"] / out["samples"] != out["fraction"]:
        problems.append("fraction is not hits / samples")


def _mix_mc(out, ref, problems):
    _exact(out, ref, ("kernel", "t", "samples", "states", "dof"), problems)
    _p_value(out, problems)


_CHECKS = {
    "mix-exact": _mix_exact,
    "kwise-exact": _kwise_exact,
    "gap": _gap,
    "lsc-search": _lsc_search,
    "congestion": _congestion,
    "compare-check": _compare_check,
    "chain-rule-check": _chain_rule_check,
    "tgrev-verify": _tgrev_verify,
    "kwise-test": _kwise_test,
    "generic-frac": _generic_frac,
    "mix-mc": _mix_mc,
}


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()


def dump_digest(text: str, denominator: int) -> dict:
    """Digest of a kernel dump whose probabilities are counts / denominator.

    Raises ValueError when a probability is farther than the float tolerance
    from the nearest multiple of 1 / denominator."""
    header, columns, body = text.split("\n", 2)
    if columns != "row,col,prob":
        raise ValueError(f"unexpected column header {columns!r}")
    cells = np.array(body.replace("\n", ",").rstrip(",").split(","))
    cells = cells.reshape(-1, 3)
    rows = cells[:, 0].astype(np.int64)
    cols = cells[:, 1].astype(np.int64)
    probs = cells[:, 2].astype(float)
    counts = np.rint(probs * denominator).astype(np.int64)
    want = counts / denominator
    off = np.abs(probs - want) > np.maximum(REL_TOL * want, ABS_TOL)
    if off.any():
        j = int(np.argmax(off))
        raise ValueError(f"entry ({rows[j]}, {cols[j]}) = {probs[j]!r} is not a "
                         f"multiple of 1/{denominator}")
    return {
        "header": json.loads(header),
        "entries": int(len(rows)),
        "denominator": denominator,
        "cells_sha256": _sha256(np.stack([rows, cols], axis=1)),
        "counts_sha256": _sha256(counts),
    }


def _kernel_dump(text: str, ref: dict) -> list[str]:
    try:
        got = dump_digest(text, ref["denominator"])
    except ValueError as exc:
        return [str(exc)]
    return [f"{key} differs from the reference" for key in ref if got[key] != ref[key]]


def check(argv: list[str], text: str, ref: dict) -> list[str]:
    """Problems with one command's output text, given its reference entry."""
    if argv[0] == "kernel-dump":
        return _kernel_dump(text, ref)
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    problems: list[str] = []
    _CHECKS[argv[0]](out, ref, problems)
    if "--seed" in argv and "seed" in out:
        seed = int(argv[argv.index("--seed") + 1])
        if out["seed"] != seed:
            problems.append(f"seed={out['seed']!r}, command passed {seed}")
    return problems
