"""Self-tests of the benchmark: output checks and per-layer tracing.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import io
import json
import sys

import checks
import spans
from run import ROOT, RUN_METRICS, load_reference, with_seed
from worker import run_pass

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _case(workload: str, subcommand: str) -> tuple[list[str], dict]:
    reference = load_reference(workload)
    for argv, output in zip(with_seed(reference["commands"], 0), reference["outputs"]):
        if argv[0] == subcommand:
            return argv, output
    raise LookupError(subcommand)


def test_checker_accepts_the_reference_outputs():
    for workload in ("exact-rev", "recolor-analysis", "monte-carlo"):
        reference = load_reference(workload)
        for argv, output in zip(with_seed(reference["commands"], 0), reference["outputs"]):
            if argv[0] != "kernel-dump":
                assert checks.check(argv, json.dumps(output), output) == [], argv


def test_checker_rejects_a_float_off_by_1e_6():
    argv, ref = _case("exact-rev", "mix-exact")
    out = copy.deepcopy(ref)
    out["series"][3]["tv"] += 1e-6
    assert checks.check(argv, json.dumps(out), ref)

    argv, ref = _case("recolor-analysis", "gap")
    out = dict(ref, spectral_gap=ref["spectral_gap"] + 1e-6)
    assert checks.check(argv, json.dumps(out), ref)

    argv, ref = _case("recolor-analysis", "lsc-search")
    out = dict(ref, best_ratio=ref["best_ratio"] * (1 + 2e-6))
    assert checks.check(argv, json.dumps(out), ref)


def test_checker_rejects_a_monte_carlo_p_value_of_zero():
    for subcommand in ("kwise-test", "mix-mc"):
        argv, ref = _case("monte-carlo", subcommand)
        assert checks.check(argv, json.dumps(ref), ref) == []
        assert checks.check(argv, json.dumps(dict(ref, p_value=0.0)), ref)


def test_checker_rejects_a_wilson_interval_missing_the_fraction():
    argv, ref = _case("monte-carlo", "generic-frac")
    out = dict(ref, fraction=0.5, hits=ref["samples"] // 2,
               wilson_low=0.49, wilson_high=0.51)
    assert checks.check(argv, json.dumps(out), ref)


def test_generic_fraction_closed_form_matches_enumeration():
    from kwmix.generic import generic_fraction_exact, make_partition

    assert checks.generic_fraction(6, 2, 2, 2) == generic_fraction_exact(
        make_partition(6, 2, w=2, p=2))


def test_kernel_dump_digest_rejects_a_perturbed_probability():
    from kwmix.chains import ChainSpec, build_kernel
    from kwmix.reports import dump_kernel

    buf = io.StringIO()
    dump_kernel(build_kernel(ChainSpec(family="ucc", k=2, ncolors=4)), buf)
    text = buf.getvalue()
    ref = checks.dump_digest(text, 8)
    argv = ["kernel-dump", "--chain", "ucc", "--k", "2", "--N", "4"]
    assert checks.check(argv, text, ref) == []
    lines = text.split("\n")
    r, c, p = lines[5].split(",")
    lines[5] = f"{r},{c},{float(p) + 1e-6!r}"
    assert checks.check(argv, "\n".join(lines), ref)


TINY = [
    ["gap", "--chain", "rev", "--n", "3", "--k", "1"],
    ["mix-exact", "--chain", "ucc", "--k", "1", "--N", "3"],
    ["congestion", "--k", "2", "--N", "3"],
    ["compare-check", "--k", "2", "--N", "3", "--count", "2"],
    ["generic-frac", "--n", "6", "--k", "2", "--part-w", "2", "--part-p", "2",
     "--samples", "20"],
    ["kwise-test", "--n", "4", "--k", "2", "--gates", "3", "--samples", "50"],
]


def test_tiny_traced_workload_spans_every_layer_inside_cli_spans(tmp_path):
    commands = [argv + ["--format", "json", "--out", str(tmp_path / f"{i}.json")]
                for i, argv in enumerate(TINY)]
    tracer = spans.Tracer()
    with tracer.installed():
        result = run_pass(commands, tracer)
    assert result["codes"] == [0] * len(TINY)

    recorded = tracer.spans
    layers = {s.name.split(".")[0] for s in recorded}
    assert layers >= set(spans.LAYERS)
    for span in recorded:
        if span.name == spans.COMMAND:
            assert span.parent == -1
            continue
        outer = span
        while outer.parent >= 0:
            parent = recorded[outer.parent]
            assert parent.start <= outer.start <= outer.end <= parent.end
            outer = parent
        assert outer.name == spans.COMMAND and outer.command == span.command

    metrics = spans.layer_metrics(recorded)
    with open(ROOT / "BENCHMARK.json") as fp:
        declared = json.load(fp)
    assert set(metrics) | set(RUN_METRICS) == {m["name"] for m in declared["per_layer"]}
    assert metrics["cli.commands"] == len(TINY) and metrics["cli.failed"] == 0
    assert metrics["chains.build_kernel.calls"] >= 1
    assert metrics["mixing.gate_applications"] == 50 * 3


def test_tracer_uninstall_restores_the_original_functions():
    import kwmix.chains
    import kwmix.cli

    before = (kwmix.cli.build_kernel, kwmix.chains.build_kernel)
    with spans.Tracer().installed():
        assert kwmix.cli.build_kernel is not before[0]
        assert kwmix.cli.build_kernel.__wrapped__ is before[0]
    assert (kwmix.cli.build_kernel, kwmix.chains.build_kernel) == before
