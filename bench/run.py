"""kwmix benchmark: CLI workloads end to end, and per layer when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; ``kwmix`` is imported from its ``src``.
A workload is a ``kwmix batch``-style JSON list of command lines in
``workloads/``; ``{seed}`` in it becomes ``--seed``. Each pass runs the whole
list in a fresh interpreter (``worker.py``) with every result written with
``--out`` into a scratch directory under ``.bench_out/``, then checked against
``reference/`` (``checks.py``).

``--trace 0`` runs passes until the next one would end after ``--seconds``
and reports the median pass: ``wall_s`` and ``cpu_s`` over the command list
after import, ``peak_rss_mb`` of the pass process, ``setup_s`` from
interpreter start until ``kwmix.cli`` is imported (median of at least
``MIN_SETUPS`` start-ups), and ``ok_frac``, the share of commands that exit 0
and pass their check. The three times are given in seconds at the reference
machine speed: each is multiplied by ``PROBE_REF_S`` over the median of
``PROBES`` runs of ``probe.py`` taken in the same run, which divides out the
drift of a shared machine's speed. ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of ``spans.py`` plus
``trace.overhead_s``, unscaled; the spans are written to
``.bench_out/spans-<workload>-<seed>.json``.

The harness sets no BLAS or OpenMP thread variable and passes no
``--threads``: it measures the defaults users get. The last line of standard
output is the result object; the line before it holds the unscaled per-pass
figures, the probes and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = sorted(p.stem for p in (BENCH / "workloads").glob("*.json"))
MIN_SETUPS = 3
PROBES = 8  # one before each pass, the rest after the passes
# Median ``probe.py`` time at the reference machine speed: a 2-vCPU box with
# Python 3.11, numpy 2.4 and scipy 1.17, where the benchmark was written.
PROBE_REF_S = 1.3
RUN_LIMIT_S = 170.0  # every pass ends within this, inside the 180 s a run may take
# per-layer metrics of a traced run that come from the run, not from spans
RUN_METRICS = ("trace.overhead_s",)


class PassFailed(Exception):
    pass


def load_workload(name: str) -> list[list[str]]:
    with open(BENCH / "workloads" / f"{name}.json") as fp:
        return json.load(fp)


def with_seed(commands: list[list[str]], seed: int) -> list[list[str]]:
    return [[arg.replace("{seed}", str(seed)) for arg in argv] for argv in commands]


def load_reference(name: str) -> dict:
    with open(BENCH / "reference" / f"{name}.json") as fp:
        return json.load(fp)


def spawn(commands: list[list[str]], work: Path, tag: str, trace: bool,
          deadline: float) -> tuple[dict, list[Path]]:
    """One fresh-interpreter pass; returns its result and output paths."""
    out_dir = work / tag
    out_dir.mkdir()
    outputs = [out_dir / f"{i}.out" for i in range(len(commands))]
    argvs = [argv + ["--format", "json", "--out", str(path)]
             for argv, path in zip(commands, outputs)]
    commands_path = out_dir / "commands.json"
    result_path = out_dir / "result.json"
    commands_path.write_text(json.dumps(argvs))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(commands_path),
           str(result_path)]
    spawned = time.monotonic()
    cmd.append(repr(spawned))
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{tag}: no result within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{tag}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(result_path.read_text()), outputs


def probe(deadline: float) -> float:
    """One ``probe.py`` start-up: seconds until numpy and scipy are imported."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), repr(spawned)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"probe: no result within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return float(proc.stdout)


def check_pass(commands, result: dict, outputs: list[Path], reference: dict,
               problems: list[str]) -> int:
    """Checks one pass's outputs; returns how many commands failed."""
    failed = 0
    for i, (argv, code, path) in enumerate(zip(commands, result["codes"], outputs)):
        if code != 0:
            found = [f"exit code {code}"]
        elif not path.is_file():
            found = ["no output file"]
        else:
            found = checks.check(argv, path.read_text(), reference["outputs"][i])
        if found:
            failed += 1
            problems.extend(f"command {i} ({' '.join(argv)}): {p}" for p in found)
    return failed


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    reference = load_reference(workload)
    if reference["commands"] != load_workload(workload):
        raise SystemExit(f"reference/{workload}.json was recorded for another command list")
    commands = with_seed(reference["commands"], seed)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    work = ROOT / ".bench_out" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    passes: list[dict] = []
    setups: list[float] = []
    probes: list[float] = []
    problems: list[str] = []
    counts = {"attempted": 0, "failed": 0}

    def one_pass(traced: bool) -> None:
        counts["attempted"] += len(commands)
        try:
            result, outputs = spawn(commands, work, f"pass{len(passes)}", traced, deadline)
        except PassFailed as exc:
            counts["failed"] += len(commands)
            problems.append(str(exc))
            raise
        counts["failed"] += check_pass(commands, result, outputs, reference, problems)
        passes.append(result)
        setups.append(result["setup_s"])

    try:
        if trace:
            one_pass(False)
            one_pass(True)
        else:
            while True:
                probes.append(probe(deadline))
                one_pass(False)
                elapsed = time.monotonic() - started
                if elapsed + elapsed / len(passes) > seconds:
                    break
            while len(setups) < MIN_SETUPS or len(probes) < PROBES:
                if len(probes) < PROBES:
                    probes.append(probe(deadline))
                if len(setups) < MIN_SETUPS:
                    result, _ = spawn([], work, f"setup{len(setups)}", False, deadline)
                    setups.append(result["setup_s"])
    except PassFailed:
        if not passes or trace:
            raise
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        untraced, traced_pass = passes
        metrics = dict(traced_pass["layers"])
        metrics["trace.overhead_s"] = traced_pass["wall_s"] - untraced["wall_s"]
        spans_path = ROOT / ".bench_out" / f"spans-{workload}-{seed}.json"
        spans_path.write_text(json.dumps(traced_pass.pop("spans")))
    else:
        # seconds at the reference speed: the run's own drift is divided out
        scale = PROBE_REF_S / statistics.median(probes)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes) * scale,
            "cpu_s": statistics.median(p["cpu_s"] for p in passes) * scale,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setups) * scale,
            "ok_frac": (counts["attempted"] - counts["failed"]) / counts["attempted"],
        }
    detail = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": passes[0]["environment"],
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                      "command_s", "codes")} for p in passes],
        "setup_samples": setups,
        "probes": probes,
        "problems": problems,
    }
    outcome = {"correct": counts["failed"] == 0 and not problems, **counts,
               "metrics": metrics}
    return detail, outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kwmix" / "cli.py").is_file():
        print(f"bench: no kwmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fp:
        declared = json.load(fp)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    try:
        detail, outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if set(outcome["metrics"]) != set(units):
        print(f"bench: metrics {sorted(outcome['metrics'])} do not match "
              f"BENCHMARK.json {kind} {sorted(units)}", file=sys.stderr)
        return 1
    outcome["metrics"] = {name: {"value": outcome["metrics"][name], "unit": unit}
                          for name, unit in units.items()}
    for problem in detail["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
