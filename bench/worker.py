"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py COMMANDS.json RESULT.json SPAWNED_AT [--trace]

Imports ``kwmix.cli`` from the checkout's ``src``, runs each argv list in
COMMANDS.json through ``kwmix.cli.main`` and writes timings, exit codes and
an environment record to RESULT.json. An empty command list measures set-up
only. SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start-up and the imports.
With ``--trace`` the spans of ``spans.Tracer`` are recorded and turned into
per-layer metrics; the timings of a traced pass are not end-to-end figures.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> list[dict]:
    """Thread count of every OpenBLAS copy loaded in this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fp:
        for line in fp:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name:
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out.append({"library": os.path.basename(path), "threads": fn()})
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def _run_one(main, argv: list[str]) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a command that crashes is counted failed; go on
        traceback.print_exc()
        return 1


def run_pass(commands: list[list[str]], tracer=None) -> dict:
    """Run the command list once in this process, untraced or traced."""
    from kwmix.cli import main

    codes: list[int] = []
    seconds: list[float] = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for i, argv in enumerate(commands):
        started = time.perf_counter()
        if tracer is None:
            code = _run_one(main, argv)
        else:
            with tracer.command(i) as outcome:
                code = outcome["code"] = _run_one(main, argv)
        seconds.append(time.perf_counter() - started)
        codes.append(code)
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "codes": codes,
        "command_s": seconds,
    }


def main() -> int:
    commands_path, result_path, spawned_at = sys.argv[1:4]
    traced = sys.argv[4:] == ["--trace"]
    sys.path.insert(0, str(ROOT / "src"))
    import kwmix.cli  # noqa: F401  (set-up ends when the CLI is importable)

    setup_s = time.monotonic() - float(spawned_at)
    if not Path(kwmix.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"kwmix imported from {kwmix.cli.__file__}, not {ROOT / 'src'}")
    with open(commands_path) as fp:
        commands = json.load(fp)

    result: dict = {"setup_s": setup_s}
    if commands:
        if traced:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            with tracer.installed():
                result.update(run_pass(commands, tracer))
            result["layers"] = layer_metrics(tracer.spans)
            result["spans"] = [asdict(span) for span in tracer.spans]
        else:
            result.update(run_pass(commands))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["environment"] = environment()
    with open(result_path, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
