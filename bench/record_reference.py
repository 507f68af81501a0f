"""Record the reference outputs that ``checks.py`` compares against.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each workload once at seed 0 and writes ``reference/<workload>.json``:
the command list and, per command, its parsed JSON output, or for
``kernel-dump`` a digest of the dump (see ``checks.dump_digest``). Record at
the commit whose outputs are the reference, and only then.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
from run import BENCH, ROOT, WORKLOADS, load_workload, spawn, with_seed


def dump_denominator(header: dict) -> int:
    """Common denominator of a dumped kernel's probabilities."""
    if header.get("family") == "ucc":
        return header["k"] * header["N"]
    raise ValueError(f"no known denominator for a {header.get('family')} dump")


def record(workload: str) -> dict:
    raw = load_workload(workload)
    commands = with_seed(raw, 0)
    work = ROOT / ".bench_out" / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, outputs = spawn(commands, work, "pass", False, time.monotonic() + 600)
        if any(result["codes"]):
            raise SystemExit(f"{workload}: exit codes {result['codes']}")
        entries = []
        for argv, path in zip(commands, outputs):
            text = path.read_text()
            if argv[0] == "kernel-dump":
                header = json.loads(text.split("\n", 1)[0])
                entries.append(checks.dump_digest(text, dump_denominator(header)))
            else:
                entries.append(json.loads(text))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "seed": 0, "commands": raw, "outputs": entries}


def _format(reference: dict) -> str:
    """JSON with one line per command and per output."""
    fields = []
    for key, value in reference.items():
        if isinstance(value, list):
            value = "[\n" + ",\n".join("  " + json.dumps(v) for v in value) + "\n]"
        else:
            value = json.dumps(value)
        fields.append(f"{json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def main() -> int:
    for workload in sys.argv[1:] or WORKLOADS:
        reference = record(workload)
        path = BENCH / "reference" / f"{workload}.json"
        path.write_text(_format(reference))
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
