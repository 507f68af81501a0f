"""Deterministic machine-readable output: CSV, JSON, and kernel dumps.

All floating-point values are printed with 17 significant digits so the
decimal form round-trips to the exact binary double; identical inputs
therefore produce byte-identical files.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Sequence

import numpy as np

from .chains import Kernel


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form of a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {type(x).__name__}")
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"{x:.17g}"


def json_dumps(obj) -> str:
    """JSON text with floats rendered via fmt_float.

    The standard encoder prints shortest-round-trip floats; this one pins
    17 significant digits to match the CSV convention.
    """
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for idx, (key, value) in enumerate(obj.items()):
            if idx:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(_escape(key))
            out.append(": ")
            _write_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, value in enumerate(obj):
            if idx:
                out.append(", ")
            _write_json(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _escape(s: str) -> str:
    import json

    return json.dumps(s)


def csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """Header and rows as CSV lines; floats at 17 digits, None as an empty cell."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(fmt_float(cell))
            else:
                text = "" if cell is None else str(cell)
                if "," in text or '"' in text or "\n" in text:
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
        lines.append(",".join(cells))
    return lines


# Cap on the (row, col, prob) lines dump_kernel joins into one write; one
# join over all entries would grow the peak memory with the kernel.
DUMP_PIECE_ENTRIES = 1 << 16


def dump_kernel(kernel: Kernel, fp: IO[str]) -> None:
    """Kernel dump: one JSON header line, then CSV (row, col, prob) triples
    in (row, col) order, duplicate entries summed.

    A kernel has few distinct probabilities, so each distinct value is
    turned into text once, with its newline, and each index once, with
    its comma. A piece's lines are those texts joined by numpy on
    fixed-width bytes and written as one string, the NUL padding of the
    fixed width removed.
    """
    header = dict(kernel.meta)
    fp.write(json_dumps(header))
    fp.write("\n")
    fp.write("row,col,prob\n")
    m = kernel.matrix.tocsr()
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    distinct = np.unique(m.data)
    value = np.searchsorted(distinct, m.data)
    probs = np.array([fmt_float(p) + "\n" for p in distinct.tolist()], dtype=np.bytes_)
    index = np.array([f"{i}," for i in range(max(m.shape))], dtype=np.bytes_)
    for lo in range(0, m.nnz, DUMP_PIECE_ENTRIES):
        piece = slice(lo, lo + DUMP_PIECE_ENTRIES)
        lines = np.char.add(np.char.add(index[rows[piece]], index[m.indices[piece]]),
                            probs[value[piece]])
        fp.write(lines.tobytes().replace(b"\0", b"").decode())

