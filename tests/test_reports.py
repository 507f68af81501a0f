"""Kernel dumps: byte-identical to the per-entry rendering; CSV cells."""

import io
import math

import numpy as np
import pytest

from kwmix import reports
from kwmix.chains import ChainSpec, build_kernel, product_kernel
from kwmix.generic import make_partition
from kwmix.reports import csv_lines, dump_kernel, fmt_float, json_dumps


def _per_entry_dump(kernel) -> str:
    # the rendering dump_kernel replaced: fmt_float on every entry
    out = io.StringIO()
    out.write(json_dumps(dict(kernel.meta)) + "\nrow,col,prob\n")
    m = kernel.matrix.tocsr()
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    out.writelines(f"{r},{c},{fmt_float(p)}\n" for r, c, p in
                   zip(rows.tolist(), m.indices.tolist(), m.data.tolist()))
    return out.getvalue()


def _dump(kernel) -> str:
    out = io.StringIO()
    dump_kernel(kernel, out)
    return out.getvalue()


KERNELS = {
    "ucc": lambda: build_kernel(ChainSpec(family="ucc", k=3, ncolors=7)),
    "cc": lambda: build_kernel(ChainSpec(family="cc", k=3, ncolors=6)),
    "complete": lambda: build_kernel(ChainSpec(family="complete", ncolors=9)),
    "rev": lambda: build_kernel(ChainSpec(family="rev", k=2, n=4)),
    "rev-set": lambda: build_kernel(ChainSpec(family="rev", k=2, n=4, gate_mode="set")),
    "grev": lambda: build_kernel(ChainSpec(family="grev", k=2, n=5,
                                           partition=make_partition(5, 2, w=2, p=2))),
    "tgrev": lambda: build_kernel(ChainSpec(family="tgrev", k=2, n=5,
                                            partition=make_partition(5, 2, w=2, p=2))),
    "product": lambda: product_kernel([build_kernel(ChainSpec(family="complete", ncolors=3)),
                                       build_kernel(ChainSpec(family="ucc", k=2, ncolors=4))]),
}


@pytest.mark.parametrize("family", sorted(KERNELS))
def test_dump_equals_the_per_entry_rendering(family, monkeypatch):
    kernel = KERNELS[family]()
    expected = _per_entry_dump(kernel)
    assert _dump(kernel) == expected
    # pieces of 7 entries end mid-row and split every kernel here
    monkeypatch.setattr(reports, "DUMP_PIECE_ENTRIES", 7)
    assert kernel.matrix.nnz > 7
    assert _dump(kernel) == expected


def test_dump_of_a_non_finite_entry_raises():
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=4))
    kernel.matrix.data[3] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        _dump(kernel)



def test_csv_writes_none_as_an_empty_cell_and_quotes_commas():
    assert csv_lines(("a", "b", "c", "d"), [(None, 0.1, "x,y", 3)]) == [
        "a,b,c,d", ',0.10000000000000001,"x,y",3']
