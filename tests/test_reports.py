"""Kernel dumps: byte-identical to the per-entry rendering and to pinned
digests at benchmark size; CSV cells."""

import hashlib
import io
import math

import numpy as np
import pytest
from scipy import sparse

from kwmix import reports
from kwmix.chains import ChainSpec, Kernel, build_kernel, product_kernel
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


def _with_duplicates(kernel) -> Kernel:
    # every entry split in two halves (exact in binary), the halves of a
    # row in reverse column order: a CSR matrix that is not canonical
    m = kernel.matrix
    halves = np.repeat(m.data / 2, 2)
    indices = np.concatenate([np.repeat(m.indices[lo:hi], 2)[::-1]
                              for lo, hi in zip(m.indptr[:-1], m.indptr[1:])])
    split = sparse.csr_matrix((halves, indices, 2 * m.indptr), shape=m.shape)
    assert not split.has_canonical_format
    return Kernel(split, kernel.stationary, kernel.meta)


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
    "duplicates": lambda: _with_duplicates(build_kernel(ChainSpec(family="cc", k=2, ncolors=4))),
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


# sha256 of the whole dump text, recorded from the per-entry rendering:
# ucc k=4 N=11 is the benchmark's 277200-entry dump, written in 5 pieces
DUMP_DIGESTS = {
    ChainSpec(family="ucc", k=4, ncolors=11):
        "93a10b74a9f98231b438bb56275536731b598376759f31960affde7a665d9356",
    ChainSpec(family="cc", k=4, ncolors=9):
        "8cb85b65e3c85a8cef1506f4eb354f02930312334e8385aa3e32fd58034a3f1b",
}


@pytest.mark.parametrize("spec", DUMP_DIGESTS, ids=ChainSpec.label)
def test_dump_at_benchmark_size_is_pinned(spec):
    text = _dump(build_kernel(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_DIGESTS[spec]


def test_dump_of_a_non_finite_entry_raises():
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=4))
    kernel.matrix.data[3] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        _dump(kernel)



def test_csv_writes_none_as_an_empty_cell_and_quotes_commas():
    assert csv_lines(("a", "b", "c", "d"), [(None, 0.1, "x,y", 3)]) == [
        "a,b,c,d", ',0.10000000000000001,"x,y",3']
