"""Per-layer spans for the traced benchmark pass.

The spans are recorded from outside the package: ``Tracer.install`` rebinds
each spanned public function in every loaded ``kwmix`` module that holds it
(``cli`` imports ``build_kernel``, ``lsc_search``, ... by name), so calls made
through any binding are timed. Spans stay in memory; ``layer_metrics`` turns
them into the per-layer metrics named in ``BENCHMARK.json``.

The spanned functions must be called from the thread that runs the command;
the span stack is not per-thread. At the parent commit no spanned function is
called from a worker thread.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Public functions spanned in each layer. Per-element helpers (tuple_index,
# recolor, apply_gate, the step_* samplers) are left out: a span per call
# would be the overhead itself. ``rng`` and ``errors`` are too thin to span.
SPANNED = {
    "chains": ("build_kernel", "product_kernel", "enumerate_generic_states"),
    "core": ("enumerate_gates", "gate_table", "dedupe_gates"),
    "mixing": ("mixing_time_exact", "tv_curve", "kwise_stat_mc"),
    "analysis": ("lsc_search", "spectral_gap", "verify_reversible",
                 "chain_rule_residual"),
    "comparison": ("congestion_delta", "dirichlet_comparison_residual"),
    "generic": ("generic_fraction_mc", "verify_tgrev_product_structure"),
    "reports": ("json_dumps", "csv_lines", "dump_kernel"),
}

COMMAND = "cli.main"
LAYERS = ("cli",) + tuple(SPANNED)


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu: float
    parent: int
    command: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, bound: inspect.BoundArguments | None, result, before) -> dict:
    """Work counts taken at the span boundary, from arguments and result.

    ``bound`` is given only for the names in ``_NEEDS_ARGS``."""
    a = bound.arguments if bound is not None else {}
    if name == "chains.build_kernel":
        return {"states": result.size, "nnz": int(result.matrix.nnz)}
    if name == "mixing.mixing_time_exact":
        kernel = a["kernel"]
        all_starts = a["all_starts"]
        if all_starts is None:
            from kwmix.mixing import TRANSITIVE_FAMILIES
            all_starts = kernel.meta.get("family") not in TRANSITIVE_FAMILIES
        starts = kernel.size if all_starts else 1
        return {"dense_bytes": 8 * kernel.size * starts}
    if name == "mixing.kwise_stat_mc":
        circuit = a["sampler"] == "circuit"
        return {"gate_applications": a["samples"] * a["gates"] if circuit else 0}
    if name == "analysis.lsc_search":
        return {"evaluations": result.evaluations}
    if name == "analysis.spectral_gap":
        return {"dense_bytes": 8 * a["kernel"].size ** 2}
    if name == "generic.generic_fraction_mc":
        return {"samples": result.samples}
    if name == "reports.json_dumps":
        return {"bytes": len(result)}
    if name == "reports.csv_lines":
        return {"bytes": sum(len(line) + 1 for line in result)}
    if name == "reports.dump_kernel":
        return {"bytes": a["fp"].tell() - before}
    return {}


_NEEDS_ARGS = {"mixing.mixing_time_exact", "mixing.kwise_stat_mc",
               "analysis.spectral_gap", "reports.dump_kernel"}


class Tracer:
    """In-memory span recorder around the kwmix layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._command = -1
        self._rebound: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, time.process_time(),
                               parent, self._command))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu
        self._stack.pop()
        return span

    @contextmanager
    def command(self, command_id: int):
        """Span one CLI command; yields a dict whose "code" the caller sets."""
        self._command = command_id
        index = self._open(COMMAND)
        outcome = {"code": None}
        try:
            yield outcome
        finally:
            self._close(index).counts["code"] = outcome["code"]
            self._command = -1

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        tracer = self

        def spanned(*args, **kwargs):
            bound = None
            before = 0
            if name in _NEEDS_ARGS:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if name == "reports.dump_kernel":
                    before = bound.arguments["fp"].tell()
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(index)
            span.counts = _counts(name, bound, result, before)
            return result

        spanned.__wrapped__ = fn
        spanned.__name__ = fn.__name__
        return spanned

    def install(self) -> None:
        """Rebind every spanned function in each loaded kwmix module."""
        # A module imported later would bind the wrappers and keep them.
        for layer in LAYERS:
            importlib.import_module(f"kwmix.{layer}")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "kwmix" or n.startswith("kwmix."))]
        for layer, names in SPANNED.items():
            home = importlib.import_module(f"kwmix.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # gone from the package: its metrics read 0
                    print(f"spans: kwmix.{layer}.{fname} not found", file=sys.stderr)
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            out.append(span)
    return out


def _busy(spans: list[Span], *names: str) -> float:
    return sum(s.seconds for s in _outermost(spans, set(names)))


def _total(spans: list[Span], name: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _largest(spans: list[Span], name: str, key: str) -> int:
    return max((s.counts.get(key, 0) for s in spans if s.name == name), default=0)


def _calls(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (zero where a layer is unused).

    A layer's time counts only its outermost spans; ``cli.self_s`` is each
    command span minus its direct child spans. ``dense_bytes`` is the largest
    dense allocation computed from the sizes (8 bytes per entry), not measured.
    """
    m: dict[str, float] = {}

    build_s = _busy(spans, "chains.build_kernel")
    nnz = _total(spans, "chains.build_kernel", "nnz")
    m["chains.build_kernel.s"] = build_s
    m["chains.build_kernel.calls"] = _calls(spans, "chains.build_kernel")
    m["chains.states"] = _total(spans, "chains.build_kernel", "states")
    m["chains.nnz"] = nnz
    m["chains.nnz_per_s"] = _rate(nnz, build_s)
    m["chains.product_kernel.s"] = _busy(spans, "chains.product_kernel")
    m["chains.enumerate_generic_states.s"] = _busy(
        spans, "chains.enumerate_generic_states")

    m["core.gate_tables.s"] = _busy(spans, "core.enumerate_gates",
                                    "core.gate_table", "core.dedupe_gates")
    m["core.gate_tables.count"] = _calls(spans, "core.gate_table")

    m["mixing.mixing_time_exact.s"] = _busy(spans, "mixing.mixing_time_exact")
    m["mixing.mixing_time_exact.dense_bytes"] = _largest(
        spans, "mixing.mixing_time_exact", "dense_bytes")
    m["mixing.tv_curve.s"] = _busy(spans, "mixing.tv_curve")
    m["mixing.tv_curve.calls"] = _calls(spans, "mixing.tv_curve")
    m["mixing.kwise_stat_mc.s"] = _busy(spans, "mixing.kwise_stat_mc")
    applications = _total(spans, "mixing.kwise_stat_mc", "gate_applications")
    circuit_s = sum(s.seconds for s in spans if s.name == "mixing.kwise_stat_mc"
                    and s.counts.get("gate_applications"))
    m["mixing.gate_applications"] = applications
    m["mixing.gate_applications_per_s"] = _rate(applications, circuit_s)

    search = _outermost(spans, {"analysis.lsc_search"})
    search_s = sum(s.seconds for s in search)
    evaluations = sum(s.counts.get("evaluations", 0) for s in search)
    m["analysis.lsc_search.s"] = search_s
    m["analysis.lsc_search.cpu_s"] = sum(s.cpu for s in search)
    m["analysis.lsc_search.evaluations"] = evaluations
    m["analysis.lsc_search.s_per_eval"] = _rate(search_s, evaluations)
    m["analysis.spectral_gap.s"] = _busy(spans, "analysis.spectral_gap")
    m["analysis.spectral_gap.calls"] = _calls(spans, "analysis.spectral_gap")
    m["analysis.spectral_gap.dense_bytes"] = _largest(
        spans, "analysis.spectral_gap", "dense_bytes")
    m["analysis.verify_reversible.s"] = _busy(spans, "analysis.verify_reversible")
    m["analysis.chain_rule_residual.s"] = _busy(spans, "analysis.chain_rule_residual")

    m["comparison.congestion_delta.s"] = _busy(spans, "comparison.congestion_delta")
    m["comparison.dirichlet_comparison_residual.s"] = _busy(
        spans, "comparison.dirichlet_comparison_residual")

    fraction_s = _busy(spans, "generic.generic_fraction_mc")
    m["generic.generic_fraction_mc.s"] = fraction_s
    m["generic.samples_per_s"] = _rate(
        _total(spans, "generic.generic_fraction_mc", "samples"), fraction_s)
    m["generic.verify_tgrev_product_structure.s"] = _busy(
        spans, "generic.verify_tgrev_product_structure")

    rendering = _outermost(spans, {"reports.json_dumps", "reports.csv_lines",
                                   "reports.dump_kernel"})
    render_s = sum(s.seconds for s in rendering)
    render_bytes = sum(s.counts.get("bytes", 0) for s in rendering)
    m["reports.s"] = render_s
    m["reports.bytes"] = render_bytes
    m["reports.bytes_per_s"] = _rate(render_bytes, render_s)

    commands = [i for i, s in enumerate(spans) if s.name == COMMAND]
    child_s = {i: 0.0 for i in commands}
    for span in spans:
        if span.parent in child_s:
            child_s[span.parent] += span.seconds
    m["cli.self_s"] = sum(spans[i].seconds - child_s[i] for i in commands)
    m["cli.commands"] = len(commands)
    m["cli.failed"] = sum(1 for i in commands if spans[i].counts["code"] != 0)
    return m
