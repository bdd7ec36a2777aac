"""In-memory span tracing of lakeforge, installed from outside the package.

`instrument(tracer)` swaps wrappers onto the public functions each CLI stage
calls (and onto `Corpus.validate` and `LlmGateway.complete`), so the package
itself stays untouched. Spans stay in memory; `Tracer.dump` writes them once,
when the benchmark run ends. `layer_metrics` turns one traced iteration's
spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

MATCHERS = ("jl", "sf", "hybrid")


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans and per-run counters.

    Each thread keeps its own span stack. A span opened on a worker thread
    whose stack is empty takes as parent the innermost span open on the
    thread that created the tracer, which is blocked waiting for the worker.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.run_id = ""
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end, self.run_id, threading.get_ident(), attrs)
            )

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[self.run_id][name] += n

    def run_spans(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s), sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# installing wrappers
# --------------------------------------------------------------------------


def _wrap(tracer: Tracer, owner, attr: str, name: str, annotate=None):
    """Replace owner.attr with a function that runs the original inside a
    span; annotate(attrs, result, args, kwargs) then records counts on the
    span, outside its timed interval."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = original(*args, **kwargs)
        if annotate is not None:
            annotate(attrs, result, args, kwargs)
        return result

    setattr(owner, attr, wrapper)
    return owner, attr, original


def _counting(tracer: Tracer, owner, attr: str, counter: str):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return owner, attr, original


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from lakeforge import cli, gateway, generate, matchers, model, perturb
    from lakeforge.common import CacheMiss

    def on_generate(attrs, result, args, kwargs):
        tables = result[1].tables.values()
        for key in ("rows", "prompts", "repaired", "skipped"):
            attrs[key] = sum(getattr(r, key) for r in tables)

    def on_plan(attrs, result, args, kwargs):
        derived, _warnings = result
        attrs["tables"] = len(derived.tables)
        attrs["lineage"] = len(derived.lineage)
        attrs["mappings"] = len(derived.mappings())
        attrs["pairs"] = len(derived.ground_truth)
        attrs["semantic"] = sum(1 for p in derived.ground_truth if p.kind == "semantic")

    def on_save(attrs, result, args, kwargs):
        attrs["bytes"] = _dir_bytes(args[1] if len(args) > 1 else kwargs["directory"])

    def on_match(attrs, result, args, kwargs):
        attrs["matcher"] = args[1] if len(args) > 1 else kwargs["matcher"]

    def on_sf(attrs, result, args, kwargs):
        attrs["converged"] = bool(result[1])

    def on_evaluate(attrs, result, args, kwargs):
        attrs["predictions"] = len(args[0])

    original_complete = gateway.LlmGateway.complete

    @functools.wraps(original_complete)
    def complete(self, req, mode=None):
        with tracer.span("gateway.complete") as attrs:
            try:
                response = original_complete(self, req, mode)
            except CacheMiss:
                attrs["miss"] = True
                raise
            attrs["hit"] = (mode or self.config.mode) == "replay"
            return response

    gateway.LlmGateway.complete = complete
    undo = [(gateway.LlmGateway, "complete", original_complete)]
    undo += [
        _wrap(tracer, cli, "parse_ontology", "ontology.parse"),
        _wrap(tracer, cli, "ontology_to_schemas", "ontology.to_schemas"),
        _wrap(tracer, cli, "build_dependency_graph", "ontology.dependency_graph"),
        _wrap(tracer, cli, "generate_base_tables", "generate.base_tables", on_generate),
        _wrap(tracer, cli, "apply_plan", "perturb.apply_plan", on_plan),
        _wrap(tracer, cli, "save_corpus", "model.save", on_save),
        _wrap(tracer, cli, "load_corpus", "model.load"),
        _wrap(tracer, cli, "match_corpus", "matchers.match_corpus", on_match),
        _wrap(tracer, cli, "write_predictions_csv", "matchers.write_csv"),
        _wrap(tracer, cli, "evaluate", "evaluation.evaluate", on_evaluate),
        _wrap(tracer, cli, "render_report", "evaluation.render"),
        _wrap(tracer, generate, "recompute_ground_truth", "ground_truth.recompute"),
        _wrap(tracer, perturb, "recompute_ground_truth", "ground_truth.recompute"),
        _wrap(tracer, matchers, "jl_match", "matchers.jl.pair"),
        _wrap(tracer, matchers, "sf_match", "matchers.sf.pair", on_sf),
        _wrap(tracer, matchers, "hybrid_match", "matchers.hybrid.pair"),
        _wrap(tracer, model.Corpus, "validate", "model.validate"),
        _counting(tracer, model.Corpus, "table", "model.table_lookups"),
        _counting(tracer, model.Corpus, "has_table", "model.table_lookups"),
    ]
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover
    (children on parallel threads may overlap; their union is subtracted)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct).
    With ten or fewer samples there is no such percentile and (0, 0) is
    returned."""
    n = len(samples)
    if n <= 10:
        return 0.0, 0.0
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration as {name: (value, unit)}."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    m: dict[str, tuple[float, str]] = {}
    m["ontology.compile_s"] = (
        total("ontology.parse") + total("ontology.to_schemas") + total("ontology.dependency_graph"),
        "s",
    )

    m["generate.s"] = (total("generate.base_tables"), "s")
    for key, metric in (("rows", "rows"), ("prompts", "prompts"),
                        ("repaired", "rows_repaired"), ("skipped", "rows_skipped")):
        m[f"generate.{metric}"] = (attr_sum("generate.base_tables", key), "count")

    calls = by_name["gateway.complete"]
    hits = sum(1 for s in calls if s.attrs.get("hit"))
    m["gateway.complete_s"] = (total("gateway.complete"), "s")
    m["gateway.calls"] = (len(calls), "count")
    m["gateway.cache_hits"] = (hits, "count")
    m["gateway.cache_misses"] = (sum(1 for s in calls if s.attrs.get("miss")), "count")
    m["gateway.hit_ratio"] = (hits / len(calls) if calls else 0.0, "ratio")

    plans = by_name["perturb.apply_plan"]
    m["perturb.apply_plan_s"] = (total("perturb.apply_plan"), "s")
    m["perturb.self_s"] = (sum(selfs[s.span_id] for s in plans), "s")
    m["perturb.tables_out"] = (attr_sum("perturb.apply_plan", "tables"), "count")
    m["perturb.lineage_events"] = (attr_sum("perturb.apply_plan", "lineage"), "count")
    m["perturb.value_mappings"] = (attr_sum("perturb.apply_plan", "mappings"), "count")

    m["ground_truth.recompute_s"] = (total("ground_truth.recompute"), "s")
    m["ground_truth.recompute_calls"] = (len(by_name["ground_truth.recompute"]), "count")
    m["ground_truth.pairs"] = (attr_sum("perturb.apply_plan", "pairs"), "count")
    m["ground_truth.pairs_semantic"] = (attr_sum("perturb.apply_plan", "semantic"), "count")

    m["model.save_s"] = (total("model.save"), "s")
    m["model.load_s"] = (total("model.load"), "s")
    m["model.validate_s"] = (total("model.validate"), "s")
    m["model.table_lookups"] = (counters["model.table_lookups"], "count")
    m["model.bytes_written"] = (attr_sum("model.save", "bytes"), "B")

    for matcher in MATCHERS:
        runs = [s for s in by_name["matchers.match_corpus"] if s.attrs.get("matcher") == matcher]
        pairs_ms = [1000.0 * s.duration for s in by_name[f"matchers.{matcher}.pair"]]
        tail_ms, tail_pct = tail(pairs_ms)
        m[f"matchers.{matcher}.s"] = (sum(s.duration for s in runs), "s")
        m[f"matchers.{matcher}.table_pairs"] = (len(pairs_ms), "count")
        m[f"matchers.{matcher}.pair_p50_ms"] = (statistics.median(pairs_ms) if pairs_ms else 0.0, "ms")
        m[f"matchers.{matcher}.pair_tail_ms"] = (tail_ms, "ms")
        m[f"matchers.{matcher}.pair_tail_pct"] = (tail_pct, "%")
    sf_pairs = by_name["matchers.sf.pair"]
    m["matchers.sf.converged_ratio"] = (
        sum(1 for s in sf_pairs if s.attrs.get("converged")) / len(sf_pairs) if sf_pairs else 0.0,
        "ratio",
    )
    m["matchers.write_csv_s"] = (total("matchers.write_csv"), "s")

    m["evaluation.evaluate_s"] = (total("evaluation.evaluate"), "s")
    m["evaluation.calls"] = (len(by_name["evaluation.evaluate"]), "count")
    m["evaluation.predictions_in"] = (attr_sum("evaluation.evaluate", "predictions"), "count")
    m["evaluation.render_s"] = (total("evaluation.render"), "s")

    stages = [s for s in spans if s.name.startswith("stage.")]
    wall = sum(s.duration for s in stages)
    unattributed = sum(selfs[s.span_id] for s in stages)
    m["trace.spans"] = (len(spans), "count")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.unattributed_share"] = (unattributed / wall if wall else 0.0, "ratio")
    return m
