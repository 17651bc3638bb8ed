"""Per-layer metrics: which callables are wrapped, and what is derived.

Layers are the program's modules (``cli``, ``simulator``, ``rs``, ``gf``,
``runtime``, ``stats``, ``memory``, ``markov``, ``service``).  Span names
are ``<layer>.<callable>``.  Every metric below is reported by every
traced run; a layer that does not run on a workload reports 0.

Times are totals over the traced pass, in seconds, and are *self* times
(span duration minus child spans) unless the description says
otherwise.  Counts and ratios come from the spans or from the program's
own counters (``PerfCounters``, the ``repro.obs.metrics`` registry).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from tracer import SpanIndex, Tracer

#: (name, unit, better, what it measures).  BENCHMARK.json lists the same
#: names, units and directions under ``per_layer``.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("cli.import_s", "s", "lower", "fresh-process `import repro.cli` (median of the set-up probes)"),
    ("rs.codec_build_s", "s", "lower", "first RSCode + batch codec construction (median of the set-up probes)"),
    ("rs.fallback_decode_s", "s", "lower", "RSCode.decode called by BatchRSCodec.decode_batch"),
    ("rs.fallback_decode_calls", "count", "lower", "calls counted by rs.fallback_decode_s"),
    ("rs.decode_batch_self_s", "s", "lower", "BatchRSCodec.decode_batch minus its fallback decodes"),
    ("rs.words_decoded", "count", "lower", "PerfCounters.words_decoded: base of the two ratios below"),
    ("rs.clean_ratio", "ratio", "higher", "PerfCounters.clean_fast_path / rs.words_decoded"),
    ("rs.fallback_ratio", "ratio", "lower", "PerfCounters.scalar_fallbacks / rs.words_decoded"),
    ("rs.scrub_decode_s", "s", "lower", "RSCode.decode called under scrub or arbitrate"),
    ("rs.scrub_decode_calls", "count", "lower", "calls counted by rs.scrub_decode_s"),
    ("rs.scrub_encode_s", "s", "lower", "RSCode.encode called under scrub"),
    ("rs.scrub_encode_calls", "count", "lower", "calls counted by rs.scrub_encode_s"),
    ("rs.encode_batch_s", "s", "lower", "BatchRSCodec.encode_batch (inclusive)"),
    ("gf.kernel_s", "s", "lower", "PerfCounters.kernel_seconds: encode/syndrome kernels"),
    ("simulator.cell_self_s", "s", "lower", "simulate_fail_probability_batched + chunk body, minus wrapped layers"),
    ("simulator.replay_s", "s", "lower", "SimplexSystem/DuplexSystem.apply_event minus scrubs"),
    ("simulator.replay_events", "count", "lower", "apply_event calls"),
    ("simulator.scrub_s", "s", "lower", "SimplexSystem/DuplexSystem.scrub minus decode, encode and arbiter"),
    ("simulator.scrubs", "count", "lower", "scrub calls"),
    ("simulator.patterns_s", "s", "lower", "expand_arrivals (inclusive)"),
    ("simulator.arbiter_s", "s", "lower", "recover_erasures + decide_from_decodes + arbitrate, minus decodes"),
    ("simulator.arbiter_calls", "count", "lower", "calls of those three functions"),
    ("runtime.chunks", "count", "lower", "PerfCounters.chunks"),
    ("runtime.dispatch_self_s", "s", "lower", "SerialExecutor.submit minus the chunk it runs"),
    ("stats.offer_s", "s", "lower", "StreamingEstimator.offer (inclusive)"),
    ("memory.model_solve_s", "s", "lower", "cell_model_probability (inclusive of markov)"),
    ("memory.closed_form_s", "s", "lower", "simplex_ber + duplex_ber (inclusive)"),
    ("markov.assemble_s", "s", "lower", "build_chain (inclusive)"),
    ("markov.states", "count", "lower", "states summed over assembled chains"),
    ("markov.nnz", "count", "lower", "rate-matrix nonzeros summed over assembled chains"),
    ("markov.uniformization_s", "s", "lower", "uniformization_propagate (inclusive)"),
    ("markov.uniformization_calls", "count", "lower", "uniformization_propagate calls: base of terms_per_point"),
    ("markov.uniformization_terms", "count", "lower", "registry counter repro.solver.uniformization.terms"),
    ("markov.terms_per_point", "count", "lower", "markov.uniformization_terms / markov.uniformization_calls"),
    ("service.submit_s", "s", "lower", "median client POST /v1/jobs time"),
    ("service.result_fetch_s", "s", "lower", "median client GET /result time"),
    ("service.cache_hit_ratio", "ratio", "higher", "/metrics cache_hits / service.cache_lookups"),
    ("service.cache_lookups", "count", "lower", "/metrics cache_hits + cache_misses: base of the ratio"),
    ("service.http_errors", "count", "lower", "/metrics repro_service_http_errors"),
    ("service.jobs_completed", "count", "higher", "/metrics repro_service_jobs_completed"),
    ("service.overhead_s", "s", "lower", "median miss latency minus server chunk seconds per miss job"),
    ("trace.overhead_ratio", "ratio", "lower", "traced wall time / untraced wall time of the same work"),
]

UNITS = {name: unit for name, unit, _better, _what in PER_LAYER}

#: The grammar every metric name follows.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

SCRUB_PARENTS = ("simulator.scrub", "simulator.arbitrate")
ARBITER = ("simulator.arbitrate", "simulator.recover_erasures", "simulator.decide")


def _chain_size(chain) -> Dict[str, Any]:
    return {"states": int(chain.num_states), "nnz": int(chain.rate_matrix.nnz)}


def _cell_key(args, kwargs) -> Optional[str]:
    # run_campaign passes cell_key=f"{index}:{label}".
    key = kwargs.get("cell_key")
    return None if key is None else key.partition(":")[2]


def _cell_label(args, kwargs) -> Optional[str]:
    return f"model {args[0].label()}" if args else None


def install(tracer: Tracer) -> None:
    """Wrap the in-process layer boundaries of the program."""
    from repro.rs.batch import BatchRSCodec
    from repro.rs.codec import RSCode
    from repro.runtime.executors import SerialExecutor
    from repro.simulator.systems import DuplexSystem, SimplexSystem
    from repro.stats.streaming import StreamingEstimator

    # Import every module that binds a wrapped function before patching,
    # so each of their bindings is replaced.
    for module in (
        "repro.analysis.experiments",
        "repro.memory.ber",
        "repro.memory.mission",
        "repro.memory.scrubbing",
        "repro.simulator.campaign",
        "repro.simulator.montecarlo",
    ):
        __import__(module)
    functions = [
        ("repro.simulator.montecarlo", "simulate_fail_probability_batched", "simulator.cell", None, _cell_key),
        ("repro.simulator.montecarlo", "_run_injection_chunk", "simulator.chunk", None, None),
        ("repro.simulator.arbiter", "arbitrate", "simulator.arbitrate", None, None),
        ("repro.simulator.arbiter", "recover_erasures", "simulator.recover_erasures", None, None),
        ("repro.simulator.arbiter", "decide_from_decodes", "simulator.decide", None, None),
        ("repro.simulator.patterns", "expand_arrivals", "simulator.patterns", None, None),
        ("repro.simulator.campaign", "cell_model_probability", "memory.model_solve", None, _cell_label),
        ("repro.memory.analytic", "simplex_ber", "memory.closed_form", None, None),
        ("repro.memory.analytic", "duplex_ber", "memory.closed_form", None, None),
        ("repro.markov.builder", "build_chain", "markov.build_chain", _chain_size, None),
        ("repro.markov.solvers", "uniformization_propagate", "markov.uniformization", None, None),
    ]
    for module, attr, name, observe, request in functions:
        tracer.patch_function(module, attr, name, observe, request)
    methods = [
        (RSCode, "decode", "rs.decode"),
        (RSCode, "encode", "rs.encode"),
        (BatchRSCodec, "encode_batch", "rs.encode_batch"),
        (BatchRSCodec, "decode_batch", "rs.decode_batch"),
        (SimplexSystem, "apply_event", "simulator.apply_event"),
        (DuplexSystem, "apply_event", "simulator.apply_event"),
        (SimplexSystem, "scrub", "simulator.scrub"),
        (DuplexSystem, "scrub", "simulator.scrub"),
        (StreamingEstimator, "offer", "stats.offer"),
        (SerialExecutor, "submit", "runtime.submit"),
    ]
    for cls, attr, name in methods:
        tracer.patch_method(cls, attr, name)


def uniformization_terms() -> float:
    """Current value of the program's uniformization term counter."""
    from repro.obs import metrics

    snap = metrics.get_registry().snapshot()
    return float(snap.get("repro.solver.uniformization.terms", {}).get("value", 0.0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(
    index: SpanIndex,
    counters: Optional[Dict[str, float]] = None,
    terms: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics of the in-process layers from one traced pass."""
    c = counters or {}

    def total(names, self_time=True, where=None) -> float:
        spans = index.named(*names)
        if where is not None:
            spans = [s for s in spans if where(s)]
        fn = index.self_time if self_time else index.duration
        return sum(fn(s) for s in spans)

    def count(names, where=None) -> int:
        spans = index.named(*names)
        if where is not None:
            spans = [s for s in spans if where(s)]
        return len(spans)

    def under_batch(s) -> bool:
        return index.parent_name(s) == "rs.decode_batch"

    def under_scrub(s) -> bool:
        return index.has_ancestor(s, SCRUB_PARENTS)

    chains = index.named("markov.build_chain")
    calls = count(["markov.uniformization"])
    words = float(c.get("words_decoded", 0))
    return {
        "rs.fallback_decode_s": total(["rs.decode"], False, under_batch),
        "rs.fallback_decode_calls": count(["rs.decode"], under_batch),
        "rs.decode_batch_self_s": total(["rs.decode_batch"]),
        "rs.words_decoded": int(words),
        "rs.clean_ratio": _ratio(c.get("clean_fast_path", 0), words),
        "rs.fallback_ratio": _ratio(c.get("scalar_fallbacks", 0), words),
        "rs.scrub_decode_s": total(["rs.decode"], False, under_scrub),
        "rs.scrub_decode_calls": count(["rs.decode"], under_scrub),
        "rs.scrub_encode_s": total(["rs.encode"], False, under_scrub),
        "rs.scrub_encode_calls": count(["rs.encode"], under_scrub),
        "rs.encode_batch_s": total(["rs.encode_batch"], False),
        "gf.kernel_s": float(c.get("kernel_seconds", 0.0)),
        "simulator.cell_self_s": total(["simulator.cell", "simulator.chunk"]),
        "simulator.replay_s": total(["simulator.apply_event"]),
        "simulator.replay_events": count(["simulator.apply_event"]),
        "simulator.scrub_s": total(["simulator.scrub"]),
        "simulator.scrubs": count(["simulator.scrub"]),
        "simulator.patterns_s": total(["simulator.patterns"], False),
        "simulator.arbiter_s": total(ARBITER),
        "simulator.arbiter_calls": count(ARBITER),
        "runtime.chunks": int(c.get("chunks", 0)),
        "runtime.dispatch_self_s": total(["runtime.submit"]),
        "stats.offer_s": total(["stats.offer"], False),
        "memory.model_solve_s": total(["memory.model_solve"], False),
        "memory.closed_form_s": total(["memory.closed_form"], False),
        "markov.assemble_s": total(["markov.build_chain"], False),
        "markov.states": sum(int(s["attrs"].get("states", 0)) for s in chains),
        "markov.nnz": sum(int(s["attrs"].get("nnz", 0)) for s in chains),
        "markov.uniformization_s": total(["markov.uniformization"], False),
        "markov.uniformization_calls": calls,
        "markov.uniformization_terms": int(terms),
        "markov.terms_per_point": _ratio(terms, calls),
    }


def complete(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric with its unit; layers that did not run are 0."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"unknown per-layer metric(s): {sorted(unknown)}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _better, _what in PER_LAYER
    }
