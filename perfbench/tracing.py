"""In-memory spans around the public functions of each abanet module.

A ``Probe`` replaces each function at the module attribute its caller
looks it up by (``model.py`` imports most layer functions into its own
namespace; ``encoder.py`` imports ``layer_norm``), and a few methods on
the instances the benchmark owns.  Each replacement opens a span (name,
start, end, parent, operation id) and counts what happens at that
boundary.  ``uninstall`` puts every original back, so untraced
operations run the program unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import abanet.encoder
import abanet.model
import abanet.tensor

_MISSING = object()

STACK_SPANS = {"embenc": "encoder.embenc", "modenc": "encoder.modenc",
               "provider.enc": "encoder.provider_stack"}

# Every span name's self time lands in exactly one of these metrics; the
# root span's self time is the part of an operation no layer span covers.
SELF_METRIC = {
    "op": "trace.remainder_ms",
    "model.forward": "model.forward_self_ms",
    "model.span_head": "model.span_head_ms",
    "model.loss": "model.loss_ms",
    "model.decode_span": "model.decode_span_ms",
    "model.adam_step": "model.adam_step_ms",
    "model.provider": "model.provider_self_ms",
    "tensor.backward": "tensor.backward_ms",
    "params.accumulate": "params.accumulate_ms",
    "embedding.lookup": "embedding.lookup_ms",
    "embedding.chars": "embedding.chars_ms",
    "embedding.highway": "embedding.highway_ms",
    "embedding.bilstm": "embedding.bilstm_ms",
    "embedding.contextual_mix": "embedding.contextual_mix_ms",
    "encoder.embenc": "encoder.residual_ms",
    "encoder.modenc": "encoder.residual_ms",
    "encoder.provider_stack": "encoder.residual_ms",
    "encoder.conv": "encoder.conv_ms",
    "encoder.routing": "encoder.routing_ms",
    "encoder.self_attention": "encoder.self_attention_ms",
    "encoder.ffn": "encoder.ffn_ms",
    "encoder.layer_norm": "encoder.layer_norm_ms",
    "attention.hos": "attention.hos_ms",
    "attention.select_top3": "attention.select_top3_ms",
    "attention.bidirectional": "attention.bidirectional_ms",
}
PER_STEP = {"model.adam_step_ms", "params.accumulate_ms"}
INCLUSIVE_METRIC = {
    "model.provider": "model.provider_ms",
    "encoder.embenc": "encoder.embenc_ms",
    "encoder.modenc": "encoder.modenc_ms",
    "encoder.provider_stack": "encoder.provider_stack_ms",
}

# name, unit, better, (end-to-end metric, workload) it should move.
PER_LAYER = [
    ("tensor.records_per_example", "count", "lower",
     "examples_per_s on train-short; no change on predict-squad"),
    ("tensor.tape_mb_per_example", "MB", "lower",
     "peak_rss_mb on train-squad and train-short"),
    ("tensor.backward_ms", "ms/example", "lower",
     "examples_per_s on train-short; no change on predict-squad"),
    ("params.accumulate_ms", "ms/step", "lower", "examples_per_s on train-short"),
    ("model.adam_step_ms", "ms/step", "lower", "examples_per_s on train-short"),
    ("model.forward_self_ms", "ms/example", "lower",
     "examples_per_s on train-short"),
    ("model.span_head_ms", "ms/example", "lower", "examples_per_s on train-short"),
    ("model.loss_ms", "ms/example", "lower", "examples_per_s on train-short"),
    ("model.decode_span_ms", "ms/example", "lower",
     "latency_p50_ms on predict-squad"),
    ("model.provider_ms", "ms/example", "lower",
     "examples_per_s on train-squad; no change on predict-squad"),
    ("model.provider_self_ms", "ms/example", "lower",
     "examples_per_s on train-squad"),
    ("model.provider_hit_ratio", "ratio", "higher",
     "examples_per_s on train-squad; no change on predict-squad"),
    ("model.provider_stack_runs_per_miss", "count", "lower",
     "examples_per_s on train-squad; no change on predict-squad"),
    ("embedding.lookup_ms", "ms/example", "lower",
     "examples_per_s on train-short"),
    ("embedding.chars_ms", "ms/example", "lower", "examples_per_s on train-short"),
    ("embedding.highway_ms", "ms/example", "lower",
     "examples_per_s on train-short"),
    ("embedding.bilstm_ms", "ms/example", "lower",
     "latency_p50_ms on predict-squad"),
    ("embedding.contextual_mix_ms", "ms/example", "lower",
     "examples_per_s on train-squad"),
    ("encoder.embenc_ms", "ms/example", "lower", "latency_p50_ms on predict-squad"),
    ("encoder.modenc_ms", "ms/example", "lower", "latency_p50_ms on predict-squad"),
    ("encoder.provider_stack_ms", "ms/example", "lower",
     "latency_p50_ms on predict-squad"),
    ("encoder.residual_ms", "ms/example", "lower",
     "latency_p50_ms on predict-squad"),
    ("encoder.routing_ms", "ms/example", "lower",
     "latency_p50_ms and latency_tail_ms on predict-squad; examples_per_s on train-squad"),
    ("encoder.self_attention_ms", "ms/example", "lower",
     "latency_p50_ms and latency_tail_ms on predict-squad; examples_per_s on train-squad"),
    ("encoder.conv_ms", "ms/example", "lower",
     "latency_p50_ms and latency_tail_ms on predict-squad; examples_per_s on train-squad"),
    ("encoder.ffn_ms", "ms/example", "lower",
     "latency_p50_ms and latency_tail_ms on predict-squad; examples_per_s on train-squad"),
    ("encoder.layer_norm_ms", "ms/example", "lower",
     "latency_p50_ms and latency_tail_ms on predict-squad; examples_per_s on train-squad"),
    ("attention.hos_ms", "ms/example", "lower", "latency_tail_ms on predict-squad"),
    ("attention.select_top3_ms", "ms/example", "lower",
     "latency_tail_ms on predict-squad"),
    ("attention.bidirectional_ms", "ms/example", "lower",
     "latency_tail_ms on predict-squad"),
    ("trace.wall_ms", "ms/example", "lower", "all end-to-end times"),
    ("trace.remainder_ms", "ms/example", "lower", "all end-to-end times"),
    ("trace.overhead_pct", "%", "lower", "none: tracing cost"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 for an operation
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Nested spans kept in a list; the open ones form a stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._open.append(index)
        return index

    def exit(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = self.clock()

    def wrap(self, fn, name):
        """``fn`` inside a span; ``name`` is a string or f(args, kwargs)."""
        def traced(*args, **kwargs):
            index = self.enter(name if isinstance(name, str) else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _stack_name(args, kwargs) -> str:
    prefix = args[3] if len(args) > 3 else kwargs["prefix"]
    return STACK_SPANS.get(prefix, f"encoder.{prefix}")


class Probe:
    """Spans and counters on one model and optimizer, installed per operation."""

    def __init__(self, tracer: Tracer, model, optimizer):
        self.tracer = tracer
        self.model = model
        self.optimizer = optimizer
        self._saved: list[tuple[object, str, object]] = []
        self.provider_calls = 0
        self.provider_hits = 0
        self.provider_stack_runs = 0
        self.tapes: list = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name) -> None:
        self._patch(owner, attr, self.tracer.wrap(getattr(owner, attr), name))

    def install(self) -> None:
        m, enc = abanet.model, abanet.encoder
        for attr, name in (
                ("span_logits", "model.span_head"), ("span_nll", "model.loss"),
                ("batch_loss", "model.loss"), ("decode_span", "model.decode_span"),
                ("embed_words", "embedding.lookup"),
                ("embed_features", "embedding.lookup"),
                ("embed_chars", "embedding.chars"), ("highway", "embedding.highway"),
                ("bilstm_encode", "embedding.bilstm"),
                ("contextual_mix", "embedding.contextual_mix"),
                ("assemble_hos", "attention.hos"), ("adaptive_scale", "attention.hos"),
                ("select_top3", "attention.select_top3"),
                ("bidirectional_attention", "attention.bidirectional")):
            self._span(m, attr, name)
        for attr, name in (
                ("conv_pri_dig_layer", "encoder.conv"),
                ("dynamic_routing", "encoder.routing"),
                ("multi_head_self_attention", "encoder.self_attention"),
                ("feed_forward", "encoder.ffn"), ("layer_norm", "encoder.layer_norm")):
            self._span(enc, attr, name)
        self._span(abanet.tensor.Tape, "gradients", "tensor.backward")
        self._span(self.model, "forward", "model.forward")
        self._span(self.model.store, "accumulate", "params.accumulate")
        self._span(self.optimizer, "step", "model.adam_step")

        stack = self.tracer.wrap(m.run_encoder_stack, _stack_name)

        def run_encoder_stack(*args, **kwargs):
            if _stack_name(args, kwargs) == "encoder.provider_stack":
                self.provider_stack_runs += 1
            return stack(*args, **kwargs)

        self._patch(m, "run_encoder_stack", run_encoder_stack)

        provider = self.tracer.wrap(self.model.provider.run, "model.provider")

        def provider_run(expanded_ids):
            before = self.provider_stack_runs
            layers = provider(expanded_ids)
            self.provider_calls += 1
            self.provider_hits += self.provider_stack_runs == before
            return layers

        self._patch(self.model.provider, "run", provider_run)

        backward = m.backward

        def capture_tape(tape, *args, **kwargs):
            self.tapes.append(tape)   # measured after the operation ends
            return backward(tape, *args, **kwargs)

        self._patch(m, "backward", capture_tape)

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._saved.clear()


def tape_stats(tape) -> tuple[int, int]:
    """Record count and bytes of recorded outputs that own their buffer."""
    records = tape._records   # read-only look at the tape's record list
    nbytes = sum(out.data.nbytes for _, out, _, _ in records
                 if out.data.flags.owndata)
    return len(records), nbytes


def layer_metrics(spans: list[Span], probe: Probe, examples: int, steps: int,
                  records: int, tape_bytes: int) -> tuple[dict[str, float], float]:
    """Per-example (or per-step) metrics from the spans of traced operations.

    Also returns the traced wall time minus the sum of all self times,
    which is zero when every span nests inside its operation.
    """
    own = {metric: 0.0 for metric in SELF_METRIC.values()}
    inclusive = {metric: 0.0 for metric in INCLUSIVE_METRIC.values()}
    for span, seconds in zip(spans, self_times(spans)):
        key = "op" if span.parent < 0 else span.name
        if key not in SELF_METRIC:
            raise KeyError(f"span {span.name!r} has no self-time metric")
        own[SELF_METRIC[key]] += seconds
        if span.name in INCLUSIVE_METRIC:
            inclusive[INCLUSIVE_METRIC[span.name]] += span.end - span.start
    wall = sum(s.end - s.start for s in spans if s.parent < 0)
    gap = wall - sum(own.values())
    out = {}
    for metric, seconds in {**own, **inclusive}.items():
        base = steps if metric in PER_STEP else examples
        out[metric] = 1e3 * seconds / base if base else 0.0
    misses = probe.provider_calls - probe.provider_hits
    out["model.provider_hit_ratio"] = (probe.provider_hits / probe.provider_calls
                                       if probe.provider_calls else 0.0)
    out["model.provider_stack_runs_per_miss"] = (
        probe.provider_stack_runs / misses if misses else 0.0)
    out["tensor.records_per_example"] = records / examples
    out["tensor.tape_mb_per_example"] = tape_bytes / 2**20 / examples
    out["trace.wall_ms"] = 1e3 * wall / examples
    return out, gap

