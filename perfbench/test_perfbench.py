"""Tests of the benchmark itself: span arithmetic, inputs, rules and a smoke run."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import abanet.encoder
import abanet.model
import abanet.tensor
from abanet.data import gen_synthetic
from abanet.model import SpanPrediction

from perfbench import harness, inputs, tracing

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def span(name, start, end, parent, op=0):
    return tracing.Span(name, start, end, parent, op)


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [span("op", 0.0, 10.0, -1),
                 span("a", 1.0, 4.0, 0),
                 span("a.inner", 2.0, 3.0, 1),
                 span("b", 5.0, 9.0, 0),
                 span("op", 10.0, 12.0, -1, op=1)]
        assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]

    def test_self_times_sum_to_root_durations(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        root = tracer.enter("op")
        outer = tracer.enter("x")
        tracer.exit(tracer.enter("y"))
        tracer.exit(outer)
        tracer.exit(tracer.enter("z"))
        tracer.exit(root)
        own = tracing.self_times(tracer.spans)
        assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
        assert sum(own) == tracer.spans[0].end - tracer.spans[0].start
        assert min(own) > 0

    def test_out_of_order_exit_is_refused(self):
        tracer = tracing.Tracer()
        first = tracer.enter("a")
        tracer.enter("b")
        with pytest.raises(RuntimeError):
            tracer.exit(first)

    def test_layer_metrics_account_for_wall(self):
        spans = [span("op", 0.0, 1.0, -1),
                 span("encoder.modenc", 0.1, 0.9, 0),
                 span("encoder.routing", 0.2, 0.6, 1),
                 span("model.adam_step", 0.9, 0.95, 0)]
        probe = tracing.Probe(tracing.Tracer(), None, None)
        metrics, gap = tracing.layer_metrics(spans, probe, examples=2, steps=1,
                                             records=10, tape_bytes=2**20)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert metrics["encoder.modenc_ms"] == pytest.approx(400.0)
        assert metrics["encoder.routing_ms"] == pytest.approx(200.0)
        assert metrics["encoder.residual_ms"] == pytest.approx(200.0)
        assert metrics["model.adam_step_ms"] == pytest.approx(50.0)
        assert metrics["trace.remainder_ms"] == pytest.approx(75.0)
        assert metrics["trace.wall_ms"] == pytest.approx(500.0)
        assert metrics["tensor.records_per_example"] == 5.0
        assert metrics["tensor.tape_mb_per_example"] == 0.5

    def test_unknown_span_name_is_refused(self):
        spans = [span("op", 0.0, 1.0, -1), span("mystery", 0.1, 0.2, 0)]
        probe = tracing.Probe(tracing.Tracer(), None, None)
        with pytest.raises(KeyError):
            tracing.layer_metrics(spans, probe, 1, 0, 0, 0)


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert inputs.squad_shaped(3, [90, 120], 5) == inputs.squad_shaped(3, [90, 120], 5)
        assert inputs.squad_shaped(3, [90, 120], 5) != inputs.squad_shaped(4, [90, 120], 5)

    def test_squad_shape(self):
        examples = inputs.squad_shaped(7, inputs.passage_lengths(12, centre=True), 5)
        assert len(examples) == 60
        passages = [tuple(e.passage) for e in examples[::5]]
        assert len(set(passages)) == 12
        for p, passage in enumerate(passages):
            group = examples[5 * p:5 * p + 5]
            assert all(tuple(e.passage) == passage for e in group)
            assert 80 <= len(passage) <= 200
        assert len({tuple(e.question) for e in examples}) == 60
        for e in examples:
            assert 6 <= len(e.question) <= 16
            assert all(1 <= s <= 3 for s in e.subtokens)
            assert 0 <= e.answer_begin <= e.answer_end < len(e.passage)
            assert e.answer_end - e.answer_begin < 4

    def test_lengths_walk_out_from_the_middle(self):
        assert inputs.passage_lengths(13, centre=True) == [
            140, 128, 152, 116, 164, 104, 176, 92, 188, 80, 200, 140, 128]
        uncentred = inputs.passage_lengths(24, centre=False)
        assert sorted(uncentred[:10]) == [80, 92, 104, 116, 128,
                                          152, 164, 176, 188, 200]
        assert {a + b for a, b in zip(uncentred[::2], uncentred[1::2])} == {280}


class TestTailPercentile:
    def test_needs_twenty_samples(self):
        assert harness.tail_percentile(list(range(19))) is None
        assert harness.tail_percentile(list(range(20))) == (50.0, 9)

    def test_ten_samples_lie_beyond_the_tail(self):
        assert harness.tail_percentile(list(range(100))) == (90.0, 89)
        assert harness.tail_percentile(list(range(1000))) == (99.0, 989)
        percentile, value = harness.tail_percentile(list(range(45)))
        assert percentile == pytest.approx(77.78, abs=0.01) and value == 34

    def test_order_does_not_matter(self):
        assert harness.tail_percentile(list(range(100))[::-1]) == (90.0, 89)


class TestOutputChecks:
    example = gen_synthetic("copy-locate", 1, 0)[0]

    def prediction(self, **changes):
        n = len(self.example.passage)
        fields = dict(p_begin=np.full(n, 1.0 / n), p_end=np.full(n, 1.0 / n),
                      begin=1, end=2, score=1.0 / n ** 2, answerable=True,
                      text=" ".join(self.example.passage[1:3]))
        fields.update(changes)
        return SpanPrediction(**fields)

    def test_valid_prediction_passes(self):
        assert harness.check_prediction(self.prediction(), self.example, 4) is None

    def test_malformed_prediction_is_rejected(self):
        passage = self.example.passage
        n = len(passage)
        nan, skewed, negative = (np.full(n, 1.0 / n) for _ in range(3))
        nan[0] = np.nan
        skewed[0] += 1e-6
        negative[0], negative[1] = -0.1, negative[1] + 0.1
        malformed = [
            self.prediction(p_begin=np.full(3, 1.0 / 3)),
            self.prediction(p_end=nan),
            self.prediction(p_begin=skewed),
            self.prediction(p_end=negative),
            self.prediction(text="wrong"),
            self.prediction(begin=3, end=2, text=""),
            self.prediction(begin=0, end=5, text=" ".join(passage[0:6])),
        ]
        for prediction in malformed:
            assert harness.check_prediction(prediction, self.example, 4) is not None

    def test_train_check(self):
        class Store:
            def __init__(self, value):
                self.value = value

            def items(self):
                yield "w", abanet.tensor.Tensor(np.array([1.0, self.value]))

        class Model:
            def __init__(self, value):
                self.store = Store(value)

        assert harness.check_train(1.5, Model(0.0)) is None
        assert harness.check_train(math.nan, Model(0.0)) is not None
        assert harness.check_train(-1.0, Model(0.0)) is not None
        assert harness.check_train(1.5, Model(np.inf)) is not None


class TestBenchmarkFile:
    def test_metric_tables_match(self):
        assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
            harness.END_TO_END
        assert [(m["name"], m["unit"], m["better"])
                for m in BENCHMARK["per_layer"]] == \
            [row[:3] for row in tracing.PER_LAYER]
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_mini_smoke_run(workload, trace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)
    originals = (abanet.model.run_encoder_stack, abanet.encoder.layer_norm,
                 abanet.tensor.Tape.gradients)
    code = harness.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)], profile="mini", out_dir=tmp_path)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= harness.MIN_OPS
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0
        assert result["metrics"]["model.provider_stack_runs_per_miss"]["value"] \
            in (0.0, 2.0)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (abanet.model.run_encoder_stack, abanet.encoder.layer_norm,
            abanet.tensor.Tape.gradients) == originals


def test_balanced_order_alternates_mirrored_passages():
    examples = inputs.squad_shaped(2, inputs.passage_lengths(5, centre=True), 2)
    groups = [examples[i:i + 2] for i in range(0, 10, 2)]
    lengths = [len(e.passage) for e in harness.balanced_order(groups)]
    assert lengths == [140, 140, 128, 152, 128, 152, 116, 164, 116, 164]
