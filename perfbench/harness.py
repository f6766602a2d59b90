"""Closed-loop benchmark of abanet's public API, one workload per process.

One caller issues the next ``train_step`` or ``predict`` only when the
previous one has returned.  A run sets up several times (reporting the
median), warms up, then times operations for the requested seconds,
checking every output.  An untraced run (``--trace 0``) reports the
end-to-end metrics; a traced run (``--trace 1``) traces half the
operations and reports per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from abanet.config import PROFILES, ModelConfig
from abanet.data import Example, build_vocabs, gen_synthetic
from abanet.model import Adam, Model, train_step

from . import tracing
from .inputs import PASSAGE_LEN, passage_lengths, squad_shaped

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7      # at least this many set-ups, and at least
SETUP_SECONDS = 2.0    # this much set-up time, feed the setup_s median
MIN_OPS = 3
DIGEST_OPS = 3

COPY_LOCATE_SIZE = 50
PREDICT_PASSAGES = 44
QUESTIONS_PER_PASSAGE = 5
TRAIN_SQUAD_EXAMPLES = 64
TRAIN_SQUAD_BATCH = 2
# Warm-up inputs have the longest passage length, so the process reaches
# its memory high-water mark before timing, whatever a run covers.
LONGEST = PASSAGE_LEN[1]

END_TO_END = [
    ("setup_s", "s"),
    ("examples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

Op = tuple[str, list[Example]]


@dataclass
class Session:
    """A model, its optimizer and a seeded stream of operations."""

    model: Model
    optimizer: Adam
    rng: np.random.Generator
    warmup: list[Op]
    ops: Iterator[Op]


def _build(examples: list[Example], config: ModelConfig,
           seed: int) -> tuple[Model, Adam]:
    words, chars = build_vocabs(examples)
    model = Model(config, words, chars, seed=seed)
    return model, Adam(model.store, config.learning_rate, config.warmup_steps)


def setup_train_short(seed: int, config: ModelConfig) -> Session:
    """Copy-locate, shuffled per epoch like ``fit``; the first epoch warms up."""
    examples = gen_synthetic("copy-locate", COPY_LOCATE_SIZE, seed)
    model, optimizer = _build(examples, config, seed)
    rng = np.random.default_rng(seed)

    def epochs() -> Iterator[Op]:
        while True:
            order = rng.permutation(len(examples))
            for start in range(0, len(order), config.batch_size):
                yield "train", [examples[i] for i in
                                order[start:start + config.batch_size]]

    ops = epochs()
    warmup = list(itertools.islice(
        ops, math.ceil(len(examples) / config.batch_size)))
    return Session(model, optimizer, rng, warmup, ops)


def setup_predict_squad(seed: int, config: ModelConfig) -> Session:
    """Five questions per passage; one extra longest passage warms up."""
    lengths = [LONGEST] + passage_lengths(PREDICT_PASSAGES, centre=True)
    examples = squad_shaped(seed, lengths, QUESTIONS_PER_PASSAGE)
    model, optimizer = _build(examples, config, seed)
    groups = [examples[i:i + QUESTIONS_PER_PASSAGE]
              for i in range(QUESTIONS_PER_PASSAGE, len(examples),
                             QUESTIONS_PER_PASSAGE)]
    ops = [("predict", [e]) for e in balanced_order(groups)]
    return Session(model, optimizer, np.random.default_rng(seed),
                   [("predict", examples[:1])], itertools.cycle(ops))


def balanced_order(groups: list[list[Example]]) -> list[Example]:
    """Questions of each mirrored pair of passages, alternating.

    ``groups`` hold one passage's questions each, in the order of
    ``passage_lengths(centre=True)``: a middle-length passage, then pairs
    of lengths mid - k*step and mid + k*step.  Alternating within a pair
    keeps every prefix balanced around the middle length, so a run's
    median does not depend on where the run stops.
    """
    mid = sum(PASSAGE_LEN) // 2
    out, i = [], 0
    while i < len(groups):
        if len(groups[i][0].passage) == mid:
            out += groups[i]
            i += 1
        else:
            out += [e for pair in zip(groups[i], groups[i + 1]) for e in pair]
            i += 2
    return out


def setup_train_squad(seed: int, config: ModelConfig) -> Session:
    """One question per passage, batches of two holding 280 tokens each;
    one extra batch of the longest passages warms up."""
    lengths = ([LONGEST] * TRAIN_SQUAD_BATCH
               + passage_lengths(TRAIN_SQUAD_EXAMPLES, centre=False))
    examples = squad_shaped(seed, lengths, 1)
    model, optimizer = _build(examples, config, seed)
    batches = [("train", examples[i:i + TRAIN_SQUAD_BATCH])
               for i in range(0, len(examples), TRAIN_SQUAD_BATCH)]
    return Session(model, optimizer, np.random.default_rng(seed),
                   batches[:1], itertools.cycle(batches[1:]))


WORKLOADS = {
    "train-short": setup_train_short,
    "predict-squad": setup_predict_squad,
    "train-squad": setup_train_squad,
}


# ---------------------------------------------------------------------------
# Operations and their output checks
# ---------------------------------------------------------------------------

def run_op(session: Session, op: Op):
    kind, batch = op
    if kind == "train":
        return train_step(session.model, batch, session.optimizer, session.rng)
    return session.model.predict(batch[0])


def check_prediction(prediction, example: Example, max_span_len: int) -> str | None:
    """Why ``prediction`` is malformed, or None when it passes."""
    n = len(example.passage)
    for name, probs in (("p_begin", prediction.p_begin),
                        ("p_end", prediction.p_end)):
        probs = np.asarray(probs)
        if probs.shape != (n,):
            return f"{name} has shape {probs.shape}, expected ({n},)"
        if not np.all(np.isfinite(probs)):
            return f"{name} is not finite"
        if np.any(probs < 0.0):
            return f"{name} has a negative entry"
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            return f"{name} sums to {float(probs.sum())!r}"
    begin, end = prediction.begin, prediction.end
    if not 0 <= begin <= end < min(n, begin + max_span_len):
        return f"span ({begin}, {end}) invalid for n={n}, max_span_len={max_span_len}"
    if prediction.text != " ".join(example.passage[begin:end + 1]):
        return f"text {prediction.text!r} is not the passage slice"
    return None


def check_train(loss: float, model: Model) -> str | None:
    if not (math.isfinite(loss) and loss > 0.0):
        return f"loss {loss!r} is not finite and positive"
    for name, tensor in model.store.items():
        if not np.all(np.isfinite(tensor.data)):
            return f"parameter {name} is not finite after the step"
    return None


def check_op(session: Session, op: Op, output) -> str | None:
    kind, batch = op
    if kind == "train":
        return check_train(output, session.model)
    return check_prediction(output, batch[0], session.model.config.max_span_len)


def output_digest_text(op: Op, output) -> str:
    if op[0] == "train":
        return f"loss={output!r};"
    return f"span={output.begin},{output.end},{output.score!r};"


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    seconds: float
    examples: int
    traced: bool


@dataclass
class Outcome:
    samples: list[Sample] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    first_digest: str = ""
    digest: str = ""


def measure(session: Session, seconds: float, probe: tracing.Probe | None = None,
            seed: int = 0) -> tuple[Outcome, int, int]:
    """Run operations for ``seconds`` (and at least MIN_OPS of them).

    With a probe, one operation of each consecutive pair runs traced, the
    first or the second by a seeded coin, so that traced and untraced
    operations see the same mix of inputs.  Returns the outcome and the
    tape record count and bytes of traced operations.
    """
    coin = random.Random(seed)
    outcome = Outcome()
    digest = hashlib.sha256()
    records = tape_bytes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(outcome.samples) < MIN_OPS:
        op = next(session.ops)
        index = len(outcome.samples)
        if index % 2 == 0:
            first_traced = coin.random() < 0.5
        traced = probe is not None and (index % 2 == 0) == first_traced
        error = output = None
        if traced:
            probe.install()
            probe.tracer.op = index
            root = probe.tracer.enter(f"op.{op[0]}")
        t0 = time.perf_counter()
        try:
            output = run_op(session, op)
        except Exception:  # a failed operation is counted, the loop goes on
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                probe.tracer.exit(root)
                probe.uninstall()
        if traced:
            for tape in probe.tapes:
                r, b = tracing.tape_stats(tape)
                records, tape_bytes = records + r, tape_bytes + b
            probe.tapes.clear()
        if error is None:
            error = check_op(session, op, output)
            digest.update(output_digest_text(op, output).encode())
        if error is not None:
            outcome.failed += 1
            outcome.errors.append(f"op {index}: {error}")
        outcome.samples.append(Sample(elapsed, len(op[1]), traced))
        if index + 1 == DIGEST_OPS:
            outcome.first_digest = digest.hexdigest()[:16]
    outcome.digest = digest.hexdigest()[:16]
    return outcome, records, tape_bytes


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it.

    That is the (n-10)-th smallest of n samples, at percentile
    100 * (n - 10) / n.  Returns (percentile, value), or None when the
    percentile would fall below the median (fewer than 20 samples).
    """
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def per_example_ms(samples: list[Sample]) -> float:
    return 1e3 * sum(s.seconds for s in samples) / sum(s.examples for s in samples)


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, object]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "commit": git_commit(ROOT),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str], *, profile: str = "paper",
         out_dir: Path = OUT_DIR) -> int:
    args = parse_args(argv)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} profile={profile} "
          f"dtype=float64 loop=closed clients=1")
    print("env " + json.dumps(environment()))
    config = PROFILES[profile]()
    setup_times = []
    session = None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        session = None   # let the previous model go before building the next
        gc.collect()
        t0 = time.perf_counter()
        session = WORKLOADS[args.workload](args.seed, config)
        setup_times.append(time.perf_counter() - t0)
    for op in session.warmup:
        run_op(session, op)

    probe = None
    if args.trace:
        probe = tracing.Probe(tracing.Tracer(), session.model, session.optimizer)
    outcome, records, tape_bytes = measure(session, args.seconds, probe, args.seed)
    samples = outcome.samples
    attempted = len(samples)
    for line in outcome.errors:
        print(f"failed {line}", file=sys.stderr)
    kind = "train_step" if session.warmup[0][0] == "train" else "predict"
    print(f"ops {kind} attempted={attempted} failed={outcome.failed} "
          f"failed_ratio={outcome.failed / attempted:.4f}")
    print(f"digest first{DIGEST_OPS}={outcome.first_digest} "
          f"all={outcome.digest} ops={attempted}")

    correct = outcome.failed == 0
    if args.trace:
        metrics, correct = _traced_metrics(probe, samples, records, tape_bytes,
                                           kind, args, out_dir, correct)
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
    else:
        metrics = _end_to_end(samples, setup_times, kind)
        units = dict(END_TO_END)
    result = {"correct": correct, "attempted": attempted,
              "failed": outcome.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def _end_to_end(samples: list[Sample], setup_times: list[float],
                kind: str) -> dict[str, float]:
    latencies_ms = [1e3 * s.seconds for s in samples]
    examples = sum(s.examples for s in samples)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "examples_per_s": examples / sum(s.seconds for s in samples),
        "latency_p50_ms": statistics.median(latencies_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    tail = tail_percentile(latencies_ms)
    tail_text = ("n/a (fewer than 20 samples)" if tail is None
                 else f"{tail[1]:.4f} ms at p{tail[0]:.1f}")
    name = "train" if kind == "train_step" else "predict"
    print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup_times)})")
    print(f"{name}_examples_per_s {metrics['examples_per_s']:.4f} 1/s "
          f"({examples} examples)")
    print(f"{name}_p50_ms {metrics['latency_p50_ms']:.4f} ms per {kind} "
          f"(n={len(samples)})")
    print(f"{name}_tail_ms {tail_text} (n={len(samples)})")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    return metrics


def _traced_metrics(probe, samples, records, tape_bytes, kind, args, out_dir,
                    correct) -> tuple[dict[str, float], bool]:
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    examples = sum(s.examples for s in traced)
    steps = len(traced) if kind == "train_step" else 0
    spans = probe.tracer.spans
    metrics, gap = tracing.layer_metrics(spans, probe, examples, steps,
                                         records, tape_bytes)
    metrics["trace.overhead_pct"] = 100.0 * (
        per_example_ms(traced) / per_example_ms(untraced) - 1.0)
    wall = metrics["trace.wall_ms"]
    print(f"trace spans={len(spans)} traced_ops={len(traced)} "
          f"untraced_ops={len(untraced)} self_sum_gap_ms={1e3 * gap:.6f}")
    for name, unit, _, moves in tracing.PER_LAYER:
        share = (f" ({100.0 * metrics[name] / wall:.1f}% of traced wall)"
                 if unit == "ms/example" and wall else "")
        print(f"{name} {metrics[name]:.4f} {unit}{share} -> {moves}")
    out_dir.mkdir(parents=True, exist_ok=True)
    probe.tracer.write(out_dir / f"spans-{args.workload}.jsonl")
    # Self times plus the remainder must add up to the traced wall time.
    if abs(gap) > 1e-6 * max(1.0, len(spans)):
        print(f"self times miss the traced wall by {gap!r} s", file=sys.stderr)
        correct = False
    return {name: metrics[name] for name, _, _, _ in tracing.PER_LAYER}, correct
