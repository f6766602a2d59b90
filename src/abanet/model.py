"""Full model: shared embedding tiers, adaptive attention, weight-shared
model encoders, span head, loss, decoding, and the training loop.

The model runs on packs: a list of examples whose passages are joined
into one [N, d] sequence and whose questions into another.  Per-token ops
run once over the whole pack; the few that mix tokens stay within each
example's segment.  A training batch is one pack, so a step is one
forward and one backward.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import (
    COMPONENT_NAMES,
    adaptive_scale,
    assemble_hos,
    bidirectional_attention,
    select_top3,
)
from .config import EncoderBlockConfig, ModelConfig
from .data import Example, char_id_matrix, check_passage_lengths
from .embedding import (
    ContextualProvider,
    Vocabulary,
    bilstm_encode,
    contextual_mix,
    embed_chars,
    embed_features,
    embed_words,
    highway,
    lstm_bias_init,
)
from .encoder import build_encoder_stack, run_encoder_stack
from .errors import ConfigError, DataError, NumericsError
from .metrics import evaluate_pairs
from .params import ParamStore, normal_init, zeros_init
from .tensor import (
    Tape,
    Tensor,
    backward,
    concat,
    matmul,
    no_grad,
    record_op,
    recording,
    reshape,
    segment_bounds,
    segment_softmax,
)

# Deterministic ramp over granularity levels: same top-3 as the tie-break
# rule, but with margins, so selection is stable under tiny perturbations.
_ALPHA_INIT = np.linspace(0.25, 0.0, len(COMPONENT_NAMES))

# Byte budget of each of the model's two caches; least recently used
# entries go first.  A passage-cache entry takes 3 KB per passage token at
# the paper profile in float64, so that cache holds about six 200-token
# passages.  Only training on a small repeated set reads the provider
# cache: 50 copy-locate examples make 76 sequences (seed 1) in 1.62 MiB,
# after which every provider call hits.  Predicting or training on unique
# SQuAD-length passages fills any budget with no hit (15.4-15.6 MiB of a
# 16 MiB one, seed 1).
CACHE_BYTES = 4 * 2**20


@dataclass
class ForwardResult:
    p_begin: Tensor                # [N], a distribution per passage segment
    p_end: Tensor
    p_lengths: tuple[int, ...]     # passage segment lengths, one per example
    selected_levels: tuple[int, ...]


@dataclass
class SpanPrediction:
    p_begin: np.ndarray
    p_end: np.ndarray
    begin: int
    end: int
    score: float
    answerable: bool
    text: str


class _LRUCache:
    """A least-recently-used map under a byte budget, for values computed
    from the arrays of ``tensors``.

    Parameters change only by rebinding their arrays (see ``Tensor``), so
    a value is stale once any of those arrays was rebound.  ``get`` first
    compares each tensor's array with the one it last saw; on any
    difference, and at the first lookup, it empties the map and misses.
    Weak references pin no replaced array.  They are taken at lookup, not
    at construction: taken in ``Model.__init__`` they slowed a loop of
    model set-ups by about 15%, through the heap's page reuse.
    """

    def __init__(self, tensors: list[Tensor], budget: int):
        self.budget = budget
        self.nbytes = 0
        self.entries: OrderedDict = OrderedDict()   # key -> (value, nbytes)
        self._tensors = tensors
        self._refs: list[weakref.ref] = []

    def get(self, key):
        if len(self._refs) != len(self._tensors) or not all(
                ref() is tensor.data for ref, tensor in zip(self._refs, self._tensors)):
            self.entries.clear()
            self.nbytes = 0
            self._refs = [weakref.ref(tensor.data) for tensor in self._tensors]
            return None
        entry = self.entries.get(key)
        if entry is None:
            return None
        self.entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        """Add ``value`` as the most recent entry, then drop the oldest
        entries while the byte total is over budget.  A value larger than
        the whole budget is not stored and evicts nothing."""
        if nbytes > self.budget:
            return
        self.entries[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > self.budget:
            _, (_, evicted) = self.entries.popitem(last=False)
            self.nbytes -= evicted


class Model:
    """Owns the parameter store, the frozen contextual provider, and wiring."""

    def __init__(self, config: ModelConfig, word_vocab: Vocabulary,
                 char_vocab: Vocabulary, *, seed: int = 0,
                 word_vectors: np.ndarray | None = None):
        config.validate()
        self.config = config
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self.store = ParamStore(config.dtype)
        self._register(np.random.default_rng(seed), word_vectors)
        trainable = dict(self.store.trainable())
        # The provider's layers read only the frozen arrays, which Adam
        # never rebinds, so its cache survives training steps.
        self._provider_cache = _LRUCache(
            [tensor for name, tensor in self.store.items() if name not in trainable],
            CACHE_BYTES)
        self._passage_cache = _LRUCache(
            [tensor for _, tensor in self.store.items()], CACHE_BYTES)
        self.provider = ContextualProvider(run=self._provider_run)

    # -- parameters ---------------------------------------------------------

    def _register(self, rng: np.random.Generator,
                  word_vectors: np.ndarray | None) -> None:
        cfg = self.config
        store = self.store
        v_words, v_chars = len(self.word_vocab), len(self.char_vocab)

        if word_vectors is not None:
            if word_vectors.shape != (v_words, cfg.word_dim):
                raise ConfigError(
                    f"word vectors shaped {word_vectors.shape}, expected "
                    f"{(v_words, cfg.word_dim)}")
            store.register("word.table", Tensor(word_vectors.astype(store.dtype)),
                           trainable=False)
            rng.normal(size=(v_words, cfg.word_dim))  # keep the draw sequence fixed
        else:
            store.create("word.table", (v_words, cfg.word_dim), normal_init(0.5),
                         rng=rng, trainable=False)
        store.create("char.table", (v_chars, cfg.char_emb_dim), normal_init(0.2),
                     rng=rng)
        store.create("char.filters",
                     (cfg.char_kernel * cfg.char_emb_dim, cfg.char_out_dim),
                     rng=rng)
        store.create("feat.pos", (cfg.pos_vocab, cfg.pos_dim), normal_init(0.2),
                     rng=rng)
        store.create("feat.ner", (cfg.ner_vocab, cfg.ner_dim), normal_init(0.2),
                     rng=rng)
        store.create("feat.rule", (cfg.rule_vocab, cfg.rule_dim), normal_init(0.2),
                     rng=rng)
        store.create("embed.proj",
                     (cfg.word_component_dim + cfg.char_out_dim, cfg.d), rng=rng)
        for layer in range(2):
            base = f"highway.l{layer}"
            store.create(f"{base}.wt", (cfg.d, cfg.d), rng=rng)
            store.create(f"{base}.bt", (cfg.d,), zeros_init)
            store.create(f"{base}.wg", (cfg.d, cfg.d), rng=rng)
            store.create(f"{base}.bg", (cfg.d,), zeros_init)

        build_encoder_stack(store, "embenc", d=cfg.d, ffn_hidden=cfg.ffn_hidden,
                            block=cfg.embedding_encoder, caps=cfg.capsules,
                            rng=rng)

        store.create("provider.table", (v_words, cfg.provider_width),
                     normal_init(0.5), rng=rng, trainable=False)
        build_encoder_stack(store, "provider.enc", d=cfg.provider_width,
                            ffn_hidden=cfg.provider_width,
                            block=self._provider_block(), caps=cfg.capsules,
                            rng=rng, trainable=False)
        store.create("theta", (cfg.provider_layers,),
                     lambda r, s: np.full(s, 1.0 / cfg.provider_layers))

        for direction in ("fwd", "bwd"):
            base = f"bilstm.l0.{direction}"
            store.create(f"{base}.w", (cfg.d, 4 * cfg.lstm_hidden), rng=rng)
            store.create(f"{base}.u", (cfg.lstm_hidden, 4 * cfg.lstm_hidden), rng=rng)
            store.create(f"{base}.b", (4 * cfg.lstm_hidden,),
                         lambda r, s: lstm_bias_init(cfg.lstm_hidden))

        for name, width in self._component_widths().items():
            store.create(f"hos.{name}", (width, cfg.d), rng=rng)
        levels = len(COMPONENT_NAMES)
        store.create("lambda.p", (levels, levels), lambda r, s: np.eye(levels))
        store.create("lambda.q", (levels, levels), lambda r, s: np.eye(levels))
        store.create("alpha", (levels,), lambda r, s: _ALPHA_INIT.copy())
        store.create("attn.w", (3 * cfg.selected_dim,), rng=rng)
        store.create("attn.out_proj", (cfg.fused_dim, cfg.d), rng=rng)

        build_encoder_stack(store, "modenc", d=cfg.d, ffn_hidden=cfg.ffn_hidden,
                            block=cfg.model_encoder,
                            caps=cfg.capsules, rng=rng)
        store.create("span.w1", (2 * cfg.d, 1), rng=rng)
        store.create("span.w2", (2 * cfg.d, 1), rng=rng)

    def _component_widths(self) -> dict[str, int]:
        cfg = self.config
        return {
            "word": cfg.word_component_dim,
            "char": cfg.char_out_dim,
            "embed": cfg.d,
            "contextual": cfg.provider_width,
            "block": cfg.d,
            "bilstm": 2 * cfg.lstm_hidden,
        }

    # -- frozen contextual provider -----------------------------------------

    def _provider_block(self) -> EncoderBlockConfig:
        # attention+FFN blocks only: stays cheap and width-agnostic
        return EncoderBlockConfig(num_conv_layers=0, kernel=3,
                                  num_blocks=self.config.provider_layers)

    def _provider_run(self, expanded_ids: np.ndarray) -> list[np.ndarray]:
        key = expanded_ids.tobytes()
        cached = self._provider_cache.get(key)
        if cached is not None:
            return cached
        with no_grad():
            x = Tensor(self.store.get("provider.table").data[expanded_ids])
            # This first run's output is unused. It is kept only because
            # perfbench's test_mini_smoke_run pins
            # model.provider_stack_runs_per_miss to 2.0; drop both together.
            run_encoder_stack(
                x, None, self.store, "provider.enc", num_heads=2,
                block=self._provider_block(), caps=self.config.capsules)
            layers = [b.data for b in run_encoder_stack(
                x, None, self.store, "provider.enc", num_heads=2,
                block=self._provider_block(), caps=self.config.capsules,
                collect_blocks=True)]
        # Every later hit returns these very arrays, so no caller may write into them.
        for layer in layers:
            layer.setflags(write=False)
        self._provider_cache.put(key, layers, sum(layer.nbytes for layer in layers))
        return layers

    # -- forward -------------------------------------------------------------

    def _encode_tokens(self, tokens: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        ids = self.word_vocab.ids(tokens)
        chars = char_id_matrix(tokens, self.char_vocab, self.config.max_word_len)
        return ids, chars

    def _sequence_repr(self, ids: np.ndarray, chars: np.ndarray,
                       tags: tuple[np.ndarray, ...] | None,
                       subtoken_counts: np.ndarray, lengths: tuple[int, ...],
                       training: bool,
                       rng: np.random.Generator | None) -> dict[str, Tensor]:
        """The six granularity levels of one side of a pack.

        ``tags`` are the POS, NER and rule ids; a side without them (the
        questions) gets a constant zero feature block, so it trains no
        row of the tag tables.  Training drops out the word lookup, then
        the char CNN, each inside its layer.
        """
        cfg = self.config
        store = self.store
        word_rate, char_rate = (cfg.dropout_word, cfg.dropout_char) if training else (0, 0)
        word = embed_words(ids, store.get("word.table"), word_rate, rng)
        if tags is None:
            features = Tensor(np.zeros((len(ids), cfg.feature_dim), dtype=store.dtype))
        else:
            features = embed_features(*tags, store.get("feat.pos"),
                                      store.get("feat.ner"), store.get("feat.rule"))
        word_level = concat([word, features], axis=1)
        char_level = embed_chars(chars, store.get("char.table"),
                                 store.get("char.filters"), kernel=cfg.char_kernel,
                                 rate=char_rate, rng=rng)
        projected = matmul(concat([word_level, char_level], axis=1),
                           store.get("embed.proj"))
        layers = [tuple(store.get(f"highway.l{i}.{part}")
                        for part in ("wt", "bt", "wg", "bg")) for i in range(2)]
        embedded = highway(projected, layers)
        contextual = contextual_mix(self.provider, ids, store.get("theta"),
                                    subtoken_counts, lengths)
        block_out = run_encoder_stack(
            embedded, lengths, store, "embenc", num_heads=cfg.num_heads,
            block=cfg.embedding_encoder, caps=cfg.capsules,
            survival_end=cfg.survival_end, dropout_rate=cfg.dropout_layer,
            training=training, rng=rng)
        fwd, bwd = (tuple(store.get(f"bilstm.l0.{direction}.{part}")
                          for part in ("w", "u", "b")) for direction in ("fwd", "bwd"))
        recurrent = bilstm_encode(embedded, fwd, bwd, lengths)
        return {"word": word_level, "char": char_level, "embed": embedded,
                "contextual": contextual, "block": block_out,
                "bilstm": recurrent}

    def _select_levels(self, raw: dict[str, Tensor],
                       lam: str) -> tuple[Tensor, tuple[int, ...]]:
        """One side's HOS stack, mixed by ``lam`` if enabled, then top-3."""
        store = self.store
        projections = {name: store.get(f"hos.{name}") for name in COMPONENT_NAMES}
        hos = assemble_hos(raw, projections)
        if self.config.use_adaptive_scale:
            hos = adaptive_scale(hos, store.get(lam))
        return select_top3(hos, store.get("alpha"))

    def forward(self, examples: Sequence[Example], *, training: bool = False,
                rng: np.random.Generator | None = None) -> ForwardResult:
        """Span distributions for a pack: a nonempty list of examples.

        The passages are joined into one sequence and the questions into
        another, with one segment per example.  Every per-token op runs
        once over each side; self-attention, convolution, the BiLSTM,
        positional encoding and the span softmax stay within a segment, and
        bidirectional attention pairs passage segment s with question
        segment s.  The result keeps only ``p_begin`` and ``p_end``, one
        distribution per passage segment in pack order, the segment
        lengths and the selected passage levels.  In training mode
        stochastic depth draws once per sublayer per pack, and dropout
        masks cover the packed shape.  An example that
        ``check_passage_lengths`` rejects raises a DataError naming it;
        that is the one check of its sub-token counts.

        Each side carries one int64 array of sub-token counts, one per
        token, to ``contextual_mix``: the passages' ``subtokens``, or ones
        for an example without them, and all ones for the questions.

        The passage side up to attention (the six granularity levels, λ
        mixing and top-3 selection) does not depend on the question.  In
        an eval-mode forward of a pack of one with no tape recording, its
        selected [n, 3d] levels and their indices are cached, keyed by the
        passage's word, char, pos, ner, rule and sub-token count arrays.
        """
        cfg = self.config
        store = self.store
        if not examples:
            raise DataError("forward needs a nonempty pack of examples")
        if training and rng is None:
            raise ConfigError("training-mode forward needs an rng")
        for example in examples:
            check_passage_lengths(example, cfg)

        p_lengths = tuple(len(e.passage) for e in examples)
        q_lengths = tuple(len(e.question) for e in examples)
        p_ids, p_chars = self._encode_tokens(
            [token for e in examples for token in e.passage])
        q_ids, q_chars = self._encode_tokens(
            [token for e in examples for token in e.question])
        p_feats = tuple(np.concatenate([np.asarray(getattr(e, name), dtype=np.int64)
                                        for e in examples])
                        for name in ("pos", "ner", "rule"))
        p_counts = np.concatenate([
            np.ones(len(e.passage), dtype=np.int64) if e.subtokens is None
            else np.asarray(e.subtokens, dtype=np.int64) for e in examples])

        cached = key = None
        if len(examples) == 1 and not training and not recording():
            key = tuple(a.tobytes() for a in (p_ids, p_chars, *p_feats, p_counts))
            cached = self._passage_cache.get(key)
        if cached is not None:
            selected, levels = cached
            selected_p = Tensor(selected)
        else:
            raw_p = self._sequence_repr(p_ids, p_chars, p_feats, p_counts,
                                        p_lengths, training, rng)
            selected_p, levels = self._select_levels(raw_p, "lambda.p")
            if key is not None:
                selected_p.data.setflags(write=False)
                self._passage_cache.put(key, (selected_p.data, levels),
                                        selected_p.data.nbytes)
        raw_q = self._sequence_repr(q_ids, q_chars, None,
                                    np.ones(len(q_ids), dtype=np.int64),
                                    q_lengths, training, rng)
        selected_q, _ = self._select_levels(raw_q, "lambda.q")

        fused = bidirectional_attention(
            selected_p, selected_q, store.get("attn.w"), p_lengths, q_lengths,
            training=training, rng=rng, dropout_rate=cfg.dropout_layer)
        encoded = matmul(fused, store.get("attn.out_proj"))
        passes = []    # B1, B2, B3 from the shared model encoder
        for _ in range(3):
            encoded = run_encoder_stack(
                encoded, p_lengths, store, "modenc", num_heads=cfg.num_heads,
                block=cfg.model_encoder, caps=cfg.capsules,
                survival_end=cfg.survival_end, dropout_rate=cfg.dropout_layer,
                training=training, rng=rng)
            passes.append(encoded)
        p_begin, p_end = span_logits(*passes, store.get("span.w1"),
                                     store.get("span.w2"), p_lengths)
        return ForwardResult(p_begin=p_begin, p_end=p_end, p_lengths=p_lengths,
                             selected_levels=levels)

    # -- inference ------------------------------------------------------------

    def decode(self, examples: Sequence[Example],
               result: ForwardResult) -> list[SpanPrediction]:
        """The best span of every passage segment of a forward's pack."""
        predictions = []
        bounds = segment_bounds(result.p_lengths, result.p_begin.shape[0])
        for example, (start, stop) in zip(examples, bounds, strict=True):
            p_begin = result.p_begin.data[start:stop]
            p_end = result.p_end.data[start:stop]
            begin, end, score, answerable = decode_span(
                p_begin, p_end, self.config.max_span_len,
                unanswerable_mode=self.config.unanswerable)
            text = "" if not answerable else " ".join(example.passage[begin:end + 1])
            predictions.append(SpanPrediction(
                p_begin=p_begin, p_end=p_end, begin=begin, end=end,
                score=score, answerable=answerable, text=text))
        return predictions

    def predict(self, example: Example) -> SpanPrediction:
        """The best span of one example: a forward of the pack [example]."""
        return self.decode([example], self.forward([example]))[0]


def span_logits(b1: Tensor, b2: Tensor, b3: Tensor, w1: Tensor, w2: Tensor,
                lengths: Sequence[int] | None = None) -> tuple[Tensor, Tensor]:
    """Begin scores from [B1;B2], end scores from [B2;B3], each softmaxed
    within every passage segment of the pack."""
    n = b1.shape[0]
    begin = reshape(matmul(concat([b1, b2], axis=1), w1), (n,))
    end = reshape(matmul(concat([b2, b3], axis=1), w2), (n,))
    return segment_softmax(begin, lengths), segment_softmax(end, lengths)


def span_nll(p_begin: Tensor, p_end: Tensor, begin_gold, end_gold,
             lengths: Sequence[int] | None = None) -> Tensor:
    """Negative log likelihood of each segment's gold span: a [B] vector.

    ``begin_gold`` and ``end_gold`` hold one position per segment, each
    counted from its segment's start (an int for a single segment).
    """
    bounds = segment_bounds(lengths, p_begin.shape[0])
    begins, ends = (np.atleast_1d(np.asarray(gold, dtype=np.int64))
                    for gold in (begin_gold, end_gold))
    if not begins.shape == ends.shape == (len(bounds),):
        raise DataError(
            f"{begins.size} begin and {ends.size} end golds for {len(bounds)} segments")
    starts, stops = np.array(bounds).T
    outside = (np.minimum(begins, ends) < 0) | (np.maximum(begins, ends) >= stops - starts)
    if outside.any():
        s = int(np.argmax(outside))
        raise DataError(f"gold span ({begins[s]}, {ends[s]}) outside "
                        f"[0, {stops[s] - starts[s]}) of segment {s}")
    at_begin, at_end = starts + begins, starts + ends
    picked_begin, picked_end = p_begin.data[at_begin], p_end.data[at_end]
    out = -(np.log(picked_begin) + np.log(picked_end))

    def bw(g):
        d_begin = np.zeros_like(p_begin.data)
        d_end = np.zeros_like(p_end.data)
        d_begin[at_begin] = -g / picked_begin
        d_end[at_end] = -g / picked_end
        return d_begin, d_end

    return record_op("span_nll", out, (p_begin, p_end), bw)


def batch_loss(nlls: Tensor, store: ParamStore | None = None,
               decay: float = 0.0) -> Tensor:
    """Mean over the [B] example losses plus the L2 weight-decay term
    ``decay * sum of squared trainable weights``, as one ``batch_loss``
    record whose parents are the losses and, when ``store`` is given and
    ``decay`` is positive, the trainable weights."""
    if nlls.ndim != 1 or nlls.shape[0] == 0:
        raise DataError(f"batch_loss needs a nonempty [B] vector, got {nlls.shape}")
    inverse = np.asarray(1.0 / nlls.shape[0], dtype=nlls.data.dtype)
    out = nlls.data.sum() * inverse
    weights = [] if store is None or decay <= 0.0 else [
        tensor for _, tensor in store.trainable()]
    if weights:
        total = sum((w.data * w.data).sum() for w in weights)
        out = out + np.asarray(weights[0].data.dtype.type(decay) * total)
    return record_op("batch_loss", out, (nlls, *weights), lambda g: (
        np.full(nlls.shape, g * inverse), *(2.0 * decay * g * w.data for w in weights)))


def decode_span(p_begin: np.ndarray, p_end: np.ndarray, max_len: int,
                unanswerable_mode: bool = False) -> tuple[int, int, float, bool]:
    """Highest-product span (begin, end) with end within the length window.

    Ties resolve to the earliest begin, then the earliest end.  In
    unanswerable mode the (last, last) span means "no answer".
    """
    n = p_begin.shape[0]
    width = min(max_len, n)
    # Row i of the window view is p_end[i:i + max_len]; the -inf tail
    # keeps positions past the passage from being chosen.
    padded = np.concatenate([p_end, np.full(width - 1, -np.inf, dtype=p_end.dtype)])
    ends = np.arange(n) + np.argmax(
        np.lib.stride_tricks.sliding_window_view(padded, width), axis=1)
    scores = p_begin * p_end[ends]
    begin = int(np.argmax(scores))
    end = int(ends[begin])
    answerable = not (unanswerable_mode and begin == end == n - 1)
    return begin, end, float(scores[begin]), answerable


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

class Adam:
    """Adaptive-moment optimizer with linear learning-rate warmup.  It holds
    no moments until ``step`` finds a parameter's first gradient."""

    def __init__(self, store: ParamStore, learning_rate: float,
                 warmup_steps: int = 0, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.store = store
        self.learning_rate = learning_rate
        self.warmup_steps = warmup_steps
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self) -> None:
        """Update every parameter with a gradient, then clear all gradients.

        A parameter's first gradient creates its moments as zeros: the
        bits of moments held at zero from the optimizer's start.
        The moments are updated in place and both bias corrections fold
        into two scalars:
        rate * m_hat / (sqrt(v_hat) + eps)
          = (rate * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2)),
        with c1 = 1 - beta1^t and c2 = 1 - beta2^t.  Each parameter is
        rebound to a new array, never written in place, so the model's
        passage cache sees the change.
        """
        self.step_count += 1
        rate = self.learning_rate
        if self.warmup_steps > 0:
            rate *= min(1.0, self.step_count / self.warmup_steps)
        beta1, beta2 = self.beta1, self.beta2
        root_c2 = math.sqrt(1.0 - beta2 ** self.step_count)
        step_size = rate * root_c2 / (1.0 - beta1 ** self.step_count)
        epsilon = self.epsilon * root_c2
        for name, tensor in self.store.trainable():
            grad = tensor.grad
            if grad is None:
                continue
            if name not in self._m:
                self._m[name] = np.zeros_like(tensor.data)
                self._v[name] = np.zeros_like(tensor.data)
            m, v = self._m[name], self._v[name]
            update = np.multiply(grad, 1.0 - beta2)
            update *= grad
            v *= beta2
            v += update
            np.multiply(grad, 1.0 - beta1, out=update)
            m *= beta1
            m += update
            np.sqrt(v, out=update)
            update += epsilon
            np.divide(m, update, out=update)
            update *= step_size
            tensor.data = np.subtract(tensor.data, update, out=update)
        self.store.zero_grads()


def train_step(model: Model, batch: list[Example], optimizer: Adam,
               rng: np.random.Generator) -> float:
    """One optimization step on a batch; returns the pre-update batch loss.

    The batch runs as one pack: one forward, one loss (the mean over its
    examples plus weight decay) and one backward.
    """
    if not batch:
        raise DataError("train_step needs a nonempty batch")
    store = model.store
    store.zero_grads()
    with Tape() as tape:
        result = model.forward(batch, training=True, rng=rng)
        nlls = span_nll(result.p_begin, result.p_end,
                        [e.answer_begin for e in batch],
                        [e.answer_end for e in batch], result.p_lengths)
        loss = batch_loss(nlls, store, model.config.l2_decay)
    if not np.isfinite(loss.data):
        culprit = tape.first_nonfinite() or "loss"
        raise NumericsError(
            f"non-finite loss at optimizer step {optimizer.step_count + 1}; "
            f"first non-finite tensor: {culprit}")
    backward(tape, loss, store)
    del tape    # free the records before the update allocates
    optimizer.step()
    return float(loss.data)


def evaluate(model: Model, examples: list[Example]) -> dict[str, float]:
    """Macro EM/F1 of greedy span decoding against gold answers.

    The examples run in eval-mode packs of ``config.batch_size``, and each
    passage segment is decoded on its own.
    """
    if not examples:
        raise DataError("cannot evaluate an empty dataset")
    pairs = []
    size = model.config.batch_size
    for start in range(0, len(examples), size):
        pack = examples[start:start + size]
        predictions = model.decode(pack, model.forward(pack))
        pairs += [(p.text, e.answer_text) for p, e in zip(predictions, pack)]
    return evaluate_pairs(pairs)


def fit(model: Model, examples: list[Example], *, epochs: int,
        steps: int | None = None, seed: int = 0,
        log=None) -> list[dict[str, float]]:
    """Epoch loop: shuffle, batch, step, then evaluate on the training set."""
    if not examples:
        raise DataError("cannot train on an empty dataset")
    cfg = model.config
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.store, cfg.learning_rate, cfg.warmup_steps)
    history = []
    done = False
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(examples))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            if steps is not None and optimizer.step_count >= steps:
                done = True
                break
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            losses.append(train_step(model, batch, optimizer, rng))
        if losses:
            metrics = evaluate(model, examples)
            entry = {"epoch": epoch, "loss": float(np.mean(losses)),
                     "em": metrics["em"], "f1": metrics["f1"]}
            history.append(entry)
            if log is not None:
                log(f"epoch={entry['epoch']} loss={entry['loss']:.4f} "
                    f"em={entry['em']:.4f} f1={entry['f1']:.4f}")
        if done:
            break
    return history
