"""Dataset records, JSONL loading/saving, and synthetic task generators."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .embedding import PAD_ID, Vocabulary
from .errors import ConfigError, DataError


@dataclass
class Example:
    """One reading-comprehension instance.

    The answer is the token span [answer_begin, answer_end] of the
    passage; an unanswerable example points at the last token and decodes
    to the empty string.  Feature ids (pos/ner/rule) and optional
    sub-token counts cover passage tokens only.
    """

    id: str
    passage: list[str]
    question: list[str]
    pos: list[int]
    ner: list[int]
    rule: list[int]
    answer_begin: int
    answer_end: int
    answerable: bool = True
    subtokens: list[int] | None = None

    @property
    def answer_text(self) -> str:
        if not self.answerable:
            return ""
        return " ".join(self.passage[self.answer_begin:self.answer_end + 1])


def validate_example(example: Example) -> Example:
    n = len(example.passage)
    if n == 0:
        raise DataError(f"example {example.id!r}: empty passage")
    if len(example.question) == 0:
        raise DataError(f"example {example.id!r}: empty question")
    for name in ("pos", "ner", "rule"):
        ids = getattr(example, name)
        if len(ids) != n:
            raise DataError(
                f"example {example.id!r}: {name} has {len(ids)} ids for "
                f"{n} passage tokens")
        if any(not isinstance(i, int) or i < 0 for i in ids):
            raise DataError(f"example {example.id!r}: {name} ids must be "
                            f"nonnegative integers")
    if not (0 <= example.answer_begin <= example.answer_end < n):
        raise DataError(
            f"example {example.id!r}: span ({example.answer_begin}, "
            f"{example.answer_end}) is invalid for passage length {n}")
    if not example.answerable and (example.answer_begin, example.answer_end) != (n - 1, n - 1):
        raise DataError(
            f"example {example.id!r}: unanswerable examples must point at "
            f"the last token ({n - 1}, {n - 1})")
    if example.subtokens is not None:
        if len(example.subtokens) != n:
            raise DataError(
                f"example {example.id!r}: subtokens has {len(example.subtokens)} "
                f"entries for {n} passage tokens")
        if any(not isinstance(s, int) or s < 1 for s in example.subtokens):
            raise DataError(f"example {example.id!r}: subtoken counts must be "
                            f"positive integers")
    return example


_REQUIRED_FIELDS = ("id", "passage", "question", "pos", "ner", "rule",
                    "answer_begin", "answer_end", "answerable")


def example_from_dict(record: dict, where: str) -> Example:
    missing = [f for f in _REQUIRED_FIELDS if f not in record]
    if missing:
        raise DataError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = set(record) - set(_REQUIRED_FIELDS) - {"subtokens"}
    if unknown:
        raise DataError(f"{where}: unknown field(s) {', '.join(sorted(unknown))}")
    try:
        example = Example(
            id=str(record["id"]),
            passage=[str(t) for t in record["passage"]],
            question=[str(t) for t in record["question"]],
            pos=list(record["pos"]),
            ner=list(record["ner"]),
            rule=list(record["rule"]),
            answer_begin=int(record["answer_begin"]),
            answer_end=int(record["answer_end"]),
            answerable=bool(record["answerable"]),
            subtokens=(None if record.get("subtokens") is None
                       else list(record["subtokens"])),
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: malformed field ({exc})") from exc
    return validate_example(example)


def load_jsonl(path: str) -> list[Example]:
    """Read one validated Example per JSON line."""
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            examples.append(example_from_dict(record, f"{path}:{lineno}"))
    return examples


def save_jsonl(path: str, examples: Sequence[Example]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for example in examples:
            record = asdict(example)
            if record["subtokens"] is None:
                del record["subtokens"]
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Synthetic tasks
# ---------------------------------------------------------------------------

_WORD_POOL = [f"w{i:02d}" for i in range(30)]


def _feature_ids(rng: np.random.Generator, n: int) -> dict[str, list[int]]:
    return {
        "pos": [int(v) for v in rng.integers(0, 8, size=n)],
        "ner": [int(v) for v in rng.integers(0, 4, size=n)],
        "rule": [int(v) for v in rng.integers(0, 2, size=n)],
    }


def gen_synthetic(task: str, size: int, seed: int) -> list[Example]:
    """Deterministic rule-verifiable datasets.

    copy-locate: the question is one passage token; the answer is its
    (unique) position.  marker-span: the answer is the run of tokens
    between the sentinel tokens ``mbeg`` and ``mend``.
    """
    rng = np.random.default_rng(seed)
    examples = []
    if task == "copy-locate":
        for index in range(size):
            length = int(rng.integers(6, 11))
            tokens = [_WORD_POOL[i] for i in
                      rng.choice(len(_WORD_POOL), size=length, replace=False)]
            target = int(rng.integers(0, length))
            examples.append(validate_example(Example(
                id=f"copy-{index:04d}",
                passage=tokens,
                question=[tokens[target]],
                answer_begin=target,
                answer_end=target,
                **_feature_ids(rng, length),
            )))
    elif task == "marker-span":
        for index in range(size):
            prefix = int(rng.integers(1, 4))
            span = int(rng.integers(1, 4))
            suffix = int(rng.integers(1, 4))
            body = [_WORD_POOL[i] for i in
                    rng.choice(len(_WORD_POOL), size=prefix + span + suffix,
                               replace=False)]
            tokens = (body[:prefix] + ["mbeg"] + body[prefix:prefix + span]
                      + ["mend"] + body[prefix + span:])
            examples.append(validate_example(Example(
                id=f"mark-{index:04d}",
                passage=tokens,
                question=["mbeg", "mend"],
                answer_begin=prefix + 1,
                answer_end=prefix + span,
                **_feature_ids(rng, len(tokens)),
            )))
    else:
        raise ConfigError(
            f"unknown synthetic task {task!r}; expected copy-locate or marker-span")
    return examples


# ---------------------------------------------------------------------------
# Vocabulary and feature-array helpers
# ---------------------------------------------------------------------------

def build_vocabs(examples: Sequence[Example]) -> tuple[Vocabulary, Vocabulary]:
    """Word and character vocabularies over passages and questions."""
    words = Vocabulary()
    chars = Vocabulary()
    for example in examples:
        for token in list(example.passage) + list(example.question):
            words.add(token)
            for ch in token:
                chars.add(ch)
    return words, chars


def char_id_matrix(tokens: Sequence[str], chars: Vocabulary,
                   max_word_len: int) -> np.ndarray:
    """Per-word character ids, padded (or truncated) to ``max_word_len``."""
    out = np.full((len(tokens), max_word_len), PAD_ID, dtype=np.int64)
    for row, token in enumerate(tokens):
        for col, ch in enumerate(token[:max_word_len]):
            out[row, col] = chars.id(ch)
    return out
