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


def check_passage_lengths(example: Example) -> None:
    """Raise DataError unless pos, ner, rule and, when given, subtokens
    have one entry per passage token."""
    n = len(example.passage)
    for name in ("pos", "ner", "rule", "subtokens"):
        ids = getattr(example, name)
        if ids is not None and len(ids) != n:
            raise DataError(
                f"example {example.id!r}: {name} has {len(ids)} entries for "
                f"{n} passage tokens")


def validate_example(example: Example) -> Example:
    n = len(example.passage)
    if n == 0:
        raise DataError(f"example {example.id!r}: empty passage")
    if len(example.question) == 0:
        raise DataError(f"example {example.id!r}: empty question")
    check_passage_lengths(example)
    for name in ("pos", "ner", "rule"):
        ids = getattr(example, name)
        if any(type(i) is not int or i < 0 for i in ids):   # bool is not int
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
        if any(type(s) is not int or s < 1 for s in example.subtokens):
            raise DataError(f"example {example.id!r}: subtoken counts must be "
                            f"positive integers")
    return example


_REQUIRED_FIELDS = ("id", "passage", "question", "pos", "ner", "rule",
                    "answer_begin", "answer_end", "answerable")


def _is_list(value, kind: type) -> bool:
    return type(value) is list and all(type(v) is kind for v in value)


# The JSON type of every field, as (check, what it must be).
# Types must match exactly: a bool is not an int, although it subclasses int.
_STRINGS = (lambda v: _is_list(v, str), "a list of strings")
_INTS = (lambda v: _is_list(v, int), "a list of integers")
_INT = (lambda v: type(v) is int, "an integer")
_FIELD_TYPES = {
    "id": (lambda v: type(v) is str, "a string"),
    "passage": _STRINGS, "question": _STRINGS,
    "pos": _INTS, "ner": _INTS, "rule": _INTS,
    "answer_begin": _INT, "answer_end": _INT,
    "answerable": (lambda v: type(v) is bool, "true or false"),
    "subtokens": (lambda v: v is None or _is_list(v, int), "a list of integers or null"),
}


def example_from_dict(record: dict, where: str) -> Example:
    """An Example from one JSON record, rejecting any field of another JSON
    type than its own; ``where`` names the record in errors."""
    missing = [f for f in _REQUIRED_FIELDS if f not in record]
    if missing:
        raise DataError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = set(record) - set(_FIELD_TYPES)
    if unknown:
        raise DataError(f"{where}: unknown field(s) {', '.join(sorted(unknown))}")
    for name, (check, expected) in _FIELD_TYPES.items():
        if not check(record.get(name)):
            raise DataError(f"{where}: {name} must be {expected}, "
                            f"got {record[name]!r:.40}")
    return validate_example(Example(**{name: record.get(name) for name in _FIELD_TYPES}))


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
