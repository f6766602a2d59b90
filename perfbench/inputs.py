"""Seeded SQuAD-shaped inputs for the benchmark workloads.

``squad_shaped`` builds SQuAD-sized reading-comprehension examples
(Rajpurkar et al. 2016): 80-200-token passages, 6-16-token questions,
1-3 sub-tokens per word and a short gold span.  Lengths are fixed, not
drawn: ``passage_lengths`` walks out from the middle of the range (140,
128, 152, ... 80, 200) so that every prefix of a stream is balanced
around 140 tokens, and consecutive pairs of the uncentred walk hold 280
tokens each.  A run's median and mean then do not depend on how many
operations it got through.  The seed picks the words, sub-token counts,
features and answers.
"""

from __future__ import annotations

import math

import numpy as np

from abanet.data import Example, validate_example

PASSAGE_LEN = (80, 200)
QUESTION_LEN = (6, 16)
SUBTOKENS = (1, 3)
ANSWER_LEN = (1, 4)
LENGTH_STEP = 12
WORD_POOL = 5000
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_QUESTION_STEP = math.sqrt(2.0) - 1.0


def question_length(k: int) -> int:
    """k-th term of an additive-recurrence sequence over QUESTION_LEN."""
    lo, hi = QUESTION_LEN
    return lo + int(((k + 1) * _QUESTION_STEP) % 1.0 * (hi - lo + 1))


def passage_lengths(count: int, *, centre: bool) -> list[int]:
    """Middle-out walk over PASSAGE_LEN in steps of LENGTH_STEP, cycled.

    With ``centre`` the walk starts at the middle length; without it,
    each consecutive pair sums to twice the middle length.
    """
    lo, hi = PASSAGE_LEN
    mid = (lo + hi) // 2
    cycle = [mid] if centre else []
    for k in range(1, (hi - mid) // LENGTH_STEP + 1):
        cycle += [mid - k * LENGTH_STEP, mid + k * LENGTH_STEP]
    return [cycle[i % len(cycle)] for i in range(count)]


def _word_pool(rng: np.random.Generator) -> list[str]:
    words: set[str] = set()
    while len(words) < WORD_POOL:
        length = int(rng.integers(2, 11))
        words.add("".join(rng.choice(_LETTERS, size=length)))
    return sorted(words)


def squad_shaped(seed: int, lengths: list[int],
                 questions_per_passage: int) -> list[Example]:
    """``questions_per_passage`` examples per passage length, grouped by passage.

    Words are drawn with Zipf-like frequencies from a seeded pseudo-word
    pool; every passage and every question is distinct.
    """
    rng = np.random.default_rng(seed)
    pool = _word_pool(rng)
    weights = 1.0 / np.arange(1, len(pool) + 1)
    weights /= weights.sum()

    def draw(count: int) -> list[str]:
        return [pool[i] for i in rng.choice(len(pool), size=count, p=weights)]

    examples = []
    seen_passages: set[tuple[str, ...]] = set()
    seen_questions: set[tuple[str, ...]] = set()
    for p, n in enumerate(lengths):
        passage = draw(n)
        while tuple(passage) in seen_passages:
            passage = draw(n)
        seen_passages.add(tuple(passage))
        features = {
            "pos": [int(v) for v in rng.integers(0, 8, size=n)],
            "ner": [int(v) for v in rng.integers(0, 4, size=n)],
            "rule": [int(v) for v in rng.integers(0, 2, size=n)],
        }
        subtokens = [int(v) for v in
                     rng.integers(SUBTOKENS[0], SUBTOKENS[1] + 1, size=n)]
        for q in range(questions_per_passage):
            m = question_length(p * questions_per_passage + q)
            span = int(rng.integers(ANSWER_LEN[0], ANSWER_LEN[1] + 1))
            begin = int(rng.integers(0, n - span + 1))
            end = begin + span - 1
            # About half the question repeats words around the answer.
            context = passage[max(0, begin - 6):begin] + passage[end + 1:end + 7]
            question = (list(rng.choice(context, size=m // 2))
                        + draw(m - m // 2))
            while tuple(question) in seen_questions:
                question = question[:m // 2] + draw(m - m // 2)
            seen_questions.add(tuple(question))
            examples.append(validate_example(Example(
                id=f"squad-{p:04d}-{q}", passage=passage,
                question=[str(t) for t in question], answer_begin=begin,
                answer_end=end, subtokens=subtokens, **features)))
    return examples
