"""Dataset loading/validation, synthetic generators, EM/F1 metrics."""

import json
import math

import numpy as np
import pytest

from abanet.data import (
    Example,
    build_vocabs,
    char_id_matrix,
    check_passage_lengths,
    example_from_dict,
    gen_synthetic,
    load_jsonl,
    save_jsonl,
    validate_example,
)
from abanet.config import mini_profile
from abanet.embedding import PAD_ID, PAD_TOKEN, UNK_ID, UNK_TOKEN, Vocabulary
from abanet.errors import ConfigError, DataError
from abanet.metrics import evaluate_pairs, exact_match, f1_score, normalize_answer


def make_example(**overrides):
    base = dict(id="x1", passage=["a", "b", "c"], question=["b"],
                pos=[0, 1, 2], ner=[0, 0, 1], rule=[0, 1, 0],
                answer_begin=1, answer_end=1, answerable=True)
    base.update(overrides)
    return Example(**base)


class TestValidation:
    def test_valid_example_passes(self):
        validate_example(make_example())

    def test_span_past_passage_names_id(self):
        with pytest.raises(DataError, match="x1"):
            validate_example(make_example(answer_end=3))

    def test_inverted_span(self):
        with pytest.raises(DataError, match="span"):
            validate_example(make_example(answer_begin=2, answer_end=1))

    def test_feature_length_mismatch(self):
        with pytest.raises(DataError, match="pos"):
            validate_example(make_example(pos=[0, 1]))

    def test_unanswerable_must_point_at_last_token(self):
        with pytest.raises(DataError, match="last token"):
            validate_example(make_example(answerable=False))
        validate_example(make_example(answerable=False, answer_begin=2,
                                      answer_end=2))

    @pytest.mark.parametrize("bad", [0, -1, True, np.bool_(True), 1.0,
                                     np.float64(1.0), "1"],
                             ids=["zero", "negative", "bool", "np.bool_", "float",
                                  "np.float64", "str"])
    def test_subtoken_validation(self, bad):
        with pytest.raises(DataError, match=r"subtokens counts must be integers in \[1, inf\)"):
            validate_example(make_example(subtokens=[1, bad, 1]))
        validate_example(make_example(subtokens=[1, 3, 2]))
        validate_example(make_example(subtokens=[np.int64(1), 3, np.int64(2)]))


# Each field's lowest valid value; ``high`` gives its first value out of
# range, which is infinite for sub-token counts and for tag ids without a config.
LOW = {"pos": 0, "ner": 0, "rule": 0, "subtokens": 1}
BAD_VALUES = {"bool": True, "np.bool_": np.bool_(True), "float": 1.0,
              "np.float64": np.float64(1.0), "str": "1"}


def checked_example(field, value):
    """``make_example`` with ``value`` in the middle of ``field``."""
    values = [LOW[field], value, LOW[field]]
    return make_example(**{field: values})


def high(field, config):
    return getattr(config, f"{field}_vocab") if config and field != "subtokens" else math.inf


def check_cases():
    for field in LOW:
        for with_config in (False, True):
            config = mini_profile() if with_config else None
            bad = {**BAD_VALUES, "below": LOW[field] - 1}
            if high(field, config) != math.inf:
                bad["at-high"] = high(field, config)
            for kind, value in bad.items():
                yield pytest.param(field, value, config,
                                   id=f"{field}-{kind}-{'config' if config else 'none'}")


@pytest.mark.parametrize("field,value,config", check_cases())
def test_check_passage_lengths_rejects_with_its_message(field, value, config):
    kind = "counts" if field == "subtokens" else "ids"
    with pytest.raises(DataError) as info:
        check_passage_lengths(checked_example(field, value), config)
    assert str(info.value) == (f"example 'x1': {field} {kind} must be integers in "
                               f"[{LOW[field]}, {high(field, config)})")


@pytest.mark.parametrize("with_config", [False, True])
@pytest.mark.parametrize("field", list(LOW))
def test_check_passage_lengths_accepts_numpy_integers(field, with_config):
    config = mini_profile() if with_config else None
    top = high(field, config) - 1 if high(field, config) != math.inf else 10**9
    check_passage_lengths(checked_example(field, np.int64(top)), config)
    check_passage_lengths(make_example(**{field: list(np.full(3, LOW[field]))}), config)


class TestJsonl:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        assert load_jsonl(str(path)) == []

    def test_round_trip_preserves_every_field(self, tmp_path):
        examples = [make_example(),
                    make_example(id="x2", subtokens=[2, 1, 1]),
                    make_example(id="x3", answerable=False,
                                 answer_begin=2, answer_end=2)]
        path = tmp_path / "data.jsonl"
        save_jsonl(str(path), examples)
        loaded = load_jsonl(str(path))
        assert loaded == examples

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "ok"}\n{broken\n')
        with pytest.raises(DataError, match="data.jsonl:1"):
            load_jsonl(str(path))

    def test_bad_json_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_jsonl(str(path), [make_example()])
        with open(path, "a") as fh:
            fh.write("{not json}\n")
        with pytest.raises(DataError, match="data.jsonl:2.*invalid JSON"):
            load_jsonl(str(path))

    def test_unknown_field_rejected(self):
        record = json.loads(json.dumps({
            "id": "x", "passage": ["a"], "question": ["a"], "pos": [0],
            "ner": [0], "rule": [0], "answer_begin": 0, "answer_end": 0,
            "answerable": True, "bogus": 1}))
        with pytest.raises(DataError, match="bogus"):
            example_from_dict(record, "here")

    @pytest.mark.parametrize("field,value", [
        ("answer_begin", 1.9),
        ("answer_end", "2"),
        ("answerable", "false"),
        ("passage", "abc"),
        ("pos", [True, 1, 2]),
        ("question", [1]),
        ("ner", [0.0, 0, 1]),
        ("subtokens", [True, 1, 1]),
        ("id", None),
        ("id", [1, 2]),
        ("id", 7),
    ], ids=str)
    def test_wrong_json_type_rejected_with_line(self, tmp_path, field, value):
        """A field of another JSON type is an error naming path:line, not a
        silent conversion (1.9 -> 1, "false" -> True, "abc" -> a, b, c,
        null -> "None")."""
        record = {"id": "x1", "passage": ["a", "b", "c"], "question": ["b"],
                  "pos": [0, 1, 2], "ner": [0, 0, 1], "rule": [0, 1, 0],
                  "answer_begin": 1, "answer_end": 1, "answerable": True}
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps({**record, field: value}) + "\n")
        with pytest.raises(DataError, match=f"data.jsonl:2: {field} must be"):
            load_jsonl(str(path))

    @pytest.mark.parametrize("value", [True, np.bool_(True)], ids=["True", "np.bool_"])
    @pytest.mark.parametrize("field", ["pos", "ner", "rule"])
    def test_bool_tag_ids_rejected(self, field, value):
        with pytest.raises(DataError, match=f"{field} ids"):
            validate_example(make_example(**{field: [value, 1, 0]}))

    def test_fuzzed_span_mutations_all_rejected(self, tmp_path):
        """Every mutation that breaks the span invariant is caught."""
        rng = np.random.default_rng(0)
        examples = gen_synthetic("copy-locate", 5, seed=1)
        path = tmp_path / "data.jsonl"
        rejected = 0
        for _ in range(100):
            victim = examples[rng.integers(len(examples))]
            record = {
                "id": victim.id, "passage": list(victim.passage),
                "question": list(victim.question), "pos": list(victim.pos),
                "ner": list(victim.ner), "rule": list(victim.rule),
                "answer_begin": victim.answer_begin,
                "answer_end": victim.answer_end, "answerable": True,
            }
            n = len(record["passage"])
            mutation = rng.integers(3)
            if mutation == 0:
                record["answer_end"] = n + int(rng.integers(0, 3))
            elif mutation == 1:
                record["answer_begin"] = -1 - int(rng.integers(0, 3))
            else:
                record["answer_begin"] = record["answer_end"] + 1 + int(rng.integers(0, 2))
                if record["answer_begin"] >= n:
                    record["answer_end"] = n  # keep it broken, not wrapped
            path.write_text(json.dumps(record) + "\n")
            with pytest.raises(DataError):
                load_jsonl(str(path))
            rejected += 1
        assert rejected == 100


class TestSynthetic:
    def test_copy_locate_rule(self):
        for example in gen_synthetic("copy-locate", 30, seed=7):
            token = example.question[0]
            assert example.passage[example.answer_begin] == token
            assert example.answer_begin == example.answer_end
            assert example.passage.count(token) == 1
            assert example.passage.index(token) == example.answer_begin

    def test_marker_span_rule(self):
        for example in gen_synthetic("marker-span", 30, seed=9):
            begin_idx = example.passage.index("mbeg")
            end_idx = example.passage.index("mend")
            assert example.answer_begin == begin_idx + 1
            assert example.answer_end == end_idx - 1
            assert example.answer_begin <= example.answer_end

    def test_same_seed_identical(self):
        assert gen_synthetic("copy-locate", 10, seed=3) == \
            gen_synthetic("copy-locate", 10, seed=3)

    def test_different_seed_differs(self):
        assert gen_synthetic("copy-locate", 10, seed=3) != \
            gen_synthetic("copy-locate", 10, seed=4)

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="unknown synthetic task"):
            gen_synthetic("mystery", 5, seed=0)


def loop_build_vocabs(examples):
    """The per-character loop that the bulk build replaced."""
    words = Vocabulary()
    chars = Vocabulary()
    for example in examples:
        for token in list(example.passage) + list(example.question):
            words.add(token)
            for ch in token:
                chars.add(ch)
    return words, chars


def squad_shaped(seed, passages=4, questions=5):
    """Passages of 80-200 tokens drawn with Zipf-like frequencies from
    pseudo-words, ``questions`` per passage, each repeating passage tokens."""
    rng = np.random.default_rng(seed)
    letters = list("abcdefghijklmnopqrstuvwxyzéß-0123456789")
    pool = ["".join(rng.choice(letters, size=int(rng.integers(1, 9))))
            for _ in range(300)]
    weights = 1.0 / np.arange(1, len(pool) + 1)
    weights /= weights.sum()
    examples = []
    for p in range(passages):
        n = int(rng.integers(80, 201))
        passage = [pool[i] for i in rng.choice(len(pool), size=n, p=weights)]
        for q in range(questions):
            question = ([passage[i] for i in rng.integers(0, n, size=4)]
                        + [pool[i] for i in rng.choice(len(pool), size=3, p=weights)])
            examples.append(Example(id=f"sq-{p}-{q}", passage=passage, question=question,
                                    pos=[0] * n, ner=[0] * n, rule=[0] * n,
                                    answer_begin=0, answer_end=0))
    return examples


VOCAB_CASES = {
    "copy-locate": lambda: gen_synthetic("copy-locate", 20, seed=1),
    "marker-span": lambda: gen_synthetic("marker-span", 20, seed=2),
    "squad-shaped": lambda: squad_shaped(3),
    "reserved": lambda: [make_example(passage=["ab", UNK_TOKEN, "", "ba"],
                                      question=[PAD_TOKEN, "ab"], pos=[0] * 4,
                                      ner=[0] * 4, rule=[0] * 4)],
}


class TestVocabHelpers:
    @pytest.mark.parametrize("case", VOCAB_CASES)
    def test_build_vocabs_matches_the_per_character_loop(self, case):
        """Ids in first-occurrence order, as the loop gave them; repeated
        tokens add no word and no character."""
        examples = VOCAB_CASES[case]()
        tokens = [t for e in examples for t in [*e.passage, *e.question]]
        got, want = build_vocabs(examples), loop_build_vocabs(examples)
        assert len(tokens) > len(set(tokens))
        assert got[0].tokens == want[0].tokens
        assert got[1].tokens == want[1].tokens

    def test_build_vocabs_covers_both_sides(self):
        examples = [make_example(passage=["cat", "dog"], question=["bird"],
                                 pos=[0, 0], ner=[0, 0], rule=[0, 0],
                                 answer_begin=0, answer_end=0)]
        words, chars = build_vocabs(examples)
        for token in ("cat", "dog", "bird"):
            assert token in words
        for ch in "catdogbird":
            assert ch in chars

    def test_char_id_matrix_padding_and_truncation(self):
        examples = [make_example(passage=["abc"], question=["abc"],
                                 pos=[0], ner=[0], rule=[0],
                                 answer_begin=0, answer_end=0)]
        _, chars = build_vocabs(examples)
        matrix = char_id_matrix(["abc", "abcdef", "zz"], chars, max_word_len=4)
        assert matrix.shape == (3, 4)
        assert matrix[0, 3] == PAD_ID
        assert (matrix[1] != PAD_ID).all()
        assert matrix[2, 0] == UNK_ID  # 'z' never seen


class TestNormalization:
    def test_articles_case_punctuation(self):
        assert normalize_answer("The  Quick, Brown fox!") == "quick brown fox"

    def test_article_only_inside_words_kept(self):
        assert normalize_answer("another theory") == "another theory"


class TestExactMatch:
    def test_normalized_equality(self):
        assert exact_match("The Answer", "answer") == 1.0

    def test_different_numbers(self):
        assert exact_match("23", "24") == 0.0

    def test_both_empty(self):
        assert exact_match("", "") == 1.0


def naive_f1(prediction, gold):
    """Independent count: pair up tokens one-by-one with removal."""
    pred = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred or not gold_tokens:
        return float(pred == gold_tokens)
    pool = list(gold_tokens)
    matched = 0
    for token in pred:
        if token in pool:
            pool.remove(token)
            matched += 1
    if matched == 0:
        return 0.0
    p = matched / len(pred)
    r = matched / len(gold_tokens)
    return 2 * p * r / (p + r)


class TestF1:
    def test_identical(self):
        assert f1_score("same span here", "same span here") == 1.0

    def test_half_overlap(self):
        assert f1_score("x y", "y z") == pytest.approx(0.5)

    def test_empty_cases(self):
        assert f1_score("", "") == 1.0
        assert f1_score("word", "") == 0.0
        assert f1_score("", "word") == 0.0

    def test_random_pairs_match_direct_count(self):
        rng = np.random.default_rng(5)
        pool = ["alpha", "beta", "gamma", "delta", "beta"]
        for _ in range(200):
            pred = " ".join(rng.choice(pool, size=rng.integers(0, 5)))
            gold = " ".join(rng.choice(pool, size=rng.integers(0, 5)))
            assert f1_score(pred, gold) == pytest.approx(naive_f1(pred, gold))

    def test_em_one_implies_f1_one(self):
        rng = np.random.default_rng(6)
        pool = ["alpha", "beta", "gamma"]
        for _ in range(100):
            text = " ".join(rng.choice(pool, size=rng.integers(1, 4)))
            assert f1_score(text, text.upper() + "!") == 1.0


class TestEvaluatePairs:
    def test_macro_average(self):
        result = evaluate_pairs([("a", "a"), ("b", "c")])
        assert result == {"em": 0.5, "f1": 0.5}

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty dataset"):
            evaluate_pairs([])

    def test_hand_scored_five(self):
        pairs = [
            ("the cat", "cat"),           # EM 1 (article), F1 1
            ("big cat", "cat"),           # EM 0, F1 2/3
            ("dog", "cat"),               # EM 0, F1 0
            ("", ""),                     # EM 1, F1 1
            ("cat dog", "dog cat bird"),  # EM 0, F1 0.8
        ]
        result = evaluate_pairs(pairs)
        assert result["em"] == pytest.approx(2 / 5)
        assert result["f1"] == pytest.approx((1 + 2 / 3 + 0 + 1 + 0.8) / 5)
