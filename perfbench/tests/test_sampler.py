"""Tests of the benchmark's input generators.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from sampler import (  # noqa: E402
    ShapeSampler,
    labelled_word,
    random_labelling,
    random_match_set,
)
from tiptree import (  # noqa: E402
    LabelledPlaneTree,
    Label,
    gen_tip_augmented,
    is_tip_augmented,
    motzkin,
    parse_labelled,
    parse_matches,
    parse_tree,
    validate_match_set,
)

SAMPLER = ShapeSampler(400)


def test_counts_are_motzkin_numbers():
    assert SAMPLER.count(0) == 1
    for n in range(1, 401):
        assert SAMPLER.count(n) == motzkin(n - 1)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 200, 400])
def test_shapes_are_tip_augmented_with_n_edges(n):
    rng = random.Random(n)
    for _ in range(20 if n < 200 else 3):
        t = parse_tree(SAMPLER.sample(n, rng))
        assert t.edge_count == n
        assert is_tip_augmented(t)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_shape_is_reached(n):
    rng = random.Random(100 + n)
    everything = {t.word for t in gen_tip_augmented(n)}
    seen = set()
    for _ in range(200 * len(everything)):
        seen.add(SAMPLER.sample(n, rng))
        if seen == everything:
            break
    assert seen == everything


def test_draws_are_close_to_uniform():
    rng = random.Random(5)
    draws = 9000
    counts = {t.word: 0 for t in gen_tip_augmented(5)}
    for _ in range(draws):
        counts[SAMPLER.sample(5, rng)] += 1
    expected = draws / len(counts)
    assert all(abs(c - expected) < 0.15 * expected for c in counts.values())


def test_sampler_is_deterministic_per_seed():
    draws = [[SAMPLER.sample(50, random.Random(7)) for _ in range(2)] for _ in range(2)]
    assert draws[0] == draws[1]


def test_large_shapes_need_no_recursion():
    assert len(SAMPLER.sample(400, random.Random(0))) == 802
    deep = ShapeSampler(1200)
    assert len(deep.sample(1200, random.Random(0))) == 2402


def test_sizes_outside_the_table_are_refused():
    with pytest.raises(ValueError):
        SAMPLER.sample(401, random.Random(0))


def test_labelled_word_matches_tiptree_serialisation():
    rng = random.Random(3)
    for n in range(0, 30):
        word = SAMPLER.sample(n, rng)
        labels = list(range(1, n + 2))
        rng.shuffle(labels)
        expected = LabelledPlaneTree(parse_tree(word), tuple(Label(v) for v in labels))
        assert labelled_word(word, labels) == expected.word


def test_random_labelling_uses_each_label_once():
    rng = random.Random(4)
    word = SAMPLER.sample(12, rng)
    t = parse_labelled(random_labelling(word, rng))
    assert t.shape == parse_tree(word)
    assert sorted(lab.value for lab in t.labels) == list(range(1, 14))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200, 400])
def test_match_sets_are_valid(n):
    rng = random.Random(n)
    for _ in range(10 if n < 200 else 2):
        f = parse_matches(random_match_set(n, rng))
        assert f.n == n
        assert validate_match_set(f).ok
