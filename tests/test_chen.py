import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from tiptree import (
    Label,
    LabelledPlaneTree,
    Match,
    MatchType,
    decompose,
    decompose_all,
    flip,
    gen_labelled_plane_trees,
    gen_plane_trees,
    interior_census,
    match_type,
    merge,
    parse_labelled,
    parse_matches,
    parse_tree,
    serialize_matches,
    stats,
    validate_match_set,
)
from tiptree.errors import BadLabelDomainError, InvalidMatchSetError

from helpers import (
    ELEVEN_ROW_A,
    ELEVEN_ROW_B,
    ELEVEN_TREE_A,
    ELEVEN_TREE_B,
    all_match_sets,
)


class TestMatchType:
    def test_table(self):
        assert match_type(parse_matches("1:8").matches[0]) is MatchType.I
        assert match_type(parse_matches("13*:5").matches[0]) is MatchType.II
        assert match_type(parse_matches("5:13*").matches[0]) is MatchType.III
        assert match_type(parse_matches("14*:17*").matches[0]) is MatchType.IV

    def test_flip(self):
        m = parse_matches("14*:17*").matches[0]
        assert str(flip(m)) == "17*:14*"
        assert flip(flip(m)) == m
        assert str(flip(parse_matches("5*:6*").matches[0])) == "6*:5*"


class TestValidate:
    def test_valid(self):
        assert validate_match_set(parse_matches("1:2,3:4,5*:6*")).ok

    def test_duplicate(self):
        report = validate_match_set(parse_matches("1:2,3:4,5*:5*"))
        assert not report.ok
        assert any(issue.code == "DuplicateLabel" for issue in report.issues)

    def test_out_of_range_mark(self):
        report = validate_match_set(parse_matches("1:2,3:4,7*:6*"))
        assert not report.ok
        assert any(issue.code == "OutOfRangeMark" for issue in report.issues)

    def test_missing_label(self):
        report = validate_match_set(parse_matches("1:2,3:5,6*:7*"))
        assert not report.ok


class TestSerialization:
    def test_round_trip(self):
        text = "1:2,3:4,5*:6*"
        assert serialize_matches(parse_matches(text)) == text

    def test_canonical_order(self):
        f = parse_matches("5*:6*,3:4,1:2")
        assert serialize_matches(f) == "1:2,3:4,5*:6*"

    def test_order_insensitive_equality(self):
        assert parse_matches("5*:6*,1:2,3:4") == parse_matches("1:2,3:4,5*:6*")


class TestMerge:
    def test_two_matches(self):
        assert merge(parse_matches("1:2,4*:3")).word == "1(2,3)"

    def test_three_matches(self):
        assert merge(parse_matches("1:2,3:4,5*:6*")).word == "1(2,3(4))"

    def test_single_match(self):
        assert merge(parse_matches("1:2")).word == "1(2)"

    def test_eleven_match_rows(self):
        # The two flip-related rows merge to the two trees of the pair.
        assert merge(parse_matches(ELEVEN_ROW_A)).word == ELEVEN_TREE_A
        assert merge(parse_matches(ELEVEN_ROW_B)).word == ELEVEN_TREE_B

    def test_invalid_rejected(self):
        with pytest.raises(InvalidMatchSetError):
            merge(parse_matches("1:2,3:4,7*:6*"))

    def test_trace(self):
        tree, steps = merge(parse_matches("1:2,3:4,5*:6*"), with_trace=True)
        assert tree.word == "1(2,3(4))"
        assert [(s.mark, s.kind) for s in steps] == [
            (5, "horizontal"),
            (6, "vertical"),
        ]
        assert steps[0].tree_root == Label(1)
        assert steps[0].host_root == Label(5, True)

    def test_marked_vertices_stay_at_extremes(self):
        # merge asserts at every step that the vertex gaining a child is
        # unmarked and that the marked leaf it replaces has no children and
        # hangs from its tree's root.
        for n in range(1, 5):
            for f in all_match_sets(n):
                merge(f)


class TestDecompose:
    def test_two_vertices(self):
        assert serialize_matches(decompose(parse_labelled("1(2)"))) == "1:2"

    def test_three_labels(self):
        assert serialize_matches(decompose(parse_labelled("1(2,3)"))) == "1:2,4*:3"

    def test_unique_preimage_by_exhaustion_n2(self):
        # Independent check: enumerate all twelve oriented pairings of
        # {1,2,3,4*} and confirm only one merges to 1(2,3).
        target = parse_labelled("1(2,3)")
        hits = [f for f in all_match_sets(2) if merge(f) == target]
        assert len(hits) == 1
        assert serialize_matches(hits[0]) == "1:2,4*:3"

    def test_four_labels(self):
        assert (
            serialize_matches(decompose(parse_labelled("1(2,3(4))")))
            == "1:2,3:4,5*:6*"
        )

    def test_chain(self):
        assert (
            serialize_matches(decompose(parse_labelled("2(1(3(4)))")))
            == "1:5*,2:6*,3:4"
        )

    def test_eleven_edge_pair(self):
        assert decompose(parse_labelled(ELEVEN_TREE_A)) == parse_matches(ELEVEN_ROW_A)
        assert decompose(parse_labelled(ELEVEN_TREE_B)) == parse_matches(ELEVEN_ROW_B)

    def test_bad_domain(self):
        with pytest.raises(BadLabelDomainError):
            decompose(parse_labelled("1(2,4)"))
        with pytest.raises(BadLabelDomainError):
            decompose(parse_labelled("1(2,3*)"))


class TestBijection:
    def test_merge_is_bijection_n2(self):
        # All 12 match sets hit all 12 labelled plane trees exactly once.
        images = [merge(f).word for f in all_match_sets(2)]
        assert len(images) == 12
        assert len(set(images)) == 12
        expected = {t.word for t in gen_labelled_plane_trees(2)}
        assert set(images) == expected

    def test_merge_is_bijection_n3(self):
        images = [merge(f).word for f in all_match_sets(3)]
        assert len(images) == 120
        assert len(set(images)) == 120
        assert set(images) == {t.word for t in gen_labelled_plane_trees(3)}

    def test_round_trips_n3(self):
        for t in gen_labelled_plane_trees(3):
            f = decompose(t)
            assert merge(f) == t
            assert decompose(merge(f)) == f

    def test_decompose_inverts_merge_on_all_sets_n3(self):
        for f in all_match_sets(3):
            assert decompose(merge(f)) == f

    def test_exhaustive_uniqueness_n_le_3(self):
        for n in range(1, 4):
            for t in gen_labelled_plane_trees(n):
                preimages = decompose_all(t)
                assert len(preimages) == 1
                assert preimages[0] == decompose(t)


class TestCensusIdentity:
    def test_match_types_count_tree_anatomy(self):
        for n in range(1, 4):
            for t in gen_labelled_plane_trees(n):
                counts = {kind: 0 for kind in MatchType}
                for m in decompose(t).matches:
                    counts[match_type(m)] += 1
                vec = stats(t.shape)
                census = interior_census(t.shape)
                assert counts[MatchType.I] == vec.old
                assert counts[MatchType.II] == vec.young
                assert counts[MatchType.III] == census.old_interior
                assert counts[MatchType.IV] == census.young_interior


# the chain 1(2(3(...))) and the star 1(2,3,...) with 20,000 edges, labelled
# by a seeded random permutation of 1..20,001
DEEP_EDGES = 20_000


@pytest.mark.parametrize(
    "word",
    ["(" * (DEEP_EDGES + 1) + ")" * (DEEP_EDGES + 1), "(" + "()" * DEEP_EDGES + ")"],
    ids=["chain", "star"],
)
def test_deep_round_trip(word):
    values = list(range(1, DEEP_EDGES + 2))
    random.Random(0).shuffle(values)
    t = LabelledPlaneTree(parse_tree(word), tuple(Label(v) for v in values))
    f = decompose(t)
    assert merge(f) == t
    assert decompose(merge(f)) == f


# sha256 digests recorded from the earlier backtracking decompose and the
# merge that rescanned its whole forest at every step.  Decompose: one line
# per labelled plane tree with 1..5 edges (32,054 trees) in generator order,
# its serialised match set.  Merge: one line per match set of
# helpers.all_match_sets(n), n = 1..4 (1,814 sets), the merged tree's word
# and every step of its trace.
DECOMPOSE_DIGEST = "d0124a20a3ebde8e2a3578a64007d81e0aa4e79964d38f17dfba5ddf3965d987"
MERGE_DIGEST = "3c7ebbfc8100c71cd93de9d3861a8fba6915b676de2a319004c27780e28294a3"


def test_decompose_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 6):
        for t in gen_labelled_plane_trees(n):
            digest.update((serialize_matches(decompose(t)) + "\n").encode())
            count += 1
    assert count == 32054
    assert digest.hexdigest() == DECOMPOSE_DIGEST


def test_merge_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 5):
        for f in all_match_sets(n):
            tree, steps = merge(f, with_trace=True)
            trace = ";".join(
                f"{s.mark}{s.kind[0]}{s.tree_root}/{s.host_root}" for s in steps
            )
            digest.update(f"{tree.word} {trace}\n".encode())
            count += 1
    assert count == 1814
    assert digest.hexdigest() == MERGE_DIGEST


@st.composite
def labelled_plane_trees(draw, max_edges=4):
    n = draw(st.integers(min_value=1, max_value=max_edges))
    words = [t.word for t in gen_plane_trees(n)]
    shape = draw(st.sampled_from(words))
    perm = draw(st.permutations(list(range(1, n + 2))))
    return LabelledPlaneTree(
        parse_tree(shape), tuple(Label(v) for v in perm)
    )


@settings(max_examples=60, deadline=None)
@given(labelled_plane_trees())
def test_round_trip_property(t):
    assert merge(decompose(t)) == t
