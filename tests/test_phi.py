import hashlib

import pytest
from hypothesis import given, strategies as st

from tiptree import (
    Label,
    LabelledPlaneTree,
    TreeClass,
    check_prop1,
    classify,
    gen_tip_augmented,
    parse_labelled,
    parse_tree,
    phi,
    phi_with_correspondence,
    stats,
)
from tiptree.errors import NotTipAugmentedError, TooSmallError

from helpers import (
    FOUR_EDGE_FIXED,
    FOUR_EDGE_IK,
    FOUR_EDGE_SWAPPED,
    FIVE_EDGE_FIXED,
    FIVE_EDGE_SWAPPED,
    SEVENTEEN_IN,
    SEVENTEEN_OUT,
)


class TestClassify:
    def test_four_edge_classes(self):
        expected = {
            "(()()()())": TreeClass.A1,
            "(()(())())": TreeClass.A2,
            "(()(()()))": TreeClass.B1,
            "(()()(()))": TreeClass.B2,
        }
        for word, cls in expected.items():
            assert classify(parse_tree(word)).tree_class is cls

    def test_two_edge_tree_is_a1(self):
        assert classify(parse_tree("(()())")).tree_class is TreeClass.A1

    def test_b2_picks_rightmost_singleton_parent(self):
        view = classify(parse_tree("(()(())(())())"))
        assert view.tree_class is TreeClass.B2
        # children of the root are vertices 1, 2, 4, 6; u is the third child
        assert view.u == 4
        assert view.left_block == (1, 2)
        assert view.trailing == (6,)

    def test_anatomy_a2(self):
        view = classify(parse_tree("(()(())())"))
        assert view.tree_class is TreeClass.A2
        assert view.first_child == 1
        assert view.second_child == 2
        assert view.u == 2
        assert view.v == 3
        assert view.trailing == (4,)

    def test_b1_anatomy(self):
        view = classify(parse_tree("(()(()()))"))
        assert view.u == 2
        assert view.left_block == (2,)
        assert view.trailing == ()

    def test_every_tree_gets_exactly_one_class(self):
        for n in range(2, 9):
            for t in gen_tip_augmented(n):
                classify(t)  # must not raise

    def test_rejects_non_tip_augmented(self):
        with pytest.raises(NotTipAugmentedError):
            classify(parse_tree("((())())"))

    def test_rejects_small(self):
        with pytest.raises(TooSmallError):
            classify(parse_tree("(())"))


class TestPhi:
    def test_small_trees_fixed(self):
        for word in ["()", "(())", "(()())"]:
            t = parse_tree(word)
            assert phi(t) == t

    def test_star_fixed(self):
        t = parse_tree("(()()()())")
        assert phi(t) == t

    def test_four_edge_swap(self):
        a = parse_tree("(()()(()))")
        b = parse_tree("(()(()()))")
        assert phi(a) == b
        assert phi(b) == a

    def test_five_edge_example(self):
        assert phi(parse_tree("(()()()(()))")) == parse_tree("(()(()()()))")

    def test_four_edge_catalog(self):
        for word in FOUR_EDGE_FIXED:
            assert phi(parse_tree(word)) == parse_tree(word)
        for a, b in FOUR_EDGE_SWAPPED:
            assert phi(parse_tree(a)) == parse_tree(b)
        for word, (i, k) in FOUR_EDGE_IK.items():
            vec = stats(parse_tree(word))
            assert (vec.i, vec.k) == (i, k)

    def test_five_edge_catalog(self):
        for word, (i, k) in FIVE_EDGE_FIXED.items():
            t = parse_tree(word)
            assert phi(t) == t
            assert (stats(t).i, stats(t).k) == (i, k)
        for a, b, ik_a, ik_b in FIVE_EDGE_SWAPPED:
            ta, tb = parse_tree(a), parse_tree(b)
            assert phi(ta) == tb and phi(tb) == ta
            assert (stats(ta).i, stats(ta).k) == ik_a
            assert (stats(tb).i, stats(tb).k) == ik_b

    def test_involution_exhaustive(self):
        for n in range(0, 9):
            for t in gen_tip_augmented(n):
                assert phi(phi(t)) == t

    def test_statistic_exchange_exhaustive(self):
        # starts at n=2: the lone leaf of the one-edge tree is a singleton
        # fixed by phi, the documented exception to the swap
        for n in range(2, 9):
            for t in gen_tip_augmented(n):
                assert stats(phi(t)) == stats(t).swapped()

    def test_one_edge_tree_is_the_documented_exception(self):
        t = parse_tree("(())")
        assert phi(t) == t
        assert stats(t).as_tuple() == (1, 0, 0, 0, 0)

    def test_edge_and_leaf_counts_preserved(self):
        for n in range(1, 8):
            for t in gen_tip_augmented(n):
                image = phi(t)
                assert image.edge_count == t.edge_count
                assert sum(1 for _ in image.leaves()) == sum(1 for _ in t.leaves())

    def test_class_exchange(self):
        swap = {
            TreeClass.A1: TreeClass.A1,
            TreeClass.A2: TreeClass.A2,
            TreeClass.B1: TreeClass.B2,
            TreeClass.B2: TreeClass.B1,
        }
        for n in range(2, 9):
            for t in gen_tip_augmented(n):
                assert classify(phi(t)).tree_class is swap[classify(t).tree_class]

    def test_rejects_non_tip_augmented(self):
        with pytest.raises(NotTipAugmentedError):
            phi(parse_tree("((()))"))


class TestPhiWithCorrespondence:
    def test_base_case(self):
        t = parse_labelled("1(2,3)")
        assert phi_with_correspondence(t) == t

    def test_b1_transport(self):
        assert (
            phi_with_correspondence(parse_labelled("1(2,3(4,5))")).word
            == "1(4,5,3(2))"
        )

    def test_a2_swap(self):
        assert (
            phi_with_correspondence(parse_labelled("1(2,3(4),5)")).word
            == "1(4,3(2),5)"
        )

    def test_seventeen_edge_catalog(self):
        big_in = parse_labelled(SEVENTEEN_IN)
        big_out = parse_labelled(SEVENTEEN_OUT)
        assert phi_with_correspondence(big_in) == big_out
        assert phi_with_correspondence(big_out) == big_in

    def test_shape_commutes_and_involutive(self):
        for n in range(1, 8):
            for t in gen_tip_augmented(n):
                labelled = LabelledPlaneTree(
                    t, tuple(Label(v + 1) for v in t.vertices())
                )
                image = phi_with_correspondence(labelled)
                assert image.shape == phi(t)
                assert sorted(l.value for l in image.labels) == sorted(
                    l.value for l in labelled.labels
                )
                assert phi_with_correspondence(image) == labelled


class TestProp1:
    def test_examples(self):
        b1 = check_prop1(parse_tree("(()(()()))"))
        assert b1.tree_class is TreeClass.B1
        assert (b1.i_recursive, b1.k_recursive) == (0, 1)
        assert b1.agrees
        a2 = check_prop1(parse_tree("(()(())())"))
        assert a2.tree_class is TreeClass.A2
        assert (a2.i_recursive, a2.k_recursive) == (1, 1)
        assert a2.agrees
        b2 = check_prop1(parse_tree("(()()(()))"))
        assert b2.tree_class is TreeClass.B2
        assert (b2.i_recursive, b2.k_recursive) == (1, 0)
        assert b2.agrees

    def test_exhaustive(self):
        for n in range(2, 10):
            for t in gen_tip_augmented(n):
                assert check_prop1(t).agrees


@st.composite
def tip_augmented_words(draw, max_edges=8):
    n = draw(st.integers(min_value=0, max_value=max_edges))
    return draw(st.sampled_from([t.word for t in gen_tip_augmented(n)]))


@given(tip_augmented_words())
def test_phi_property(word):
    t = parse_tree(word)
    image = phi(t)
    assert phi(image) == t
    if t.edge_count >= 2:
        assert stats(image) == stats(t).swapped()


# sha256 over the images of every tip-augmented shape with 2..11 edges (3,561
# shapes) in gen_tip_augmented order, each image word followed by "\n".  For
# the labelled digest every shape is labelled 1..N in preorder.  Recorded from
# the earlier recursive implementation of phi, which kept one copy for shapes
# and one for labelled trees.
PHI_DIGEST = "f954c5b93a5f93363e8dac76936cc927b9ee294cd744cde061f3963f9768833b"
TRANSPORT_DIGEST = "d85f84276b5d6a066e25bc74517a7254bfb7d96e609536527a3f5c888ad35cf1"


def test_golden_digests():
    shapes, labelled = hashlib.sha256(), hashlib.sha256()
    count = 0
    for n in range(2, 12):
        for t in gen_tip_augmented(n):
            lt = LabelledPlaneTree(t, tuple(Label(v + 1) for v in t.vertices()))
            shapes.update((phi(t).word + "\n").encode())
            labelled.update((phi_with_correspondence(lt).word + "\n").encode())
            count += 1
    assert count == 3561
    assert shapes.hexdigest() == PHI_DIGEST
    assert labelled.hexdigest() == TRANSPORT_DIGEST
