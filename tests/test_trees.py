import pytest
from hypothesis import given, strategies as st

from tiptree import (
    Label,
    LabelledPlaneTree,
    PlaneTree,
    StatsVector,
    TreeClass,
    classify,
    gen_plane_trees,
    gen_tip_augmented,
    is_tip_augmented,
    parse_labelled,
    parse_tree,
    phi,
    phi_with_correspondence,
    render_dot,
    serialize_labelled,
    serialize_tree,
    stats,
)
from tiptree.errors import (
    DuplicateLabelError,
    EmptyInputError,
    IllegalCharacterError,
    LabelSyntaxError,
    UnbalancedParensError,
)


def all_words(max_edges):
    return [t.word for n in range(max_edges + 1) for t in gen_plane_trees(n)]


class TestParseTree:
    def test_single_vertex(self):
        t = parse_tree("()")
        assert t.vertex_count == 1
        assert t.edge_count == 0

    def test_four_leaf_star(self):
        t = parse_tree("(()()()())")
        assert t.children_of(t.root) == (1, 2, 3, 4)
        assert all(t.is_leaf(v) for v in t.children_of(t.root))

    def test_whitespace_is_insignificant(self):
        assert parse_tree(" ( () ( ) ) ") == parse_tree("(()())")

    def test_unbalanced(self):
        with pytest.raises(UnbalancedParensError):
            parse_tree("(()")
        with pytest.raises(UnbalancedParensError):
            parse_tree("())")
        with pytest.raises(UnbalancedParensError):
            parse_tree("()()")

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacterError):
            parse_tree("(a)")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_tree("   ")

    def test_edge_count_is_vertex_count_minus_one(self):
        for word in all_words(5):
            t = parse_tree(word)
            assert t.edge_count == t.vertex_count - 1


class TestSerializeTree:
    def test_single_vertex(self):
        assert serialize_tree(parse_tree("()")) == "()"

    def test_nested_example(self):
        t = PlaneTree("(()(()()))")  # root(leaf, u(leaf, leaf))
        assert serialize_tree(t) == "(()(()()))"

    @given(st.sampled_from([None]))
    def test_round_trip_all_small(self, _):
        for word in all_words(6):
            assert serialize_tree(parse_tree(word)) == word

    def test_preorder_ids_follow_text(self):
        t = parse_tree("(()(()()))")
        assert t.children_of(0) == (1, 2)
        assert t.children_of(2) == (3, 4)
        assert t.parent_of(4) == 2


class TestTipAugmented:
    def test_two_leaves(self):
        assert is_tip_augmented(parse_tree("(()())"))

    def test_interior_first_child(self):
        assert not is_tip_augmented(parse_tree("((())())"))

    def test_four_edge_example(self):
        assert is_tip_augmented(parse_tree("(()(())())"))

    def test_single_vertex_vacuous(self):
        assert is_tip_augmented(parse_tree("()"))

    def test_hereditary(self):
        # Every subtree of a tip-augmented tree is tip-augmented too.
        for n in range(1, 7):
            for t in gen_tip_augmented(n):
                for v in t.vertices():
                    assert is_tip_augmented(t.subtree(v))


class TestLabelled:
    def test_basic(self):
        t = parse_labelled("1(2,3)")
        assert t.shape.word == "(()())"
        assert [lab.value for lab in t.labels] == [1, 2, 3]

    def test_eleven_edge_round_trip(self):
        text = "10(3,1(8,5),9,7(6,2(4,12(11))))"
        t = parse_labelled(text)
        assert t.shape.edge_count == 11
        assert serialize_labelled(t) == text

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            parse_labelled("1(2,2)")

    def test_marked_labels(self):
        t = parse_labelled("5*(6*)")
        assert serialize_labelled(t) == "5*(6*)"
        assert t.labels[0].marked and t.labels[1].marked

    def test_marked_and_unmarked_same_value_are_distinct(self):
        t = parse_labelled("1(2,2*)")
        assert serialize_labelled(t) == "1(2,2*)"

    def test_syntax_errors(self):
        for bad in ["", "1(", "1(2,)", "(2)", "1(2))", "x", "0"]:
            with pytest.raises((LabelSyntaxError, EmptyInputError)):
                parse_labelled(bad)


@st.composite
def random_shapes(draw, max_edges=7):
    n = draw(st.integers(min_value=0, max_value=max_edges))
    words = [t.word for t in gen_plane_trees(n)]
    return draw(st.sampled_from(words))


@given(random_shapes())
def test_parse_serialize_inverse(word):
    assert serialize_tree(parse_tree(word)) == word


@given(random_shapes(max_edges=6), st.permutations(list(range(1, 20))))
def test_labelled_round_trip(word, values):
    shape = parse_tree(word)
    labels = tuple(Label(v) for v in values[: shape.vertex_count])
    t = LabelledPlaneTree(shape, labels)
    assert parse_labelled(serialize_labelled(t)) == t


DEEP_EDGES = 10**5
DEEP_LEVELS = DEEP_EDGES // 2


@pytest.mark.parametrize(
    "word, vector, tree_class",
    [
        # the chain (()(()(...(()())))): a leaf and the next level per level
        (
            "(" + "()(" * (DEEP_LEVELS - 1) + "()()" + ")" * DEEP_LEVELS,
            StatsVector(0, 1, DEEP_LEVELS - 1, 0, 1),
            TreeClass.B1,
        ),
        # the star (()()...()): one root with 10^5 leaves
        ("(" + "()" * DEEP_EDGES + ")", StatsVector(0, 1, 0, DEEP_EDGES - 2, 1), TreeClass.A1),
    ],
    ids=["chain", "star"],
)
def test_deep_inputs(word, vector, tree_class):
    t = parse_tree(word)
    assert t.edge_count == DEEP_EDGES
    assert serialize_tree(t) == word
    assert stats(t) == vector
    assert classify(t).tree_class is tree_class
    image = phi(t)
    assert stats(image) == vector.swapped()
    assert phi(image) == t
    lt = LabelledPlaneTree(t, tuple(Label(v + 1) for v in t.vertices()))
    moved = phi_with_correspondence(lt)
    assert moved.shape == image
    assert phi_with_correspondence(moved) == lt
    text = serialize_labelled(lt)
    back = parse_labelled(text)
    assert back == lt
    assert serialize_labelled(back) == text


class TestRenderDot:
    def test_single_vertex(self):
        out = render_dot(parse_tree("()"))
        assert out.startswith("digraph")
        assert out.count("n0 [") == 1
        assert "->" not in out

    def test_node_count_matches(self):
        for word in ["(()())", "(()(())())", "(()(()()))"]:
            t = parse_tree(word)
            out = render_dot(t)
            assert sum(1 for line in out.splitlines() if "[" in line and line.strip().startswith("n")) == t.vertex_count
            assert out.count("->") == t.edge_count

    def test_singleton_is_open_circle(self):
        out = render_dot(parse_tree("(()(())())"))
        # vertex 3 is the singleton leaf under the second child
        assert 'n3 [' in out
        line = next(l for l in out.splitlines() if l.strip().startswith("n3 ["))
        assert 'fillcolor="white"' in line

    def test_child_order_encoded(self):
        out = render_dot(parse_tree("(()())"))
        assert "ordering=out" in out

    def test_labelled_labels_shown(self):
        out = render_dot(parse_labelled("1(2,3(4))"))
        assert 'label="1"' in out and 'label="4"' in out

    def test_style_override(self):
        out = render_dot(parse_tree("(()())"), style={"default": {"color": "red"}})
        assert 'color="red"' in out
