"""Matches and the merge / decompose bijection for labelled plane trees.

A match is a rooted tree with exactly two vertices.  A set of n matches
over the label universe {1..n+1} (unmarked) plus {(n+2)*..(2n)*} (marked)
merges into one labelled plane tree on {1..n+1}:

1. find the tree T with the smallest root among the trees containing no
   marked vertex, and call its root i;
2. find the tree T* containing the globally smallest marked vertex j*;
3. if j* is the root of T*, identify i with j*, keep i, and append the
   subtrees of T* to the right of T's subtrees (a *horizontal merge*);
   if j* is a leaf of T*, substitute T for that leaf (a *vertical merge*);
4. repeat until one tree remains.

Each step consumes one marked vertex, so n matches merge in n - 1 steps,
and a forest of m trees always carries exactly m - 1 marks, which
guarantees by pigeonhole that a fully unmarked tree exists at every step.

The merge is a bijection; ``decompose`` inverts it by undoing marks from
2n down to n+2 with backtracking.  An undo step splits one forest tree
into the (T, T*) pair a merge step would have combined, and a split is
only admissible when T is fully unmarked and has the minimum root value
among the fully unmarked trees of the resulting forest.  Greedy undoing is
not sound: locally plausible splits can strand the search, so dead ends
backtrack.  The found preimage is re-merged and compared against the input
before it is returned.

Match types are read off the marked flags: type i has both vertices
unmarked, type ii a marked root, type iii a marked leaf, type iv both
marked.  In a decomposition, type i matches correspond to old leaves,
type ii to young leaves, type iii to old interior vertices and type iv
roots to young interior vertices of the merged tree (root excluded).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .errors import (
    BadLabelDomainError,
    InvalidMatchSetError,
    LabelSyntaxError,
    NoPreimageError,
    TrivialTreeError,
)
from .trees import Label, LabelledPlaneTree, PlaneTree

# The merge and decompose work on forests of nested ``(label, children)``
# tuples, where ``children`` is a tuple of such nodes.
_Node = tuple


def _to_node(t: LabelledPlaneTree) -> _Node:
    shape = t.shape
    nodes: list = [None] * shape.vertex_count
    for v in reversed(shape.vertices()):  # children before their parent
        nodes[v] = (t.labels[v], tuple(nodes[c] for c in shape.children_of(v)))
    return nodes[0]


def _from_node(node: _Node) -> LabelledPlaneTree:
    word: list[str] = []
    labels: list[Label] = []
    stack: list[Optional[_Node]] = [node]
    while stack:
        item = stack.pop()
        if item is None:  # every child of the vertex has been written
            word.append(")")
            continue
        label, children = item
        labels.append(label)
        word.append("(")
        stack.append(None)
        stack.extend(reversed(children))
    return LabelledPlaneTree(PlaneTree("".join(word)), tuple(labels))


class MatchType(enum.Enum):
    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"


@dataclass(frozen=True)
class Match:
    """A two-vertex rooted tree: a root and its single leaf."""

    root: Label
    leaf: Label

    def __str__(self) -> str:
        return f"{self.root}:{self.leaf}"


def match_type(m: Match) -> MatchType:
    if m.root.marked:
        return MatchType.IV if m.leaf.marked else MatchType.II
    return MatchType.III if m.leaf.marked else MatchType.I


def flip(m: Match) -> Match:
    """Turn a match upside down, exchanging root and leaf."""
    return Match(m.leaf, m.root)


@dataclass(frozen=True)
class MatchSet:
    """n matches stored in canonical order (ascending root value, marked last)."""

    n: int
    matches: tuple[Match, ...]

    @classmethod
    def from_matches(cls, matches) -> "MatchSet":
        ordered = tuple(sorted(matches, key=lambda m: m.root.sort_key()))
        return cls(len(ordered), ordered)

    @classmethod
    def parse(cls, text: str) -> "MatchSet":
        return parse_matches(text)

    def __str__(self) -> str:
        return serialize_matches(self)


def parse_matches(text: str) -> MatchSet:
    """Parse the ``root:leaf,root:leaf,...`` format (order insignificant)."""
    stripped = "".join(text.split())
    if not stripped:
        return MatchSet(0, ())
    matches = []
    for item in stripped.split(","):
        parts = item.split(":")
        if len(parts) != 2:
            raise LabelSyntaxError(f"expected 'root:leaf', got {item!r}")
        matches.append(Match(_parse_label(parts[0]), _parse_label(parts[1])))
    return MatchSet.from_matches(matches)


def serialize_matches(f: MatchSet) -> str:
    """Comma-separated matches, ascending by (root value, marked)."""
    ordered = sorted(f.matches, key=lambda m: m.root.sort_key())
    return ",".join(str(m) for m in ordered)


def _parse_label(text: str) -> Label:
    body, star = (text[:-1], True) if text.endswith("*") else (text, False)
    if not body.isdigit() or int(body) < 1:
        raise LabelSyntaxError(f"bad label {text!r}")
    return Label(int(body), star)


class MatchSetIssue(NamedTuple):
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[MatchSetIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_match_set(f: MatchSet) -> ValidationReport:
    """Check the label universe: unmarked {1..n+1}, marked {n+2..2n}, no reuse."""
    n = f.n
    issues: list[MatchSetIssue] = []
    seen: set[tuple[int, bool]] = set()
    unmarked: set[int] = set()
    marked: set[int] = set()
    for m in f.matches:
        for lab in (m.root, m.leaf):
            key = (lab.value, lab.marked)
            if key in seen:
                issues.append(
                    MatchSetIssue("DuplicateLabel", f"label {lab} used twice")
                )
            seen.add(key)
            (marked if lab.marked else unmarked).add(lab.value)
    for value in sorted(marked):
        if not (n + 2 <= value <= 2 * n):
            issues.append(
                MatchSetIssue(
                    "OutOfRangeMark",
                    f"marked label {value}* outside {{{n + 2}..{2 * n}}}",
                )
            )
    for value in sorted(unmarked):
        if not (1 <= value <= n + 1):
            issues.append(
                MatchSetIssue(
                    "OutOfRangeLabel",
                    f"label {value} outside {{1..{n + 1}}}",
                )
            )
    for value in range(1, n + 2):
        if value not in unmarked:
            issues.append(MatchSetIssue("MissingLabel", f"label {value} missing"))
    for value in range(n + 2, 2 * n + 1):
        if value not in marked:
            issues.append(MatchSetIssue("MissingMark", f"label {value}* missing"))
    return ValidationReport(tuple(issues))


# --- merging -------------------------------------------------------------------

class MergeStep(NamedTuple):
    mark: int
    kind: str  # "horizontal" or "vertical"
    tree_root: Label
    host_root: Label


def _has_mark(node: _Node) -> bool:
    label, children = node
    return label.marked or any(_has_mark(c) for c in children)


def _min_mark(node: _Node) -> Optional[int]:
    label, children = node
    best = label.value if label.marked else None
    for child in children:
        sub = _min_mark(child)
        if sub is not None and (best is None or sub < best):
            best = sub
    return best


def _marks_at_extremes(node: _Node, is_root: bool = True) -> bool:
    # Every marked vertex of a reachable forest tree is its root or a leaf.
    label, children = node
    if label.marked and children and not is_root:
        return False
    return all(_marks_at_extremes(c, False) for c in children)


def _replace_leaf(node: _Node, value: int, replacement: _Node) -> _Node:
    label, children = node
    if label.marked and label.value == value and not children:
        return replacement
    return (
        label,
        tuple(_replace_leaf(c, value, replacement) for c in children),
    )


def _merge_states(f: MatchSet) -> Iterator[tuple[list[_Node], Optional[MergeStep]]]:
    """Drive the merge, yielding the forest after the initial setup and
    after every step (with the step that produced it)."""
    forest: list[_Node] = [(m.root, ((m.leaf, ()),)) for m in f.matches]
    yield list(forest), None
    for _ in range(f.n - 1):
        best = None
        for idx, tree in enumerate(forest):
            if not _has_mark(tree):
                if best is None or tree[0].value < forest[best][0].value:
                    best = idx
        assert best is not None, "pigeonhole: a fully unmarked tree always exists"
        host = None
        host_min = None
        for idx, tree in enumerate(forest):
            sub = _min_mark(tree)
            if sub is not None and (host_min is None or sub < host_min):
                host, host_min = idx, sub
        assert host is not None and host != best
        tree = forest[best]
        host_tree = forest[host]
        if host_tree[0].marked and host_tree[0].value == host_min:
            merged = (tree[0], tree[1] + host_tree[1])
            kind = "horizontal"
        else:
            merged = _replace_leaf(host_tree, host_min, tree)
            kind = "vertical"
        assert _marks_at_extremes(merged)
        step = MergeStep(host_min, kind, tree[0], host_tree[0])
        forest = [
            merged if idx == host else t
            for idx, t in enumerate(forest)
            if idx != best
        ]
        yield list(forest), step


def merge(f: MatchSet, with_trace: bool = False):
    """Merge a valid match set into its labelled plane tree.

    With ``with_trace=True`` returns ``(tree, steps)`` where each step
    records the consumed mark, the merge kind and the two participating
    roots.
    """
    report = validate_match_set(f)
    if not report.ok:
        raise InvalidMatchSetError("; ".join(i.message for i in report.issues))
    steps: list[MergeStep] = []
    forest: list[_Node] = []
    for forest, step in _merge_states(f):
        if step is not None:
            steps.append(step)
    assert len(forest) == 1 and not _has_mark(forest[0])
    result = _from_node(forest[0])
    if with_trace:
        return result, tuple(steps)
    return result


# --- decomposition ---------------------------------------------------------------

def _check_label_domain(t: LabelledPlaneTree) -> int:
    n = t.shape.edge_count
    expected = {(v, False) for v in range(1, n + 2)}
    if t.label_values() != frozenset(expected):
        raise BadLabelDomainError(
            f"labels must be exactly 1..{n + 1}, unmarked"
        )
    return n


def _proper_subtree_paths(node: _Node) -> Iterator[tuple[int, ...]]:
    stack: list[tuple[_Node, tuple[int, ...]]] = [(node, ())]
    while stack:
        current, path = stack.pop()
        for idx, child in enumerate(current[1]):
            child_path = path + (idx,)
            yield child_path
            stack.append((child, child_path))


def _node_at(node: _Node, path: tuple[int, ...]) -> _Node:
    for idx in path:
        node = node[1][idx]
    return node


def _replace_at(node: _Node, path: tuple[int, ...], replacement: _Node) -> _Node:
    if not path:
        return replacement
    label, children = node
    head = path[0]
    new_child = _replace_at(children[head], path[1:], replacement)
    return (label, children[:head] + (new_child,) + children[head + 1 :])


def _undo_candidates(forest: list[_Node], mark_value: int) -> Iterator[list[_Node]]:
    """All single-step undos that a forward merge at this mark would redo."""
    has_mark = [_has_mark(t) for t in forest]
    mark_label = Label(mark_value, True)
    for ri, tree in enumerate(forest):
        bound = min(
            (forest[j][0].value for j in range(len(forest)) if j != ri and not has_mark[j]),
            default=None,
        )
        root_label, kids = tree
        # Horizontal undo: cut the child list of an unmarked-rooted tree.
        # Both sides stay non-empty because every forest tree has >= 2
        # vertices at every stage of a merge.
        if not root_label.marked and len(kids) >= 2 and (
            bound is None or root_label.value < bound
        ):
            kid_marked = [_has_mark(c) for c in kids]
            prefix_clean = True
            for cut in range(1, len(kids)):
                prefix_clean = prefix_clean and not kid_marked[cut - 1]
                if not prefix_clean:
                    break
                head = (root_label, kids[:cut])
                tail = (mark_label, kids[cut:])
                yield forest[:ri] + [head, tail] + forest[ri + 1 :]
        # Vertical undo: excise a fully unmarked proper subtree with >= 2
        # vertices and leave the fresh marked leaf in its place.
        for path in _proper_subtree_paths(tree):
            sub = _node_at(tree, path)
            if not sub[1] or _has_mark(sub):
                continue
            if bound is not None and sub[0].value > bound:
                continue
            remainder = _replace_at(tree, path, (mark_label, ()))
            yield forest[:ri] + [sub, remainder] + forest[ri + 1 :]


def _preimage_forests(
    root_node: _Node, n: int, limit: Optional[int]
) -> list[list[_Node]]:
    solutions: list[list[_Node]] = []

    def search(forest: list[_Node], mark_value: int) -> bool:
        if mark_value == n + 1:
            solutions.append(forest)
            return limit is not None and len(solutions) >= limit
        for candidate in _undo_candidates(forest, mark_value):
            if search(candidate, mark_value - 1):
                return True
        return False

    search([root_node], 2 * n)
    return solutions


def _forest_to_match_set(forest: list[_Node]) -> MatchSet:
    matches = []
    for tree in forest:
        label, children = tree
        assert len(children) == 1 and not children[0][1]
        matches.append(Match(label, children[0][0]))
    return MatchSet.from_matches(matches)


def decompose(t: LabelledPlaneTree) -> MatchSet:
    """The unique match set that merges back into ``t``.

    ``t`` must carry the labels {1..n+1}, unmarked, with n >= 1.
    """
    n = _check_label_domain(t)
    if n == 0:
        raise TrivialTreeError("decomposition needs at least one edge")
    forests = _preimage_forests(_to_node(t), n, limit=1)
    if not forests:
        raise NoPreimageError(f"no preimage found for {t.word}")
    result = _forest_to_match_set(forests[0])
    assert merge(result) == t
    return result


def decompose_all(t: LabelledPlaneTree) -> tuple[MatchSet, ...]:
    """Run the backtracking search to exhaustion; the result has length one.

    Exposed so test suites can verify preimage uniqueness directly.
    """
    n = _check_label_domain(t)
    if n == 0:
        raise TrivialTreeError("decomposition needs at least one edge")
    forests = _preimage_forests(_to_node(t), n, limit=None)
    return tuple(_forest_to_match_set(f) for f in forests)
