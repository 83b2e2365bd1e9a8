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

Marks are consumed in ascending order, so step s uses mark n+1+s, and a
marked root only ever holds its own match leaf.  Every step is therefore
forced by the merged tree: the tree with the smallest fully unmarked root r
either gives r its next child (horizontal) or, once r holds all of its
children, hangs r's finished subtree in its slot (vertical), after which r
never gains a child again.  ``decompose`` replays the merge this way in one
heap-driven pass, with no search and no recursion, and reads the matches
off the replay; the preimage is re-merged and compared against the input
before it is returned.  ``decompose_all`` is the brute-force reference that
merges every match set over the label universe.

Match types are read off the marked flags: type i has both vertices
unmarked, type ii a marked root, type iii a marked leaf, type iv both
marked.  In a decomposition, type i matches correspond to old leaves,
type ii to young leaves, type iii to old interior vertices and type iv
roots to young interior vertices of the merged tree (root excluded).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple, Optional

from .errors import (
    BadLabelDomainError,
    InvalidMatchSetError,
    LabelSyntaxError,
    NoPreimageError,
    TrivialTreeError,
)
from .trees import Label, LabelledPlaneTree, PlaneTree


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


def merge(f: MatchSet, with_trace: bool = False):
    """Merge a valid match set into its labelled plane tree.

    With ``with_trace=True`` returns ``(tree, steps)`` where each step
    records the consumed mark, the merge kind and the two participating
    roots.
    """
    report = validate_match_set(f)
    if not report.ok:
        raise InvalidMatchSetError("; ".join(i.message for i in report.issues))
    # A valid set uses each value 1..2n exactly once, so the forest is
    # indexed by label value: labels, child lists, parents, each vertex's
    # position in its parent's list, and each tree's mark count, kept at its
    # root.  Hung trees carry no marks, so a marked vertex is a root or a
    # child of its tree's root.
    n = f.n
    size = 2 * n + 1
    label: list[Label] = [Label(0)] * size
    children: list[list[int]] = [[] for _ in range(size)]
    parent: list[Optional[int]] = [None] * size
    position = [0] * size
    marks = [0] * size
    for m in f.matches:
        label[m.root.value], label[m.leaf.value] = m.root, m.leaf
        children[m.root.value].append(m.leaf.value)
        parent[m.leaf.value] = m.root.value
        marks[m.root.value] = m.root.marked + m.leaf.marked
    free = [v for v in range(1, n + 2) if parent[v] is None and not marks[v]]
    heapq.heapify(free)  # roots of the fully unmarked trees
    steps: list[MergeStep] = []
    for mark in range(n + 2, 2 * n + 1):
        assert free, "pigeonhole: a fully unmarked tree always exists"
        r = heapq.heappop(free)
        if parent[mark] is None:
            # A marked root holds only its match leaf, which moves to r.
            assert not label[r].marked, "the vertex gaining a child is unmarked"
            (child,) = children[mark]
            position[child] = len(children[r])
            children[r].append(child)
            parent[child] = host = r
            marks[r] = marks[mark] - 1
            steps.append(MergeStep(mark, "horizontal", label[r], label[mark]))
        else:
            host = parent[mark]
            assert not children[mark], "the replaced leaf has no children"
            assert parent[host] is None, "a marked leaf hangs from its tree's root"
            children[host][position[mark]] = r
            parent[r], position[r] = host, position[mark]
            marks[host] -= 1
            steps.append(MergeStep(mark, "vertical", label[r], label[host]))
        if not marks[host]:
            heapq.heappush(free, host)
    assert len(free) == 1
    word: list[str] = []
    labels: list[Label] = []
    stack = [free[0]]
    while stack:
        v = stack.pop()
        if v == 0:  # every child of the last opened vertex has been written
            word.append(")")
            continue
        word.append("(")
        labels.append(label[v])
        stack.append(0)
        stack.extend(reversed(children[v]))
    result = LabelledPlaneTree(PlaneTree("".join(word)), tuple(labels))
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


def decompose(t: LabelledPlaneTree) -> MatchSet:
    """The unique match set that merges back into ``t``.

    ``t`` must carry the labels {1..n+1}, unmarked, with n >= 1.  The merge
    is replayed on ``t``'s vertices: each interior vertex starts out holding
    its first child and is ready once every interior child it holds has had
    its subtree placed.  Mark m goes to the smallest ready vertex r: r takes
    its next child if it has one (the child's *upper* mark), and otherwise
    r's subtree is placed in its slot (r's *lower* mark).
    """
    n = _check_label_domain(t)
    if n == 0:
        raise TrivialTreeError("decomposition needs at least one edge")
    shape = t.shape
    kids = [shape.children_of(v) for v in shape.vertices()]
    value = [lab.value for lab in t.labels]
    held = [1] * len(kids)  # how many children each vertex holds
    waiting = [1 if k and kids[k[0]] else 0 for k in kids]  # held, not placed
    upper = [0] * len(kids)
    lower = [0] * len(kids)
    ready = [(value[v], v) for v, k in enumerate(kids) if k and not waiting[v]]
    heapq.heapify(ready)
    for mark in range(n + 2, 2 * n + 1):
        if not ready:
            raise NoPreimageError(f"no preimage found for {t.word}")
        _, r = heapq.heappop(ready)
        if held[r] < len(kids[r]):  # horizontal
            y = kids[r][held[r]]
            held[r] += 1
            upper[y] = mark
            if kids[y] and not lower[y]:
                waiting[r] += 1
            else:
                heapq.heappush(ready, (value[r], r))
        else:  # vertical
            lower[r] = mark
            p = shape.parent_of(r)
            if r == kids[p][0] or upper[r]:  # p already holds r
                waiting[p] -= 1
                if not waiting[p]:
                    heapq.heappush(ready, (value[p], p))
    matches = []
    for c in range(1, len(kids)):
        p = shape.parent_of(c)
        root = t.labels[p] if c == kids[p][0] else Label(upper[c], True)
        leaf = Label(lower[c], True) if kids[c] else t.labels[c]
        matches.append(Match(root, leaf))
    result = MatchSet.from_matches(matches)
    assert merge(result) == t
    return result


def decompose_all(t: LabelledPlaneTree) -> tuple[MatchSet, ...]:
    """Every match set over {1..n+1, (n+2)*..(2n)*} whose merge is ``t``.

    The brute-force reference for :func:`decompose`, with which it shares
    no code.  It merges all (2n)!/n! match sets (120 at n=3, 1,680 at n=4),
    so every caller keeps to n <= 3.  The result has length one.
    """
    n = _check_label_domain(t)
    if n == 0:
        raise TrivialTreeError("decomposition needs at least one edge")
    universe = [Label(v) for v in range(1, n + 2)]
    universe += [Label(v, True) for v in range(n + 2, 2 * n + 1)]
    found = []
    for roots in combinations(universe, n):
        rest = [lab for lab in universe if lab not in roots]
        for leaves in permutations(rest):
            f = MatchSet.from_matches(map(Match, roots, leaves))
            if merge(f) == t:
                found.append(f)
    return tuple(found)
