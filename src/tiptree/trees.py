"""Plane trees and labelled plane trees with canonical text encodings.

A plane tree is a rooted tree whose children are linearly ordered.  The
canonical encoding of a shape is its balanced-parenthesis word: a vertex is
written as ``"("`` followed by the encodings of its children followed by
``")"``, so the single vertex is ``"()"`` and a root with two leaf children
is ``"(()())"``.

A labelled plane tree additionally carries one distinct label per vertex.
Its canonical encoding is label-prefixed with comma-separated children, for
example ``"1(2,3(4))"``.  A label is a positive integer, optionally marked;
marked labels render with a trailing asterisk (``"5*"``).

Vertex identifiers are assigned in depth-first preorder at construction
time (the root is always ``0``), which keeps correspondence reporting
deterministic across parse / serialize round trips.  A tree is stored as
preorder arrays (child lists, parents and subtree sizes) built by one
iterative pass over its word, so arbitrarily deep trees need no recursion.

A plane tree is *tip-augmented* when the leftmost child of every interior
vertex is a leaf; the single vertex counts as tip-augmented.  All values in
this module are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    DuplicateLabelError,
    EmptyInputError,
    IllegalCharacterError,
    LabelSyntaxError,
    UnbalancedParensError,
)


@dataclass(frozen=True)
class Label:
    """A vertex label: positive integer value plus a marked flag."""

    value: int
    marked: bool = False

    def __str__(self) -> str:
        return f"{self.value}*" if self.marked else str(self.value)

    def sort_key(self) -> tuple[int, bool]:
        return (self.value, self.marked)


class PlaneTree:
    """An immutable plane tree with preorder vertex identifiers."""

    __slots__ = ("_word", "_children", "_parents", "_sizes")

    def __init__(self, word: str):
        """Build the tree of a balanced-parenthesis word (no whitespace)."""
        if not isinstance(word, str):
            raise TypeError(f"a tree word must be a str, got {type(word).__name__}")
        if not word:
            raise EmptyInputError("no tree in input")
        bad = set(word) - {"(", ")"}
        if bad:
            raise IllegalCharacterError(f"unexpected character {sorted(bad)[0]!r}")
        children: list[list[int]] = []
        parents: list[Optional[int]] = []
        sizes: list[int] = []
        open_: list[int] = []
        roots = 0
        for ch in word:
            if ch == "(":
                v = len(parents)
                if open_:
                    parent = open_[-1]
                    children[parent].append(v)
                    parents.append(parent)
                else:
                    roots += 1
                    parents.append(None)
                children.append([])
                sizes.append(0)
                open_.append(v)
            else:
                if not open_:
                    raise UnbalancedParensError("unmatched ')'")
                v = open_.pop()
                sizes[v] = len(parents) - v
        if open_:
            raise UnbalancedParensError("unmatched '('")
        if roots != 1:
            raise UnbalancedParensError("input is not a single tree")
        self._word = word
        self._children = tuple(map(tuple, children))
        self._parents = tuple(parents)
        self._sizes = tuple(sizes)

    # --- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "PlaneTree":
        """Parse a balanced-parenthesis word (whitespace is insignificant)."""
        return cls("".join(text.split()))

    # --- basic views ---------------------------------------------------------

    @property
    def word(self) -> str:
        """The canonical parenthesis encoding."""
        return self._word

    @property
    def root(self) -> int:
        return 0

    @property
    def vertex_count(self) -> int:
        return len(self._parents)

    @property
    def edge_count(self) -> int:
        return len(self._parents) - 1

    def vertices(self) -> range:
        return range(len(self._parents))

    def children_of(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def parent_of(self, v: int) -> Optional[int]:
        return self._parents[v]

    def is_leaf(self, v: int) -> bool:
        return not self._children[v]

    def subtree(self, v: int) -> "PlaneTree":
        """The plane tree rooted at vertex ``v``."""
        # v's "(" comes after the "(" of the v earlier vertices and the ")"
        # of each of those that is not an ancestor of v.
        depth = 0
        u = self._parents[v]
        while u is not None:
            depth += 1
            u = self._parents[u]
        start = 2 * v - depth
        return PlaneTree(self._word[start : start + 2 * self._sizes[v]])

    def subtree_edges(self, v: int) -> int:
        """Edge count of the subtree rooted at ``v``."""
        return self._sizes[v] - 1

    def leaves(self) -> Iterator[int]:
        return (v for v in self.vertices() if not self._children[v])

    # --- value semantics ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlaneTree) and self._word == other._word

    def __hash__(self) -> int:
        return hash(self._word)

    def __repr__(self) -> str:
        return f"PlaneTree({self._word!r})"

    def __str__(self) -> str:
        return self._word


class LabelledPlaneTree:
    """A plane tree plus one distinct label per vertex (preorder indexed)."""

    __slots__ = ("shape", "labels")

    def __init__(self, shape: PlaneTree, labels: tuple[Label, ...]):
        if len(labels) != shape.vertex_count:
            raise ValueError(
                f"{len(labels)} labels for {shape.vertex_count} vertices"
            )
        seen = set()
        for lab in labels:
            key = (lab.value, lab.marked)
            if key in seen:
                raise DuplicateLabelError(f"label {lab} used twice")
            seen.add(key)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "labels", tuple(labels))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LabelledPlaneTree is immutable")

    # --- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "LabelledPlaneTree":
        """Parse the label-prefixed grammar, e.g. ``"1(2,3(4))"``."""
        word, labels = _parse_labelled(text)
        return cls(PlaneTree(word), labels)

    # --- views ---------------------------------------------------------------

    def label_of(self, v: int) -> Label:
        return self.labels[v]

    def label_values(self) -> frozenset[tuple[int, bool]]:
        return frozenset((lab.value, lab.marked) for lab in self.labels)

    @property
    def word(self) -> str:
        """The canonical labelled encoding."""
        # Walk the shape word: a "(" after "(" opens a child list, a "("
        # after ")" starts the next sibling, and a ")" after ")" closes a
        # child list; a ")" after "(" ends a leaf and writes nothing.
        out: list[str] = []
        labels = iter(self.labels)
        prev = ""
        for ch in self.shape.word:
            if ch == "(":
                if prev == "(":
                    out.append("(")
                elif prev == ")":
                    out.append(",")
                out.append(str(next(labels)))
            elif prev == ")":
                out.append(")")
            prev = ch
        return "".join(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LabelledPlaneTree)
            and self.shape == other.shape
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.labels))

    def __repr__(self) -> str:
        return f"LabelledPlaneTree({self.word!r})"

    def __str__(self) -> str:
        return self.word


# --- module-level operations -------------------------------------------------

def parse_tree(text: str) -> PlaneTree:
    """Parse a balanced-parenthesis word into a plane tree."""
    return PlaneTree.parse(text)


def serialize_tree(t: PlaneTree) -> str:
    """Canonical parenthesis encoding; inverse of :func:`parse_tree`."""
    return t.word


def parse_labelled(text: str) -> LabelledPlaneTree:
    """Parse the labelled grammar ``label["(" child ("," child)* ")"]``."""
    return LabelledPlaneTree.parse(text)


def serialize_labelled(t: LabelledPlaneTree) -> str:
    """Canonical labelled encoding; inverse of :func:`parse_labelled`."""
    return t.word


def is_tip_augmented(t: PlaneTree) -> bool:
    """True iff every interior vertex's first child is a leaf.

    Vacuously true for the single-vertex tree.  The property is hereditary:
    every subtree of a tip-augmented tree is itself tip-augmented.
    """
    for v in t.vertices():
        kids = t.children_of(v)
        if kids and t.children_of(kids[0]):
            return False
    return True


# --- internal helpers ----------------------------------------------------------

def _parse_labelled(text: str) -> tuple[str, tuple[Label, ...]]:
    """The shape word and the preorder labels of a labelled-tree text."""
    s = "".join(text.split())
    if not s:
        raise EmptyInputError("no tree in input")
    pos = 0
    depth = 0  # child lists opened and not yet closed
    word: list[str] = []
    labels: list[Label] = []
    while True:
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise LabelSyntaxError(f"expected a label at position {start}")
        value = int(s[start:pos])
        if value < 1:
            raise LabelSyntaxError(f"label must be positive, got {value}")
        marked = False
        if pos < len(s) and s[pos] == "*":
            marked = True
            pos += 1
        labels.append(Label(value, marked))
        word.append("(")
        if pos < len(s) and s[pos] == "(":
            pos += 1
            depth += 1
            continue
        # The vertex is a leaf: close it and every child list it ends.
        word.append(")")
        while depth and not (pos < len(s) and s[pos] == ","):
            if pos >= len(s) or s[pos] != ")":
                raise LabelSyntaxError(f"expected ')' at position {pos}")
            pos += 1
            depth -= 1
            word.append(")")
        if not depth:
            break
        pos += 1  # the comma before the next sibling
    if pos != len(s):
        raise LabelSyntaxError(f"trailing input at position {pos}")
    return "".join(word), tuple(labels)
