"""The recursive shape involution and the four-class taxonomy behind it.

A tip-augmented plane tree with at least two edges falls into exactly one
of four classes, driven by the subtree hanging off the second child of the
root and by the singleton-parents among the root's children (a
singleton-parent is a child whose subtree has exactly one edge):

* A1: the second child is a leaf and no child is a singleton-parent;
* A2: the second child is the only singleton-parent;
* B1: the second child's subtree has two or more edges and no child is a
  singleton-parent;
* B2: some child in position three or later is a singleton-parent.

``phi`` fixes trees with at most two edges and otherwise recurses by class.
In classes A1/A2 the first two subtrees stay put and the recursion runs
over the remaining subtrees.  Class B1, where the first child ``w`` is an
elder non-twin leaf and the second child ``u`` roots a subtree ``A`` with
two or more edges, maps to class B2: the image of ``A`` is re-rooted at the
root, ``u`` is re-attached after it carrying a single fresh leaf ``v``, and
the trailing subtrees recurse in place.  Class B2 applies the exact inverse.
The map is an involution that exchanges the singleton and elder non-twin
counts while preserving elder twin, second and younger leaves.

``phi_with_correspondence`` transports labels along the same recursion: in
A2 the labels of ``w`` (first child) and ``v`` (the singleton under the
second child) swap; in B1 the deleted leaf ``w``'s label lands on the
created leaf ``v``, and conversely in B2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import NotTipAugmentedError, TooSmallError
from .leaf_stats import stats
from .trees import LabelledPlaneTree, PlaneTree, is_tip_augmented


class TreeClass(enum.Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2 = "B2"


@dataclass(frozen=True)
class ClassView:
    """A tree's class plus the anatomy the involution works with.

    Vertex fields are preorder identifiers.  ``u`` is the distinguished
    singleton-parent (second child in A2, second child in B1 where it roots
    the big subtree, rightmost singleton-parent in B2, absent in A1) and
    ``v`` is the singleton leaf under it (A2/B2 only).  ``left_block`` holds
    the root-child subtrees forming the re-rooted part (the second child in
    B1, the children left of ``u`` in B2); ``trailing`` holds the root-child
    subtrees the recursion maps in place.
    """

    tree_class: TreeClass
    root: int
    first_child: int
    second_child: int
    u: Optional[int]
    v: Optional[int]
    left_block: tuple[int, ...]
    trailing: tuple[int, ...]


def _class_at(t: PlaneTree, r: int, k: int) -> tuple[TreeClass, Optional[int]]:
    """Class of the tree made of ``r`` and its first ``k`` children, and the
    position of ``u`` among them."""
    kids = t.children_of(r)
    # Only the rightmost singleton-parent matters; the first child is a leaf.
    for last in range(k - 1, 0, -1):
        if t.subtree_edges(kids[last]) == 1:
            return (TreeClass.B2, last) if last >= 2 else (TreeClass.A2, 1)
    if t.is_leaf(kids[1]):
        return TreeClass.A1, None
    return TreeClass.B1, 1


def _require_tip_augmented(t: PlaneTree) -> None:
    if not is_tip_augmented(t):
        raise NotTipAugmentedError(f"not tip-augmented: {t.word}")


def classify(t: PlaneTree) -> ClassView:
    """Classify a tip-augmented tree with at least two edges."""
    _require_tip_augmented(t)
    if t.edge_count < 2:
        raise TooSmallError("classification needs at least two edges")
    kids = t.children_of(t.root)
    tree_class, u_pos = _class_at(t, t.root, len(kids))
    u = kids[u_pos] if u_pos is not None else None
    v = None
    if tree_class in (TreeClass.A2, TreeClass.B2):
        v = t.children_of(u)[0]
    if tree_class == TreeClass.B1:
        left_block: tuple[int, ...] = (kids[1],)
        trailing = kids[2:]
    elif tree_class == TreeClass.B2:
        left_block = kids[:u_pos]
        trailing = kids[u_pos + 1 :]
    else:
        left_block = ()
        trailing = kids[2:]
    return ClassView(
        tree_class=tree_class,
        root=t.root,
        first_child=kids[0],
        second_child=kids[1],
        u=u,
        v=v,
        left_block=left_block,
        trailing=trailing,
    )


# --- the involution -------------------------------------------------------------
#
# The image is written in preorder by a loop over an explicit stack of
# operations: (_OPEN, x, p) writes an image vertex whose source is vertex x
# of the input and which must land at sibling position p or later;
# (_CLOSE, 0, 0) ends the innermost open image vertex; and (_BODY, r, k)
# stands for the image's root children of the tree made of r and its first
# k children.  That image is always rooted at r itself, so the operation
# writes only the root's children.

_OPEN, _CLOSE, _BODY = range(3)


def _whole(t: PlaneTree, c: int) -> list[tuple[int, int, int]]:
    """The operations writing the image of the subtree rooted at ``c``."""
    if t.is_leaf(c):
        return [(_OPEN, c, 0), (_CLOSE, 0, 0)]
    return [(_OPEN, c, 0), (_BODY, c, len(t.children_of(c))), (_CLOSE, 0, 0)]


def _body(t: PlaneTree, r: int, k: int) -> list[tuple[int, int, int]]:
    """One recursion step of the involution as a list of operations."""
    kids = t.children_of(r)
    end = kids[k] if k < len(kids) else r + t.subtree_edges(r) + 1
    # A tree with at most two edges is fixed, and so is every subtree of it,
    # which is what A1 does with its first two subtrees.
    small = end - r - 1 <= 2
    tree_class, u_pos = (TreeClass.A1, None) if small else _class_at(t, r, k)
    if tree_class == TreeClass.A1:
        return [op for c in kids[:k] for op in _whole(t, c)]
    w = kids[0]
    u = kids[u_pos]
    if tree_class == TreeClass.B1:
        # A tip-augmented tree with >= 2 edges has >= 2 root children, so
        # the re-attached singleton-parent lands in position >= 3.
        head = [(_BODY, u, len(t.children_of(u))), (_OPEN, u, 2)]
        head += _whole(t, w) + [(_CLOSE, 0, 0)]
    else:
        # A2 swaps the leaves w and v; B2 undoes B1.
        v = t.children_of(u)[0]
        inner = _whole(t, w) if tree_class == TreeClass.A2 else [(_BODY, r, u_pos)]
        head = _whole(t, v) + [(_OPEN, u, 0)] + inner + [(_CLOSE, 0, 0)]
    return head + [op for c in kids[u_pos + 1 : k] for op in _whole(t, c)]


def _phi_image(t: PlaneTree) -> tuple[PlaneTree, list[int]]:
    """``phi(t)`` and, for each of its vertices in preorder, the source vertex."""
    word: list[str] = []
    sources: list[int] = []
    placed = [0]  # children written so far under each open image vertex
    stack = list(reversed(_whole(t, t.root)))
    while stack:
        op, x, p = stack.pop()
        if op == _OPEN:
            assert placed[-1] >= p
            placed[-1] += 1
            placed.append(0)
            word.append("(")
            sources.append(x)
        elif op == _CLOSE:
            placed.pop()
            word.append(")")
        else:
            stack.extend(reversed(_body(t, x, p)))
    # Each input vertex appears once in the image, and the root stays put.
    assert sources[0] == t.root and len(set(sources)) == len(sources) == t.vertex_count
    return PlaneTree("".join(word)), sources


def phi(t: PlaneTree) -> PlaneTree:
    """Apply the involution to a tip-augmented plane tree."""
    _require_tip_augmented(t)
    return _phi_image(t)[0]


def phi_with_correspondence(t: LabelledPlaneTree) -> LabelledPlaneTree:
    """Apply the involution while transporting every vertex's label."""
    _require_tip_augmented(t.shape)
    image, sources = _phi_image(t.shape)
    result = LabelledPlaneTree(image, tuple(t.labels[s] for s in sources))
    assert sorted(lab.value for lab in result.labels) == sorted(
        lab.value for lab in t.labels
    )
    return result


# --- the per-class counting identities ----------------------------------------

@dataclass(frozen=True)
class Prop1Report:
    """Direct vs class-recurrence counts of singleton / elder non-twin leaves."""

    tree_class: TreeClass
    i_direct: int
    k_direct: int
    i_recursive: int
    k_recursive: int

    @property
    def agrees(self) -> bool:
        return self.i_direct == self.i_recursive and self.k_direct == self.k_recursive


def _part_counts(part: PlaneTree) -> tuple[int, int]:
    if part.edge_count == 0:
        return (0, 0)
    vec = stats(part)
    return (vec.i, vec.k)


def check_prop1(t: PlaneTree) -> Prop1Report:
    """Recompute i and k from the class recurrence and compare with stats.

    A1 sums over the trailing subtrees; A2 adds one to both counts; B1 adds
    one elder non-twin (the first child); B2 adds one singleton (the leaf
    under the rightmost singleton-parent), summing over the re-rooted block
    and the trailing subtrees in both B cases.
    """
    view = classify(t)
    direct = stats(t)
    parts: list[PlaneTree] = []
    if view.tree_class == TreeClass.B2:
        block = "".join(t.subtree(c).word for c in view.left_block)
        parts.append(PlaneTree("(" + block + ")"))
    elif view.tree_class == TreeClass.B1:
        parts.append(t.subtree(view.second_child))
    parts.extend(t.subtree(c) for c in view.trailing)
    i_extra = {TreeClass.A1: 0, TreeClass.A2: 1, TreeClass.B1: 0, TreeClass.B2: 1}
    k_extra = {TreeClass.A1: 0, TreeClass.A2: 1, TreeClass.B1: 1, TreeClass.B2: 0}
    i_rec = i_extra[view.tree_class]
    k_rec = k_extra[view.tree_class]
    for part in parts:
        pi, pk = _part_counts(part)
        i_rec += pi
        k_rec += pk
    return Prop1Report(
        tree_class=view.tree_class,
        i_direct=direct.i,
        k_direct=direct.k,
        i_recursive=i_rec,
        k_recursive=k_rec,
    )
