"""The five leaf categories and the statistics vector.

Every non-root leaf falls into exactly one category:

* singleton: a leaf without any siblings;
* elder twin: a leftmost-child leaf whose next sibling is also a leaf;
* elder non-twin: a leftmost-child leaf whose next sibling is interior;
* second: a leaf that is the second child of its parent;
* younger: a leaf in sibling position three or later.

Singleton, elder twin and elder non-twin leaves together are the *old*
leaves (leftmost children); second and younger leaves are the *young*
leaves.  The same old/young split applies to non-root interior vertices,
which is what the match decomposition machinery counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import IsRootError, NotALeafError, TrivialTreeError
from .trees import PlaneTree


class LeafCategory(enum.Enum):
    SINGLETON = "singleton"
    ELDER_TWIN = "elder_twin"
    ELDER_NON_TWIN = "elder_non_twin"
    SECOND = "second"
    YOUNGER = "younger"


@dataclass(frozen=True)
class StatsVector:
    """Counts (i, j, k, r, s) of the five leaf categories.

    ``i`` singletons, ``j`` elder twins, ``k`` elder non-twins, ``r``
    younger leaves, ``s`` second leaves.
    """

    i: int
    j: int
    k: int
    r: int
    s: int

    @property
    def old(self) -> int:
        return self.i + self.j + self.k

    @property
    def young(self) -> int:
        return self.r + self.s

    @property
    def leaf_total(self) -> int:
        return self.old + self.young

    def swapped(self) -> "StatsVector":
        """The vector with singleton and elder non-twin counts exchanged."""
        return StatsVector(self.k, self.j, self.i, self.r, self.s)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.i, self.j, self.k, self.r, self.s)

    def __str__(self) -> str:
        return f"({self.i},{self.j},{self.k},{self.r},{self.s})"


class InteriorCensus(NamedTuple):
    old_interior: int
    young_interior: int


def leaf_category(t: PlaneTree, v: int) -> LeafCategory:
    """Category of the non-root leaf ``v`` of ``t``."""
    parent = t.parent_of(v)
    if parent is None:
        raise IsRootError("the root carries no leaf category")
    if not t.is_leaf(v):
        raise NotALeafError(f"vertex {v} is interior")
    siblings = t.children_of(parent)
    if len(siblings) == 1:
        return LeafCategory.SINGLETON
    if siblings[0] == v:
        if t.is_leaf(siblings[1]):
            return LeafCategory.ELDER_TWIN
        return LeafCategory.ELDER_NON_TWIN
    if siblings[1] == v:
        return LeafCategory.SECOND
    return LeafCategory.YOUNGER


def stats(t: PlaneTree) -> StatsVector:
    """Coordinate-wise category counts over all leaves of ``t``.

    Needs at least one edge; with one or more edges the root is interior,
    so every leaf is classified.
    """
    if t.edge_count == 0:
        raise TrivialTreeError("statistics need at least one edge")
    counts = {cat: 0 for cat in LeafCategory}
    for v in t.leaves():
        counts[leaf_category(t, v)] += 1
    return StatsVector(
        i=counts[LeafCategory.SINGLETON],
        j=counts[LeafCategory.ELDER_TWIN],
        k=counts[LeafCategory.ELDER_NON_TWIN],
        r=counts[LeafCategory.YOUNGER],
        s=counts[LeafCategory.SECOND],
    )


def interior_census(t: PlaneTree) -> InteriorCensus:
    """Old/young counts over non-root interior vertices.

    Old interior vertices are leftmost children of their parent; the root is
    excluded from both counts.
    """
    if t.edge_count == 0:
        raise TrivialTreeError("census needs at least one edge")
    old = young = 0
    for v in t.vertices():
        parent = t.parent_of(v)
        if parent is None or t.is_leaf(v):
            continue
        if t.children_of(parent)[0] == v:
            old += 1
        else:
            young += 1
    return InteriorCensus(old, young)
