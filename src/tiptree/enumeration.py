"""Exhaustive generators and distribution tables.

Plane trees with n edges are counted by the Catalan numbers; the subfamily
in which the leftmost child of every interior vertex is a leaf
(tip-augmented plane trees) is counted by the Motzkin numbers, with
``motzkin(n - 1)`` trees at n >= 1 edges.

All generators yield each object exactly once, ordered by the ascending
lexicographic order of the canonical encoding with ``"(" < ")"``, so golden
tests and pagination are stable.  Counts use Python integers throughout and
never overflow.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .leaf_stats import StatsVector, stats
from .trees import Label, LabelledPlaneTree, PlaneTree, is_tip_augmented


def motzkin(k: int) -> int:
    """The k-th Motzkin number via m_0 = 1, m_{t+1} = m_t + sum m_j m_{t-1-j}."""
    if k < 0:
        raise ValueError("k must be non-negative")
    m = [1]
    for t in range(k):
        m.append(m[t] + sum(m[j] * m[t - 1 - j] for j in range(t)))
    return m[k]


@lru_cache(maxsize=None)
def _dyck_words(edges: int) -> tuple[str, ...]:
    # Balanced words of length 2*edges, via the unique first-block split.
    if edges == 0:
        return ("",)
    words = [
        "(" + head + ")" + rest
        for inner in range(edges)
        for head in _dyck_words(inner)
        for rest in _dyck_words(edges - 1 - inner)
    ]
    return tuple(sorted(words))


@lru_cache(maxsize=None)
def _tip_words(edges: int) -> tuple[str, ...]:
    # Root with a forced leaf first child, then any tip-augmented forest.
    if edges == 0:
        return ("()",)
    words = ["(()" + forest + ")" for forest in _tip_forests(edges - 1)]
    return tuple(sorted(words))


@lru_cache(maxsize=None)
def _tip_forests(budget: int) -> tuple[str, ...]:
    # Concatenations of tip-augmented words; each child costs 1 + its edges.
    if budget == 0:
        return ("",)
    return tuple(
        word + rest
        for child_edges in range(budget)
        for word in _tip_words(child_edges)
        for rest in _tip_forests(budget - 1 - child_edges)
    )


def gen_plane_trees(n: int) -> Iterator[PlaneTree]:
    """Every plane tree with n edges, in lexicographic order."""
    if n < 0:
        raise ValueError("edge count must be non-negative")
    for word in _dyck_words(n):
        yield PlaneTree.parse("(" + word + ")")


def gen_tip_augmented(n: int, *, via_filter: bool = False) -> Iterator[PlaneTree]:
    """Every tip-augmented plane tree with n edges, in lexicographic order.

    ``via_filter=True`` filters :func:`gen_plane_trees` instead of building
    shapes directly; the two routes must agree and the slow one is kept as a
    cross-check oracle.
    """
    if n < 0:
        raise ValueError("edge count must be non-negative")
    if via_filter:
        yield from (t for t in gen_plane_trees(n) if is_tip_augmented(t))
        return
    for word in _tip_words(n):
        yield PlaneTree.parse(word)


def gen_labelled_tip_augmented(n: int) -> Iterator[LabelledPlaneTree]:
    """Every labelling of every n-edge tip-augmented shape by {1..n+1}.

    Shape-major; for each shape the labelings run in lexicographic
    permutation order, assigned to vertices in preorder.  Total count is
    ``motzkin(n - 1) * (n + 1)!``.
    """
    yield from _labellings(gen_tip_augmented, n)


def gen_labelled_plane_trees(n: int) -> Iterator[LabelledPlaneTree]:
    """Every labelling of every n-edge plane tree by {1..n+1}."""
    yield from _labellings(gen_plane_trees, n)


def _labellings(
    shapes: Callable[[int], Iterator[PlaneTree]], n: int
) -> Iterator[LabelledPlaneTree]:
    if n < 1:
        raise ValueError("labelled enumeration needs at least one edge")
    for shape in shapes(n):
        for perm in itertools.permutations(range(1, n + 2)):
            yield LabelledPlaneTree(shape, tuple(Label(v) for v in perm))


@dataclass(frozen=True)
class DistributionTable:
    """Counts of the statistics vector over all tip-augmented n-edge trees."""

    n: int
    rows: tuple[tuple[StatsVector, int], ...]

    def count(self, vector: StatsVector) -> int:
        for vec, cnt in self.rows:
            if vec == vector:
                return cnt
        return 0

    def as_dict(self) -> dict[tuple[int, int, int, int, int], int]:
        return {vec.as_tuple(): cnt for vec, cnt in self.rows}

    @property
    def total(self) -> int:
        return sum(cnt for _, cnt in self.rows)


class SymmetryViolation(NamedTuple):
    vector: StatsVector
    count: int
    mirror_count: int


@dataclass(frozen=True)
class SymmetryReport:
    n: int
    violations: tuple[SymmetryViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def distribution_table(n: int) -> DistributionTable:
    """Tabulate the statistics vector over all tip-augmented n-edge trees."""
    if n < 2:
        raise ValueError("distribution tables start at two edges")
    counts: dict[StatsVector, int] = {}
    for t in gen_tip_augmented(n):
        vec = stats(t)
        counts[vec] = counts.get(vec, 0) + 1
    rows = tuple(sorted(counts.items(), key=lambda item: item[0].as_tuple()))
    return DistributionTable(n, rows)


def check_symmetry(table: DistributionTable) -> SymmetryReport:
    """List every vector whose count differs from its (i <-> k) mirror."""
    counts = {vec: cnt for vec, cnt in table.rows}
    violations = []
    for vec, cnt in table.rows:
        mirror = counts.get(vec.swapped(), 0)
        if cnt != mirror:
            violations.append(SymmetryViolation(vec, cnt, mirror))
    return SymmetryReport(table.n, tuple(violations))


def table_to_csv(table: DistributionTable) -> str:
    """CSV export with header ``n,i,j,k,r,s,count``."""
    lines = ["n,i,j,k,r,s,count"]
    for vec, cnt in table.rows:
        lines.append(f"{table.n},{vec.i},{vec.j},{vec.k},{vec.r},{vec.s},{cnt}")
    return "\n".join(lines) + "\n"


def table_to_json_lines(table: DistributionTable) -> str:
    """JSON-lines export, one object per row."""
    lines = []
    for vec, cnt in table.rows:
        lines.append(
            json.dumps(
                {
                    "n": table.n,
                    "i": vec.i,
                    "j": vec.j,
                    "k": vec.k,
                    "r": vec.r,
                    "s": vec.s,
                    "count": cnt,
                }
            )
        )
    return "\n".join(lines) + "\n"
