"""Seeded benchmark inputs: uniform tip-augmented shapes, labellings, match sets.

Shapes are drawn uniformly from the grammar "a vertex with n >= 1 edges is a
leaf first child followed by a tip-augmented forest with n - 1 edges", where
each tree in a forest costs one edge for its attachment plus its own edges.
Counts and draws are iterative, so shapes of any size are built without
recursion.  Everything here is plain Python and independent of tiptree, so the
benchmark can check tiptree's answers against it.
"""

from __future__ import annotations

import random

_TREE, _FOREST, _CLOSE = 0, 1, 2


class ShapeSampler:
    """Uniform sampler of tip-augmented plane trees with up to ``max_edges`` edges."""

    def __init__(self, max_edges: int):
        # trees[n]: tip-augmented trees with n edges (motzkin(n - 1) for n >= 1);
        # forests[b]: tip-augmented forests with b edges, attachment edges included.
        trees = [1]
        forests = [1]
        for b in range(1, max_edges + 1):
            trees.append(forests[b - 1])
            forests.append(sum(trees[c] * forests[b - 1 - c] for c in range(b)))
        self.max_edges = max_edges
        self._trees = trees
        self._forests = forests

    def count(self, n: int) -> int:
        """Number of tip-augmented plane trees with ``n`` edges."""
        return self._trees[n]

    def _first_tree_edges(self, budget: int, rng: random.Random) -> int:
        # A forest whose first tree has c edges leaves budget - 1 - c for the rest.
        r = rng.randrange(self._forests[budget])
        for c in range(budget):
            weight = self._trees[c] * self._forests[budget - 1 - c]
            if r < weight:
                return c
            r -= weight
        raise AssertionError("forest weights do not sum to the forest count")

    def sample(self, n: int, rng: random.Random) -> str:
        """A uniformly random tip-augmented shape with ``n`` edges, as a word."""
        if not 0 <= n <= self.max_edges:
            raise ValueError(f"edge count {n} outside 0..{self.max_edges}")
        out: list[str] = []
        stack = [(_TREE, n)]
        while stack:
            kind, size = stack.pop()
            if kind == _CLOSE:
                out.append(")")
            elif kind == _TREE:
                out.append("(")
                stack.append((_CLOSE, 0))
                if size:
                    out.append("()")
                    stack.append((_FOREST, size - 1))
            elif size:
                first = self._first_tree_edges(size, rng)
                stack.append((_FOREST, size - 1 - first))
                stack.append((_TREE, first))
        return "".join(out)


def labelled_word(shape_word: str, labels: list[int]) -> str:
    """Write ``shape_word`` in the labelled grammar, labels assigned in preorder."""
    out: list[str] = []
    prev = ""
    idx = 0
    for ch in shape_word:
        if ch == "(":
            if prev == "(":
                out.append("(")
            elif prev == ")":
                out.append(",")
            out.append(str(labels[idx]))
            idx += 1
        elif prev == ")":
            out.append(")")
        prev = ch
    return "".join(out)


def random_labelling(shape_word: str, rng: random.Random) -> str:
    """``shape_word`` labelled by a uniformly random permutation of 1..n+1."""
    labels = list(range(1, len(shape_word) // 2 + 1))
    rng.shuffle(labels)
    return labelled_word(shape_word, labels)


def random_match_set(n: int, rng: random.Random) -> str:
    """A uniformly random set of n matches over {1..n+1, (n+2)*..(2n)*}.

    Shuffling the 2n labels and pairing them off as (root, leaf) gives every
    one of the (2n)!/n! match sets with equal probability, and every such set
    is valid: the labelled plane trees on {1..n+1} number (2n)!/n! as well.
    """
    labels = [str(v) for v in range(1, n + 2)] + [f"{v}*" for v in range(n + 2, 2 * n + 1)]
    rng.shuffle(labels)
    return ",".join(f"{labels[2 * i]}:{labels[2 * i + 1]}" for i in range(n))
