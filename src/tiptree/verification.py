"""Self-contained invariant suites behind ``tiptree verify``.

Each check runs an exhaustive small-instance sweep and reports one result.
The heavy labelled sweeps are capped (match round trips at four edges,
the labelled involution at five) so a full run stays in the desk-scale
range regardless of the requested shape bound.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Callable, NamedTuple

from .chen import decompose, decompose_all, merge
from .enumeration import (
    check_symmetry,
    distribution_table,
    gen_labelled_plane_trees,
    gen_labelled_tip_augmented,
    gen_plane_trees,
    gen_tip_augmented,
    motzkin,
)
from .leaf_stats import interior_census, stats
from .phi import TreeClass, check_prop1, classify, phi, phi_with_correspondence
from .psi import flip_type_iv, match_census, psi
from .trees import Label, LabelledPlaneTree, is_tip_augmented


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def check_motzkin_counts(max_edges: int) -> CheckResult:
    checked = 0
    for n in range(0, max_edges + 1):
        expected = 1 if n == 0 else motzkin(n - 1)
        got = sum(1 for _ in gen_tip_augmented(n))
        if got != expected:
            return CheckResult(
                "motzkin-counts", False, f"n={n}: {got} trees, expected {expected}"
            )
        checked += got
    return CheckResult(
        "motzkin-counts", True, f"n<=({max_edges}) totals match, {checked} trees"
    )


def check_plane_counts(max_edges: int) -> CheckResult:
    cap = min(max_edges, 8)
    for n in range(0, cap + 1):
        words = [t.word for t in gen_plane_trees(n)]
        if len(words) != _catalan(n):
            return CheckResult(
                "catalan-counts", False, f"n={n}: {len(words)} != C_{n}"
            )
        if words != sorted(words) or len(set(words)) != len(words):
            return CheckResult("catalan-counts", False, f"n={n}: ordering broken")
    return CheckResult("catalan-counts", True, f"n<=({cap}) match binomial formula")


def check_generator_agreement(max_edges: int) -> CheckResult:
    cap = min(max_edges, 7)
    for n in range(0, cap + 1):
        direct = [t.word for t in gen_tip_augmented(n)]
        filtered = [t.word for t in gen_tip_augmented(n, via_filter=True)]
        if direct != filtered:
            return CheckResult("generator-agreement", False, f"n={n}: routes differ")
    return CheckResult("generator-agreement", True, f"direct = filtered for n<=({cap})")


def check_phi_suite(max_edges: int) -> CheckResult:
    for n in range(2, max_edges + 1):
        for t in gen_tip_augmented(n):
            labelled = LabelledPlaneTree(
                t, tuple(Label(v + 1) for v in t.vertices())
            )
            transported = phi_with_correspondence(labelled)
            image = transported.shape
            if phi(image) != t:
                return CheckResult("phi-involution", False, f"not involutive on {t.word}")
            if image.edge_count != t.edge_count:
                return CheckResult("phi-involution", False, f"edge count changed on {t.word}")
            if stats(image) != stats(t).swapped():
                return CheckResult(
                    "phi-involution", False, f"statistics not swapped on {t.word}"
                )
            before, after = classify(t).tree_class, classify(image).tree_class
            swap = {TreeClass.B1: TreeClass.B2, TreeClass.B2: TreeClass.B1}
            if after != swap.get(before, before):
                return CheckResult(
                    "phi-involution", False, f"class moved {before} -> {after} on {t.word}"
                )
            if not check_prop1(t).agrees:
                return CheckResult(
                    "phi-involution", False, f"class recurrence disagrees on {t.word}"
                )
            if phi_with_correspondence(transported) != labelled:
                return CheckResult(
                    "phi-involution", False, f"label transport not involutive on {t.word}"
                )
    return CheckResult("phi-involution", True, f"involution + swap + classes, n<=({max_edges})")


def check_distribution_symmetry(max_edges: int) -> CheckResult:
    for n in range(2, max_edges + 1):
        table = distribution_table(n)
        if table.total != motzkin(n - 1):
            return CheckResult("table-symmetry", False, f"n={n}: bad total")
        report = check_symmetry(table)
        if not report.ok:
            return CheckResult(
                "table-symmetry", False, f"n={n}: {len(report.violations)} violations"
            )
    return CheckResult("table-symmetry", True, f"tables symmetric for n<=({max_edges})")


def check_chen_round_trip(max_edges: int) -> CheckResult:
    cap = min(max_edges, 4)
    trees = 0
    for n in range(1, cap + 1):
        for t in gen_labelled_plane_trees(n):
            f = decompose(t)
            if merge(f) != t:
                return CheckResult("chen-round-trip", False, f"merge(decompose) != id on {t.word}")
            if decompose(merge(f)) != f:
                return CheckResult("chen-round-trip", False, f"decompose(merge) != id on {f}")
            trees += 1
    return CheckResult("chen-round-trip", True, f"{trees} labelled trees, n<=({cap})")


def check_preimage_uniqueness(max_edges: int) -> CheckResult:
    cap = min(max_edges, 3)
    for n in range(1, cap + 1):
        for t in gen_labelled_plane_trees(n):
            if len(decompose_all(t)) != 1:
                return CheckResult("preimage-uniqueness", False, f"multiple preimages for {t.word}")
    return CheckResult("preimage-uniqueness", True, f"exhaustive search, n<=({cap})")


def check_census_identity(max_edges: int) -> CheckResult:
    cap = min(max_edges, 4)
    for n in range(1, cap + 1):
        for t in gen_labelled_plane_trees(n):
            census = match_census(t)
            vec = stats(t.shape)
            interior = interior_census(t.shape)
            expected = (vec.old, vec.young, interior.old_interior, interior.young_interior)
            if tuple(census) != expected:
                return CheckResult(
                    "census-identity", False, f"{t.word}: {tuple(census)} != {expected}"
                )
    return CheckResult("census-identity", True, f"match types = leaf/interior census, n<=({cap})")


def check_psi_suite(max_edges: int) -> CheckResult:
    cap = min(max_edges, 5)
    trees = 0
    for n in range(1, cap + 1):
        expected_total = motzkin(n - 1) * factorial(n + 1)
        total = 0
        for t in gen_labelled_tip_augmented(n):
            total += 1
            census = match_census(t)
            if census.type_iii != 0:
                return CheckResult("psi-suite", False, f"type iii match for {t.word}")
            image = psi(t)
            if not is_tip_augmented(image.shape):
                return CheckResult("psi-suite", False, f"psi left the family on {t.word}")
            if image.label_values() != t.label_values():
                return CheckResult("psi-suite", False, f"labels changed on {t.word}")
            # the swap statement starts at n=2; the one-edge tree's lone
            # leaf is a singleton fixed by the involution
            if n >= 2 and stats(image.shape) != stats(t.shape).swapped():
                return CheckResult("psi-suite", False, f"statistics not swapped on {t.word}")
            if psi(image) != t:
                return CheckResult("psi-suite", False, f"not involutive on {t.word}")
            if n <= 4 and decompose(image) != flip_type_iv(decompose(t)):
                return CheckResult("psi-suite", False, f"flip instability on {t.word}")
        if total != expected_total:
            return CheckResult("psi-suite", False, f"n={n}: {total} trees, expected {expected_total}")
        trees += total
    return CheckResult("psi-suite", True, f"{trees} labelled trees, n<=({cap})")


ALL_CHECKS: tuple[Callable[[int], CheckResult], ...] = (
    check_motzkin_counts,
    check_plane_counts,
    check_generator_agreement,
    check_phi_suite,
    check_distribution_symmetry,
    check_chen_round_trip,
    check_preimage_uniqueness,
    check_census_identity,
    check_psi_suite,
)


def run_all(max_edges: int) -> list[CheckResult]:
    return [check(max_edges) for check in ALL_CHECKS]
