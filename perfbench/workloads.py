"""The four workloads: what one round runs, and how its outputs are checked.

A round is a fixed amount of work.  ``inputs`` builds the round's items from a
seeded ``random.Random`` and ``follow_up`` may add items made from their
outputs; ``run`` does one item and is what the benchmark times; ``check``
looks at an item's output outside the timed region and returns a message when
the output is wrong.  Items of a CLI workload each start from a fresh import
of tiptree, as a command-line call would.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from types import SimpleNamespace

from sampler import ShapeSampler, random_labelling, random_match_set

# sha256 of ``tiptree table --edges n --format csv --check-symmetry`` output,
# recorded from the commit that defined the benchmark.
TABLE_CSV_SHA256 = {
    2: "d778807f60b017044b2195a0ae7f2756788c34701977b5cccc8ef91a11e425fc",
    3: "f674315d664b9ac511d1933e4f58f9c92dec056364964b1749c786048cd51044",
    4: "9278c4ef60dc46e06b750c989b5178edc59c4550c35601153fa49a26b7a891cd",
    5: "1666cea5145b93247d204228684f0670d8aca61eaa259ea7e6d552a934d456f7",
    6: "2de5bf7da4fd5ee3afdba61282b62e0d32439d60219a379a2b77d88c52d051ee",
    7: "74eadc09cd34b69298af63c291a8ecda2790972b96ef9f607cf1527ac340af37",
    8: "d51d717d4de483f39996cde9433ca0e903b87490ee4d3cdbb660025f12ee529b",
    9: "71b344a4c76dbe088a2de5e14aed6ea7afb236d1de198ca30860994d03e43afc",
    10: "813604a52ac3dc4d6c35374eca7673ba91341f98de6c81890e9a999576eb4255",
    11: "4486f31ca2662d5521e79646c938508cc7efcce72066f5f73039e858156770de",
    12: "ebfdbfb5fdfb530eaacba25cb226f1c5f869064c3268d59c8e822d1564beae63",
    13: "da69177afb2e7f486484ec5bed67a5fb759220a5149e573f5e6e79ddd166ca0b",
    14: "5bec2c91b66a4b4074550c4b9677a5be0b3190f391bfd3c519eb4612b90f2e24",
}

PSI_EDGES = range(10, 15)
PSI_PER_EDGE_COUNT = 20
BIG_SHAPES = 80
BIG_MERGES = 40
BIG_MIN_EDGES = 200
BIG_MAX_EDGES = 400
_CLASS_SWAP = {"B1": "B2", "B2": "B1"}


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``tiptree.cli.run_cli(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _size_grid(count: int) -> list[int]:
    # Sizes spread evenly over the range, so every round has the same size mix.
    span = BIG_MAX_EDGES - BIG_MIN_EDGES
    return [BIG_MIN_EDGES + span * k // (count - 1) for k in range(count)]


class Workload:
    """A round's items, how to run one, and how to check its output."""

    name = ""
    fresh_per_item = False

    def __init__(self, sampler: ShapeSampler):
        self.sampler = sampler

    def inputs(self, api, rng: random.Random) -> list:
        raise NotImplementedError

    def order(self, count: int) -> list[int]:
        """The order in which a round runs the items; an index may repeat."""
        return list(range(count))

    def follow_up(self, items: list, outputs: list) -> list:
        """Items built from the outputs of ``items``, run in the same round."""
        return []

    def run(self, api, item):
        raise NotImplementedError

    def check(self, api, item, output) -> str | None:
        raise NotImplementedError


class CliWorkload(Workload):
    """Items are argument lists for ``tiptree.cli.run_cli``."""

    fresh_per_item = True

    def run(self, api, argv):
        return run_cli(api.cli, argv)


class Table(CliWorkload):
    """``table --edges n --format csv --check-symmetry`` for n = 2..14."""

    name = "table"

    def inputs(self, api, rng):
        return [
            ["table", "--edges", str(n), "--format", "csv", "--check-symmetry"]
            for n in TABLE_CSV_SHA256
        ]

    def order(self, count):
        # The tables up to 11 edges take milliseconds, so one sample per round
        # is a noisy one.  They run again before each of the three large
        # tables, which costs about a tenth more.
        small = [i for i, n in enumerate(TABLE_CSV_SHA256) if n <= 11]
        large = [i for i in range(count) if i not in small]
        return [i for big in large for i in (*small, big)]

    def check(self, api, argv, output):
        code, text, err = output
        n = int(argv[2])
        if code != 0:
            return f"n={n}: exit code {code}: {err.strip()}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != TABLE_CSV_SHA256[n]:
            return f"n={n}: csv sha256 {digest} differs from the recorded one"
        total = sum(int(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:])
        if total != self.sampler.count(n):
            return f"n={n}: table counts {total} trees, expected {self.sampler.count(n)}"
        return None


class Verify(CliWorkload):
    """``verify --max-edges 6``: thousands of tiny decompose/psi/census calls."""

    name = "verify"
    _SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")

    def inputs(self, api, rng):
        return [["verify", "--max-edges", "6"]]

    def check(self, api, argv, output):
        code, text, err = output
        lines = text.splitlines()
        if code != 0:
            return f"exit code {code}: {err.strip() or lines[-1:]}"
        summary = self._SUMMARY.fullmatch(lines[-1]) if lines else None
        if not summary or summary[1] != summary[2] or int(summary[2]) < 9:
            return f"unexpected summary {lines[-1:]!r}"
        return None


class Psi(Workload):
    """``psi`` on uniformly random labelled tip-augmented trees, 10-14 edges.

    Each round also applies ``psi`` to every image, which checks the
    involution with timed work: psi is a bijection, so the images are
    uniformly random trees as well.
    """

    name = "psi"

    def inputs(self, api, rng):
        sizes = [n for n in PSI_EDGES for _ in range(PSI_PER_EDGE_COUNT)]
        rng.shuffle(sizes)
        words = [random_labelling(self.sampler.sample(n, rng), rng) for n in sizes]
        return [(api.tt.parse_labelled(word), None) for word in words]

    def follow_up(self, items, outputs):
        return [
            (image, t)
            for (t, _), image in zip(items, outputs)
            if not isinstance(image, Exception)
        ]

    def run(self, api, item):
        return api.tt.psi(item[0])

    def check(self, api, item, image):
        tt = api.tt
        t, expected = item
        if not tt.is_tip_augmented(image.shape):
            return f"psi({t.word}) = {image.word} is not tip-augmented"
        if image.label_values() != t.label_values():
            return f"psi({t.word}) = {image.word} changed the labels"
        if tt.stats(image.shape) != tt.stats(t.shape).swapped():
            return f"psi({t.word}) = {image.word} does not swap i and k"
        if expected is not None and image != expected:
            return f"psi is not an involution on {expected.word}"
        return None


class Big(Workload):
    """Shapes and match sets of 200-400 edges: trees, phi and forward merge.

    A shape item parses a shape and a labelling of it, then runs stats,
    classify, phi, phi_with_correspondence and serialisation.  Each round
    feeds every image back in as another shape item, which checks the
    involution with timed work: phi is a bijection, so the images are
    uniformly random shapes as well.
    """

    name = "big"

    def inputs(self, api, rng):
        items = []
        for n in _size_grid(BIG_SHAPES):
            word = self.sampler.sample(n, rng)
            items.append(("shape", word, random_labelling(word, rng), None))
        for n in _size_grid(BIG_MERGES):
            items.append(("merge", api.tt.parse_matches(random_match_set(n, rng))))
        rng.shuffle(items)
        return items

    def follow_up(self, items, outputs):
        return [
            ("shape", *out.words, out)
            for item, out in zip(items, outputs)
            if item[0] == "shape" and not isinstance(out, Exception)
        ]

    def run(self, api, item):
        tt = api.tt
        if item[0] == "merge":
            tree, steps = tt.merge(item[1], with_trace=True)
            return tree, steps, tree.word
        t = tt.parse_tree(item[1])
        lt = tt.parse_labelled(item[2])
        vec = tt.stats(t)
        view = tt.classify(t)
        image = tt.phi(t)
        moved = tt.phi_with_correspondence(lt)
        return SimpleNamespace(
            t=t, lt=lt, vec=vec, cls=view.tree_class.value, image=image, moved=moved,
            words=(image.word, moved.word),
        )

    def check(self, api, item, out):
        if item[0] == "merge":
            return self._check_merge(api, item[1], *out)
        where = f"{item[1][:40]}..."
        if out.lt.shape != out.t:
            return f"labelled input parsed to another shape than {where}"
        if out.moved.shape != out.image:
            return f"transported shape is not phi(t) on {where}"
        prev = item[3]
        if prev is None:
            return None
        if out.t != prev.image or out.lt != prev.moved:
            return f"serialised images do not round-trip on {where}"
        if out.image != prev.t:
            return f"phi is not an involution on {where}"
        if out.moved != prev.lt:
            return f"label transport is not an involution on {where}"
        if out.vec != prev.vec.swapped():
            return f"phi does not swap i and k on {where}"
        if out.cls != _CLASS_SWAP.get(prev.cls, prev.cls):
            return f"phi moved class {prev.cls} to {out.cls} on {where}"
        return None

    def _check_merge(self, api, f, tree, steps, word):
        n = f.n
        if [s.mark for s in steps] != list(range(n + 2, 2 * n + 1)):
            return f"merge of {n} matches did not consume the marks {n + 2}..{2 * n} in order"
        if tree.shape.edge_count != n:
            return f"merge of {n} matches gave {tree.shape.edge_count} edges"
        if tree.label_values() != frozenset((v, False) for v in range(1, n + 2)):
            return f"merge of {n} matches is not labelled by 1..{n + 1}"
        if api.tt.parse_labelled(word) != tree:
            return f"merged tree does not round-trip through {word[:40]}..."
        return None


WORKLOADS = {cls.name: cls for cls in (Table, Psi, Big, Verify)}
