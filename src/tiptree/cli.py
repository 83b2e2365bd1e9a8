"""Command-line interface.

Exit codes: 0 on success, 1 on domain errors (bad tree, invalid match
set), 2 on usage errors.  ``--tree -`` and ``--matches -`` read from
stdin.  Output is deterministic for identical arguments and always
newline-terminated.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .chen import merge, parse_matches, serialize_matches
from .chen import decompose as chen_decompose
from .enumeration import (
    check_symmetry,
    distribution_table,
    gen_labelled_plane_trees,
    gen_labelled_tip_augmented,
    gen_plane_trees,
    gen_tip_augmented,
    table_to_csv,
    table_to_json_lines,
)
from .errors import TipTreeError
from .leaf_stats import stats
from .phi import classify, phi, phi_with_correspondence
from .psi import match_census, psi
from .render import render_dot
from .trees import parse_labelled, parse_tree
from .verification import run_all


def _read_arg(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    return value


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.edges
    if args.labelled:
        gen = gen_labelled_tip_augmented(n) if args.tip_augmented else gen_labelled_plane_trees(n)
        words = [t.word for t in gen]
    else:
        gen = gen_tip_augmented(n) if args.tip_augmented else gen_plane_trees(n)
        words = [t.word for t in gen]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "edges": n,
                    "tip_augmented": args.tip_augmented,
                    "labelled": args.labelled,
                    "count": len(words),
                    "trees": words,
                }
            )
        )
    else:
        for word in words:
            print(word)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    t = parse_tree(_read_arg(args.tree))
    vec = stats(t)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "tree": t.word,
                    "i": vec.i,
                    "j": vec.j,
                    "k": vec.k,
                    "r": vec.r,
                    "s": vec.s,
                    "old": vec.old,
                    "young": vec.young,
                }
            )
        )
    else:
        print(vec)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    t = parse_tree(_read_arg(args.tree))
    view = classify(t)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "tree": t.word,
                    "class": view.tree_class.value,
                    "first_child": view.first_child,
                    "second_child": view.second_child,
                    "u": view.u,
                    "v": view.v,
                    "left_block": [t.subtree(c).word for c in view.left_block],
                    "trailing": [t.subtree(c).word for c in view.trailing],
                }
            )
        )
    else:
        print(view.tree_class.value)
    return 0


def _cmd_phi(args: argparse.Namespace) -> int:
    raw = _read_arg(args.tree)
    if args.labelled:
        result = phi_with_correspondence(parse_labelled(raw)).word
    else:
        result = phi(parse_tree(raw)).word
    if args.format == "json":
        print(json.dumps({"input": "".join(raw.split()), "output": result}))
    else:
        print(result)
    return 0


def _cmd_psi(args: argparse.Namespace) -> int:
    t = parse_labelled(_read_arg(args.tree))
    image = psi(t)
    if args.format == "json":
        census = match_census(t)
        print(
            json.dumps(
                {
                    "input": t.word,
                    "output": image.word,
                    "census": {
                        "i": census.type_i,
                        "ii": census.type_ii,
                        "iii": census.type_iii,
                        "iv": census.type_iv,
                    },
                }
            )
        )
    else:
        print(image.word)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    t = parse_labelled(_read_arg(args.tree))
    f = chen_decompose(t)
    if args.format == "json":
        print(json.dumps({"tree": t.word, "matches": serialize_matches(f)}))
    else:
        print(serialize_matches(f))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    f = parse_matches(_read_arg(args.matches))
    if args.trace:
        tree, steps = merge(f, with_trace=True)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "matches": serialize_matches(f),
                        "tree": tree.word,
                        "trace": [
                            {
                                "mark": step.mark,
                                "kind": step.kind,
                                "tree_root": str(step.tree_root),
                                "host_root": str(step.host_root),
                            }
                            for step in steps
                        ],
                    }
                )
            )
        else:
            for idx, step in enumerate(steps, start=1):
                print(
                    f"step {idx}: {step.kind} at {step.mark}* "
                    f"(tree root {step.tree_root}, host root {step.host_root})"
                )
            print(tree.word)
    else:
        tree = merge(f)
        if args.format == "json":
            print(json.dumps({"matches": serialize_matches(f), "tree": tree.word}))
        else:
            print(tree.word)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table = distribution_table(args.edges)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(table))
    elif args.format == "json":
        sys.stdout.write(table_to_json_lines(table))
    else:
        for vec, cnt in table.rows:
            print(f"{vec} {cnt}")
    if args.check_symmetry:
        report = check_symmetry(table)
        if not report.ok:
            for violation in report.violations:
                print(
                    f"asymmetry: {violation.vector} has {violation.count}, "
                    f"mirror has {violation.mirror_count}",
                    file=sys.stderr,
                )
            return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(args.max_edges)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"check": r.name, "ok": r.ok, "detail": r.detail}
                    for r in results
                ]
            )
        )
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "ok  " if r.ok else "FAIL"
            print(f"{status} {r.name.ljust(width)} {r.detail}")
        good = sum(1 for r in results if r.ok)
        print(f"{good}/{len(results)} checks passed")
    return 0 if all(r.ok for r in results) else 1


def _cmd_render(args: argparse.Namespace) -> int:
    raw = _read_arg(args.tree)
    t = parse_labelled(raw) if args.labelled else parse_tree(raw)
    sys.stdout.write(render_dot(t))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiptree",
        description=(
            "Enumerate tip-augmented plane trees, compute their five-way "
            "leaf statistics, and apply the statistic-swapping involutions."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=choices, default=choices[0])

    p = sub.add_parser("enumerate", help="list trees with a given edge count")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--tip-augmented", action="store_true")
    p.add_argument("--labelled", action="store_true")
    add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stats", help="leaf statistics (i,j,k,r,s) of a tree")
    p.add_argument("--tree", required=True)
    add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("classify", help="A1/A2/B1/B2 class of a tree")
    p.add_argument("--tree", required=True)
    add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("phi", help="apply the shape involution")
    p.add_argument("--tree", required=True)
    p.add_argument("--labelled", action="store_true")
    add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("psi", help="apply the labelled involution")
    p.add_argument("--tree", required=True)
    add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("decompose", help="decompose a labelled tree into matches")
    p.add_argument("--tree", required=True)
    add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("merge", help="merge a match set into a labelled tree")
    p.add_argument("--matches", required=True)
    p.add_argument("--trace", action="store_true")
    add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("table", help="distribution table of the leaf statistics")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--check-symmetry", action="store_true")
    add_format(p, ("text", "csv", "json"))
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the exhaustive invariant suites")
    p.add_argument("--max-edges", type=int, default=6)
    add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="emit DOT for a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--labelled", action="store_true")
    add_format(p, ("dot",))
    p.set_defaults(func=_cmd_render)

    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except TipTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply for this operation", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
