import json

import pytest

from tiptree.cli import run_cli

from helpers import ELEVEN_ROW_B, ELEVEN_TREE_B, TABLE_4


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_tip_augmented_four_edges(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--edges", "4", "--tip-augmented")
        assert code == 0
        assert out == "(()(()()))\n(()(())())\n(()()(()))\n(()()()())\n"

    def test_plane_trees(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--edges", "3")
        assert code == 0
        assert len(out.strip().split("\n")) == 5

    def test_labelled(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--edges", "1", "--tip-augmented", "--labelled"
        )
        assert code == 0
        assert out == "1(2)\n2(1)\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--edges", "4", "--tip-augmented", "--format", "json"
        )
        data = json.loads(out)
        assert data["count"] == 4
        assert data["trees"][0] == "(()(()()))"


class TestStats:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "stats", "--tree", "(()(())())")
        assert code == 0
        assert out == "(1,0,1,1,0)\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "stats", "--tree", "(()(())())", "--format", "json")
        data = json.loads(out)
        assert (data["i"], data["j"], data["k"], data["r"], data["s"]) == (1, 0, 1, 1, 0)
        assert data["old"] == 2 and data["young"] == 1

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(()(())())\n"))
        code, out, _ = run(capsys, "stats", "--tree", "-")
        assert code == 0
        assert out == "(1,0,1,1,0)\n"

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "stats", "--tree", "(()")
        assert code == 1
        assert out == ""
        assert "error" in err


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--tree", "(()()(()))")
        assert code == 0
        assert out == "B2\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--tree", "(()(()()))", "--format", "json"
        )
        data = json.loads(out)
        assert data["class"] == "B1"
        assert data["left_block"] == ["(()())"]


class TestPhi:
    def test_shape(self, capsys):
        code, out, _ = run(capsys, "phi", "--tree", "(()()(()))")
        assert code == 0
        assert out == "(()(()()))\n"

    def test_labelled(self, capsys):
        code, out, _ = run(
            capsys, "phi", "--tree", "1(2,3(4),5)", "--labelled"
        )
        assert code == 0
        assert out == "1(4,3(2),5)\n"

    def test_non_tip_augmented_exit_1(self, capsys):
        code, _, err = run(capsys, "phi", "--tree", "((()))")
        assert code == 1
        assert "error" in err


class TestPsiAndChen:
    def test_psi(self, capsys):
        code, out, _ = run(capsys, "psi", "--tree", "1(2,3(4))")
        assert code == 0
        assert out == "3(4,1(2))\n"

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "--tree", "1(2,3(4))")
        assert code == 0
        assert out == "1:2,3:4,5*:6*\n"

    def test_merge(self, capsys):
        code, out, _ = run(capsys, "merge", "--matches", "1:2,3:4,5*:6*")
        assert code == 0
        assert out == "1(2,3(4))\n"

    def test_merge_golden(self, capsys):
        code, out, _ = run(capsys, "merge", "--matches", ELEVEN_ROW_B)
        assert code == 0
        assert out == ELEVEN_TREE_B + "\n"

    def test_merge_trace(self, capsys):
        code, out, _ = run(
            capsys, "merge", "--matches", "1:2,3:4,5*:6*", "--trace"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "1(2,3(4))"
        assert "horizontal at 5*" in lines[0]
        assert "vertical at 6*" in lines[1]

    def test_deep_chain_merges(self, capsys):
        # These 1,500 matches merge to the chain 1(2(3(...(1500(1501))...))),
        # deeper than Python's default recursion limit.
        matches = [f"{i}:{3001 - i}*" for i in range(1, 1500)] + ["1500:1501"]
        code, out, err = run(capsys, "merge", "--matches", ",".join(matches))
        assert code == 0
        assert out == "(".join(str(v) for v in range(1, 1502)) + ")" * 1500 + "\n"
        assert err == ""

    def test_invalid_matches_exit_1(self, capsys):
        code, _, err = run(capsys, "merge", "--matches", "1:2,3:4,7*:6*")
        assert code == 1
        assert "error" in err


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--edges", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,i,j,k,r,s,count"
        rows = {tuple(map(int, line.split(",")[1:6])): int(line.split(",")[6]) for line in lines[1:]}
        assert rows == TABLE_4

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--edges", "3", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert len(rows) == 2

    def test_check_symmetry_passes(self, capsys):
        code, _, err = run(capsys, "table", "--edges", "5", "--check-symmetry")
        assert code == 0
        assert err == ""


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-edges", "3")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-edges", "2", "--format", "json")
        assert code == 0
        results = json.loads(out)
        assert all(r["ok"] for r in results)


class TestRender:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "render", "--tree", "(()(())())")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 4

    def test_labelled(self, capsys):
        code, out, _ = run(capsys, "render", "--tree", "1(2,3)", "--labelled")
        assert code == 0
        assert 'label="3"' in out


class TestUsage:
    def test_unknown_flag_exit_2(self, capsys):
        code, _, err = run(capsys, "stats", "--tree", "(())", "--bogus")
        assert code == 2

    def test_missing_subcommand_exit_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--edges", "5", "--tip-augmented")
        _, second, _ = run(capsys, "enumerate", "--edges", "5", "--tip-augmented")
        assert first == second

    def test_outputs_newline_terminated(self, capsys):
        for argv in (
            ["stats", "--tree", "(()())"],
            ["phi", "--tree", "(()())"],
            ["table", "--edges", "2", "--format", "csv"],
        ):
            _, out, _ = run(capsys, *argv)
            assert out.endswith("\n")
