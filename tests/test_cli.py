"""Command-line behaviour: exit codes, formats, pipe composition."""

import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from treeweights import (
    DoubleWeights,
    WeightedTree,
    doubles_of_tree,
    emit_doubles,
    parse_doubles,
    parse_newick,
    random_tree,
    tree_equal,
)
from treeweights import weights as weights_mod
from treeweights.cli import main
from treeweights.weights import holds_fractions
from conftest import late_failing_caterpillar
from reference_loops import buneman_check_loop


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


QUARTET_FILE = "4\n1 2 3\n1 3 9\n1 4 10\n2 3 10\n2 4 11\n3 4 7\n"
BAD_QUARTET = "4\n1 2 3\n1 3 9.5\n1 4 10\n2 3 10\n2 4 11\n3 4 7\n"


class TestGen:
    def test_deterministic_bytes(self, capsys):
        code1, out1, _ = run_cli(capsys, ["gen", "--leaves", "6", "--seed", "9"])
        code2, out2, _ = run_cli(capsys, ["gen", "--leaves", "6", "--seed", "9"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip().endswith(";")

    def test_leaf_guard(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--leaves", "1"])
        assert code == 1 and "leaves" in err

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_weight_range_names_the_options(self, capsys, mode):
        code, out, err = run_cli(
            capsys, ["gen", "--leaves", "5", "--weight-min", "5", "--weight-max", "1",
                     "--mode", mode]
        )
        assert code == 1 and out == ""
        assert err == "treeweights: --weight-min must be <= --weight-max\n"

    def test_equal_weight_bounds_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, ["gen", "--leaves", "3", "--weight-min", "2", "--weight-max", "2"]
        )
        assert code == 0 and out == "(1:2,2:2,3:2);\n"


class TestWeightsCommand:
    def test_round_trip_order2(self, capsys, monkeypatch, tmp_path):
        _, newick, _ = run_cli(capsys, ["gen", "--leaves", "5", "--seed", "2"])
        code, out, _ = run_cli(
            capsys, ["weights", "--order", "2"], stdin=newick, monkeypatch=monkeypatch
        )
        assert code == 0
        assert out.splitlines()[0] == "5"
        assert len(out.splitlines()) == 1 + 10

    def test_parse_error_exit_1(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys,
            ["weights", "--order", "2"],
            stdin="not a tree;",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "leaf name" in err or "label" in err

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_triples_of_two_leaves_exit_1(self, capsys, monkeypatch, mode):
        # the message names what was asked for, not an inner function
        code, out, err = run_cli(
            capsys, ["weights", "--order", "3", "--mode", mode], stdin="(1:1,2:2);\n",
            monkeypatch=monkeypatch,
        )
        assert (code, out, err) == (1, "", "treeweights: triple weights need n >= 3\n")


class TestCheck:
    def test_realizable_quartet(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["check", "--order", "2"], stdin=QUARTET_FILE, monkeypatch=monkeypatch
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["realizable"] is True
        assert payload["four_point"]["passed"] is True

    def test_unrealizable_exit_2_with_witness(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["check", "--order", "2"], stdin=BAD_QUARTET, monkeypatch=monkeypatch
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["realizable"] is False
        assert payload["four_point"]["witness"] == [1, 2, 3, 4]
        assert payload["failure"]["kind"] == "base-case"

    def test_small_triples_trivially_realizable(self, capsys, monkeypatch):
        text = "4\n1 2 3 5\n1 2 4 6\n1 3 4 7\n2 3 4 8\n"
        code, out, _ = run_cli(
            capsys, ["check", "--order", "3"], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 0 and json.loads(out)["realizable"] is True

    def test_malformed_file_exit_1(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys,
            ["check", "--order", "2"],
            stdin="3\n1 2 1\n1 2 2\n2 3 1\n1 3 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1 and "line 3" in err

    @pytest.mark.parametrize(
        "order, text, message",
        [
            (2, "4\n1 2 3\n1 4 5\n", "4 entries missing (first: 1 3)"),
            (2, "100000\n1 2 3\n", f"{comb(10**5, 2) - 1} entries missing (first: 1 3)"),
            (3, "100000\n1 2 3 4\n2 3 4 5\n",
             f"{comb(10**5, 3) - 2} entries missing (first: 1 2 4)"),
        ],
    )
    def test_missing_entries_counted_without_listing(
        self, capsys, monkeypatch, order, text, message
    ):
        # a huge label count is rejected at once, not by listing every key
        start = time.process_time()
        code, out, err = run_cli(
            capsys, ["check", "--order", str(order)], stdin=text, monkeypatch=monkeypatch
        )
        assert time.process_time() - start < 2
        assert code == 1 and out == ""
        assert err == f"treeweights: {message}\n"

    @pytest.mark.parametrize(
        "token, mode, reason",
        [
            ("3/0", "rational", "zero denominator"),
            ("inf", "rational", "non-finite"),
            ("-inf", "float", "non-finite"),
            ("Infinity", "rational", "non-finite"),
            ("1e400", "float", "float range"),
            ("nan", "float", "bad numeric token"),
            ("1e10000000", "rational", "beyond the limit"),
            ("1e-10000000", "rational", "beyond the limit"),
            ("1e10000000", "float", "float range"),
        ],
    )
    def test_bad_value_is_clean_parse_error(self, capsys, monkeypatch, token, mode, reason):
        code, out, err = run_cli(
            capsys,
            ["check", "--order", "2", "--mode", mode],
            stdin=f"3\n1 2 1\n1 3 {token}\n2 3 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1 and out == ""
        assert err.startswith("treeweights: line 3: ") and reason in err
        assert "Traceback" not in err

    def test_unrealizable_triples_exit_2(self, capsys, monkeypatch):
        # caterpillar triples with one constrained entry perturbed
        lines = ["5", "1 2 3 12", "1 2 4 21", "1 2 5 21", "1 3 4 21", "1 3 5 22",
                 "1 4 5 23", "2 3 4 22", "2 3 5 23", "2 4 5 24", "3 4 5 19"]
        code, out, _ = run_cli(
            capsys,
            ["check", "--order", "3"],
            stdin="\n".join(lines) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert json.loads(out)["failure"]["kind"] is not None


def _four_point_inputs():
    """``check --order 2`` inputs that run the four-point scan, as
    pytest params (pair file text, extra argv, first witness or None for
    a pass), one per mirror kind and witness position."""
    tree12 = dict(doubles_of_tree(random_tree(12, 4)).items())
    early = dict(tree12)
    early[(1, 2)] += 5
    # a common denominator past 4096 bits: a mirror of Fractions
    fractions = {k: v * Fraction(3**2600 + 1, 3**2600) for k, v in tree12.items()}
    fractions[(2, 5)] += 3
    # a multifurcating tree with a negative inner edge is reconstructed but
    # not proven four-point: at tol 0 a quartet across the edge fails, and
    # within a wide tol the scan runs to the end
    multi = random_tree(12, 3, binary_only=False)
    leaves = set(multi.leaves)
    inner = next(k for k, (u, v, _) in enumerate(multi.edges) if u not in leaves and v not in leaves)
    edges = [(u, v, -w if k == inner else w) for k, (u, v, w) in enumerate(multi.edges)]
    negative = dict(doubles_of_tree(WeightedTree(edges)).items())
    floats = dict(doubles_of_tree(random_tree(30, 6, mode="float")).items())
    huge = {k: v * Fraction(2**61 + 1, 2**61 - 1) for k, v in early.items()}
    inputs = [
        ("rational-12-early", early, [], (1, 2, 3, 4)),
        ("rational-12-late", late_failing_caterpillar(12, random.Random(11)), [], (1, 10, 11, 12)),
        ("fractions-12", fractions, [], (1, 2, 3, 5)),
        ("negative-inner-edge", negative, [], (1, 2, 3, 6)),
        ("negative-inner-edge-tol-100", negative, ["--tol", "100"], None),
        ("float-30-tol-0", floats, ["--mode", "float", "--tol", "0"], (1, 2, 3, 4)),
        ("float-30-tol-1e-9", floats, ["--mode", "float", "--tol", "1e-9"], None),
        ("object-ints-12", huge, [], (1, 2, 3, 4)),
    ]
    return [pytest.param(emit_doubles(DoubleWeights(v)), argv, w, id=name)
            for name, v, argv, w in inputs]


class TestCheckFourPointContract:
    """``check --order 2`` prints the same bytes and exits alike with the
    four-point block kernel and with the reference loop over quadruples."""

    @pytest.mark.parametrize("text, argv, witness", _four_point_inputs())
    def test_kernel_and_loop_print_the_same(self, text, argv, witness, tmp_path, monkeypatch,
                                            capsys):
        path = tmp_path / "d.txt"
        path.write_text(text)
        argv = ["check", "--order", "2", "--in", str(path)] + argv
        calls, runs = [], []
        for tag, scan in (("kernel", weights_mod.buneman_check), ("loop", buneman_check_loop)):
            monkeypatch.setattr(weights_mod, "buneman_check",
                                lambda *a, tag=tag, scan=scan: calls.append(tag) or scan(*a))
            code, out, _ = run_cli(capsys, argv)
            runs.append((code, out))
        assert runs[0] == runs[1]
        assert calls == ["kernel", "loop"]
        four_point = json.loads(runs[0][1])["four_point"]
        assert four_point["passed"] is (witness is None)
        assert four_point["witness"] == (None if witness is None else list(witness))

    def test_the_inputs_reach_every_mirror_kind(self):
        kinds = set()
        for param in _four_point_inputs():
            text, argv, _ = param.values
            arr = parse_doubles(text, "float" if "float" in argv else "rational").dense()[1]
            kinds.add("fractions" if holds_fractions(arr) else str(arr.dtype))
        assert kinds == {"int64", "object", "fractions", "float64"}


class TestReconstructCommand:
    def test_pipeline_round_trip(self, capsys, monkeypatch):
        _, newick, _ = run_cli(capsys, ["gen", "--leaves", "5", "--seed", "1"])
        _, weights, _ = run_cli(
            capsys, ["weights", "--order", "3"], stdin=newick, monkeypatch=monkeypatch
        )
        code, rebuilt, _ = run_cli(
            capsys,
            ["reconstruct", "--order", "3", "--mode", "rational"],
            stdin=weights,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        a = parse_newick(newick, "rational")
        b = parse_newick(rebuilt, "rational")
        assert tree_equal(a, b, 0)

    def test_report_file(self, capsys, monkeypatch, tmp_path):
        _, newick, _ = run_cli(capsys, ["gen", "--leaves", "7", "--seed", "5"])
        _, weights, _ = run_cli(
            capsys, ["weights", "--order", "2"], stdin=newick, monkeypatch=monkeypatch
        )
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["reconstruct", "--order", "2", "--report", str(report)],
            stdin=weights,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "realizable"
        assert payload["positivity"] is True
        assert payload["tree"]["newick"].endswith(";")

    def test_failure_json_exit_2(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["reconstruct", "--order", "2"],
            stdin=BAD_QUARTET,
            monkeypatch=monkeypatch,
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "not-realizable"
        assert payload["failure"]["kind"] == "base-case"

    def test_branch_beyond_float_range(self, capsys, monkeypatch):
        # exact values past the float range print as 12 significant digits
        code, out, _ = run_cli(
            capsys,
            ["reconstruct", "--order", "2"],
            stdin="2\n1 2 1e400\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "(1:5e+399,2:5e+399);\n"

    def test_require_positive(self, capsys, monkeypatch):
        text = "4\n1 2 3\n1 3 1\n1 4 2\n2 3 2\n2 4 3\n3 4 1\n"
        code, out, _ = run_cli(
            capsys,
            ["reconstruct", "--order", "2", "--require-positive"],
            stdin=text,
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert json.loads(out)["failure"]["kind"] == "positivity"


class TestNJCommand:
    def test_classic_and_pruning_agree(self, capsys, monkeypatch):
        _, newick, _ = run_cli(capsys, ["gen", "--leaves", "9", "--seed", "3"])
        _, weights, _ = run_cli(
            capsys, ["weights", "--order", "2"], stdin=newick, monkeypatch=monkeypatch
        )
        _, classic, _ = run_cli(
            capsys,
            ["nj", "--order", "2", "--variant", "classic", "--mode", "rational"],
            stdin=weights,
            monkeypatch=monkeypatch,
        )
        _, pruning, _ = run_cli(
            capsys,
            ["nj", "--order", "2", "--variant", "pruning", "--mode", "rational"],
            stdin=weights,
            monkeypatch=monkeypatch,
        )
        t1 = parse_newick(classic, "rational")
        t2 = parse_newick(pruning, "rational")
        assert tree_equal(t1, t2, 0)
        assert tree_equal(t1, parse_newick(newick, "rational"), 0)

    def test_order3(self, capsys, monkeypatch):
        _, newick, _ = run_cli(capsys, ["gen", "--leaves", "6", "--seed", "8"])
        _, weights, _ = run_cli(
            capsys, ["weights", "--order", "3"], stdin=newick, monkeypatch=monkeypatch
        )
        code, out, _ = run_cli(
            capsys,
            ["nj", "--order", "3", "--mode", "rational"],
            stdin=weights,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert tree_equal(parse_newick(out, "rational"), parse_newick(newick, "rational"), 0)

    @pytest.mark.parametrize("variant", ["classic", "pruning"])
    def test_variant_refused_for_order3(self, capsys, monkeypatch, variant):
        _, newick, _ = run_cli(capsys, ["gen", "--leaves", "6", "--seed", "8"])
        _, weights, _ = run_cli(
            capsys, ["weights", "--order", "3"], stdin=newick, monkeypatch=monkeypatch
        )
        code, out, err = run_cli(
            capsys,
            ["nj", "--order", "3", "--variant", variant],
            stdin=weights,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("treeweights: ") and "--variant" in err

    def test_order3_four_labels_exit_1(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys,
            ["nj", "--order", "3"],
            stdin="4\n1 2 3 1\n1 2 4 2\n1 3 4 3\n2 3 4 4\n",
            monkeypatch=monkeypatch,
        )
        assert (code, out, err) == (1, "", "treeweights: triple neighbor joining needs n >= 5\n")


class TestCompare:
    def test_equal_trees(self, capsys, tmp_path):
        a = tmp_path / "a.nwk"
        a.write_text("(1:1,2:2,(4:4,5:5):3,3:7);\n")
        code, out, _ = run_cli(capsys, ["compare", str(a), str(a), "--tol", "0"])
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_different_trees(self, capsys, tmp_path):
        a = tmp_path / "a.nwk"
        b = tmp_path / "b.nwk"
        a.write_text("(1:1,2:2,3:3);\n")
        b.write_text("(1:1,2:2,3:4);\n")
        code, out, _ = run_cli(capsys, ["compare", str(a), str(b), "--tol", "0.5"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["compare", str(a), str(b), "--tol", "2"])
        assert code == 0


class TestOracleCommand:
    def test_realizable(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["oracle", "--order", "2"], stdin=QUARTET_FILE, monkeypatch=monkeypatch
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["realizable"] is True and payload["tree"].endswith(";")

    def test_unrealizable(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["oracle", "--order", "2"], stdin=BAD_QUARTET, monkeypatch=monkeypatch
        )
        assert code == 2 and json.loads(out)["tree"] is None

    def test_two_labels(self, capsys, monkeypatch):
        # the single edge, printed as its midpoint rooting
        code, out, _ = run_cli(
            capsys, ["oracle", "--order", "2"], stdin="2\n1 2 3\n", monkeypatch=monkeypatch
        )
        assert code == 0 and json.loads(out)["tree"] == "(1:1.5,2:1.5);"

    @pytest.mark.parametrize("value,positive,code,tree", [
        ("3", True, 0, "(1:1,2:1,3:1);"),
        ("3", False, 0, "(1:3,2:0,3:0);"),
        ("0", True, 2, None),
        ("-3", True, 2, None),
        ("-3", False, 0, "(1:-3,2:0,3:0);"),
    ])
    def test_three_label_triples(self, capsys, monkeypatch, value, positive, code, tree):
        argv = ["oracle", "--order", "3"] + ["--require-positive"] * positive
        got, out, _ = run_cli(capsys, argv, stdin=f"3\n1 2 3 {value}\n", monkeypatch=monkeypatch)
        payload = json.loads(out)
        assert (got, payload["realizable"], payload["tree"]) == (code, code == 0, tree)

    def test_nine_labels_exit_1(self, capsys, monkeypatch):
        text = emit_doubles(doubles_of_tree(random_tree(9, 1)))
        code, out, err = run_cli(capsys, ["oracle", "--order", "2"], stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err == "treeweights: the brute-force oracle supports 2 <= n <= 8 labels\n"


class TestBench:
    def test_entries_to_stdout_timing_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, ["bench", "--sizes", "20,40"])
        assert code == 0
        blocks = [json.loads(b) for b in out.replace("}\n{", "}\x00{").split("\x00")]
        assert [b["n"] for b in blocks] == [20, 40]
        assert all("entries_examined" in b for b in blocks)
        assert "bench n=20" in err

    def test_bad_sizes(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "--sizes", "2,x"])
        assert code == 1


class TestConfigPlumbing:
    def test_usage_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, ["reconstruct", "--order", "7"])
        assert code == 1

    def test_negative_tol_rejected(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys,
            ["check", "--order", "2", "--tol", "-1"],
            stdin=QUARTET_FILE,
            monkeypatch=monkeypatch,
        )
        assert code == 1 and "tol" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["nj", "--epsilon", "nan"], "--epsilon: bad numeric token 'nan'"),
            (["nj", "--mode", "rational", "--epsilon", "1/0"],
             "--epsilon: zero denominator in '1/0'"),
            (["reconstruct", "--order", "2", "--tol", "inf"],
             "--tol: non-finite numeric token 'inf'"),
            (["check", "--order", "2", "--mode", "float", "--tol", "x"],
             "--tol: bad numeric token 'x'"),
            (["compare", "a.nwk", "b.nwk", "--tol", "1e999999"],
             "--tol: exponent of '1e999999' is beyond the limit of 4300"),
            (["gen", "--leaves", "4", "--weight-min", "nan", "--mode", "float"],
             "--weight-min: bad numeric token 'nan'"),
            (["gen", "--leaves", "4", "--weight-max", "1e400", "--mode", "float"],
             "--weight-max: '1e400' is out of the float range"),
            (["gen", "--leaves", "4", "--weight-max=-inf"],
             "--weight-max: non-finite numeric token '-inf'"),
        ],
    )
    def test_bad_number_names_its_option(self, capsys, argv, message):
        # refused before any input is read
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"treeweights: {message}\n"

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, ["weights", "--order", "2", "--in", "/nope.nwk"])
        assert code == 1


class TestParserReuse:
    """main() builds its parser once per process; a run must not depend on
    the calls before it."""

    def test_sequence_matches_fresh_parsers(self, capsys, tmp_path):
        from treeweights import cli

        data = tmp_path / "d.txt"
        data.write_text(QUARTET_FILE)
        triples = tmp_path / "t.txt"
        _, nwk, _ = run_cli(capsys, ["gen", "--leaves", "6", "--seed", "4"])
        (tmp_path / "t.nwk").write_text(nwk)
        run_cli(capsys, ["weights", "--order", "3", "--in", str(tmp_path / "t.nwk"),
                         "--out", str(triples)])
        calls = [
            ["nj", "--variant", "pruning", "--epsilon", "0.5", "--in", str(data)],
            ["nj", "--in", str(data)],
            ["nj", "--mode", "rational", "--in", str(data)],
            ["nj", "--order", "3", "--in", str(triples)],
            ["nj", "--order", "3", "--variant", "classic", "--in", str(triples)],
            ["nj", "--variant", "sideways"],
            ["check", "--order", "2", "--tol", "1/2", "--in", str(data)],
            ["check", "--order", "2", "--in", str(data)],
            ["check", "--order", "2", "--tol", "-1", "--in", str(data)],
            ["reconstruct", "--order", "3", "--require-positive", "--in", str(triples)],
            ["reconstruct", "--order", "3", "--in", str(triples)],
            ["oracle", "--order", "2", "--require-positive", "--in", str(data)],
            ["oracle", "--order", "2", "--in", str(data)],
            ["gen", "--leaves", "5", "--multifurcating", "--seed", "2"],
            ["gen", "--leaves", "5"],
            ["bench", "--sizes", "8,12"],
            ["bench", "--sizes", "8"],
            ["bench", "--sizes", "x"],
            ["check"],
            [],
            ["compare", str(tmp_path / "t.nwk"), str(tmp_path / "t.nwk")],
        ]
        reused = []
        for argv in calls:
            code, out, err = run_cli(capsys, argv)
            reused.append((code, out, err.split("bench n=")[0]))
        for argv, want in zip(calls, reused):
            cli._build_parser.cache_clear()
            code, out, err = run_cli(capsys, argv)
            assert (code, out, err.split("bench n=")[0]) == want, argv
        assert [c for c, _, _ in reused].count(1) == 6
        assert "--variant applies to --order 2 only" in reused[4][2]
