"""The path-sum kernel and what runs on it.

``weights.path_sums`` is held to the per-leaf walk
(``reference_loops.all_pairwise_weights_loop``): floats bitwise, exact
values by value, on int64, ``object`` and Fraction mirrors.  On top of
it: ``doubles_of_tree``/``triples_of_tree`` (their mirrors are what a
container built from the same values would give), the half-sum lift,
condition 2's hand-over, verification (same verdicts, witnesses and
messages as the key-by-key loop), weight-file output, integers past
Python's int-to-string digit limit, and ``check``'s four-point shortcut.
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from treeweights import (
    DoubleWeights,
    InstanceTooSmallError,
    ReconstructionError,
    WeightedTree,
    all_pairwise_weights,
    derived_pairwise_consistent,
    doubles_of_tree,
    emit_doubles,
    emit_triples,
    random_tree,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    to_newick,
    triples_from_doubles,
    triples_of_tree,
)
from treeweights import cli
from treeweights import reconstruct as reconstruct_mod
from treeweights import weights as weights_mod
from treeweights.numeric import format_number
from treeweights.reconstruct import BaseCaseRecord
from treeweights.weights import _DENSE_MAG_CAP, holds_fractions, path_sums
from conftest import cross_path_cases, exact_or_float
from reference_loops import (
    all_pairwise_weights_loop,
    distances_from,
    triples_from_doubles_loop,
    verified_loop,
)


def same_values(got: dict, want: dict):
    assert list(got) == list(want)
    assert [exact_or_float(v) for v in got.values()] == [exact_or_float(v) for v in want.values()]


def same_mirror(got, want):
    """Two (kind, arr, scale) mirrors alike in kind, scale, dtype and every
    element: floats bitwise, ``object`` elements with their types."""
    (gk, ga, gs), (wk, wa, ws) = got, want
    assert (gk, gs, ga.dtype, ga.shape) == (wk, ws, wa.dtype, wa.shape)
    if ga.dtype == object:
        assert ga.tolist() == wa.tolist()
        assert list(map(type, ga.flat)) == list(map(type, wa.flat))
    else:
        assert ga.tobytes() == wa.tobytes()


def reweighted(tree, fn):
    return WeightedTree([(u, v, fn(w)) for u, v, w in tree.edges])


def subdivided(tree, rng, count):
    """*tree* with *count* degree-2 nodes put on random edges, each
    splitting its edge's weight in two."""
    edges = list(tree.edges)
    fresh = max(tree.nodes) + 1
    for _ in range(count):
        u, v, w = edges.pop(rng.randrange(len(edges)))
        part = w * rng.choice((0, 1, 2)) / 3 if not isinstance(w, float) else w * rng.random()
        edges += [(u, fresh, part), (fresh, v, w - part)]
        fresh += 1
    return WeightedTree(edges)


def tree_case(seed):
    """A random tree: either mode, binary or multifurcating, some with
    degree-2 nodes, zero and negative weights."""
    rng = random.Random(seed)
    mode = ("rational", "float")[seed % 2]
    t = random_tree(rng.randint(2, 30), seed, binary_only=rng.random() < 0.5, mode=mode)
    if rng.random() < 0.4:
        t = reweighted(t, lambda w: rng.choice((w, w, 0 * w, -w)))
    if rng.random() < 0.4:
        t = subdivided(t, rng, rng.randint(1, 6))
    return t


def caterpillar(n, seed):
    """Leaves 1, 2 and n - 1, n on the two ends of a spine carrying one
    leaf per inner node, float weights."""
    rng = random.Random(seed)
    spine = list(range(n + 1, 2 * n - 1))
    edges = [(spine[k], spine[k + 1], rng.uniform(1, 10)) for k in range(len(spine) - 1)]
    edges += [(1, spine[0], rng.uniform(1, 10)), (n, spine[-1], rng.uniform(1, 10))]
    edges += [(leaf, spine[leaf - 2], rng.uniform(1, 10)) for leaf in range(2, n)]
    return WeightedTree(edges)


# --------------------------------------------------------------------- #
# The kernel against the per-leaf walk                                   #
# --------------------------------------------------------------------- #


class TestKernel:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_trees(self, seed):
        t = tree_case(seed)
        want = all_pairwise_weights_loop(t)
        same_values(all_pairwise_weights(t), want)
        state = path_sums(t)
        assert state.labels == list(t.leaves)
        assert (state.arr == state.arr.T).all()

    def test_two_leaves(self):
        for w in (Fraction(7, 3), 2.5, -1.0, 0):
            t = WeightedTree([(4, 9, w)])
            same_values(all_pairwise_weights(t), {(4, 9): w})
            kind, arr, scale = doubles_of_tree(t).dense()
            assert arr.shape == (2, 2)

    def test_deep_caterpillar(self):
        n = 2000
        t = caterpillar(n, 1)
        arr = path_sums(t).arr
        assert (arr == arr.T).all()
        for a in (1, 2, 999, n - 1):
            dist = distances_from(t, a)
            for b in range(a + 1, n + 1, 37):
                assert repr(float(arr[a - 1, b - 1])) == repr(dist[b])

    @pytest.mark.parametrize(
        "dtype, scaled",
        [
            ("int64", lambda w: w),
            # units past the int64 headroom
            ("object", lambda w: w * 2**56 + Fraction(1, 3)),
            # a common scale of 3**2600 and 5**1800, past 4096 bits
            ("fractions", None),
        ],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_mirrors(self, dtype, scaled, seed):
        t = random_tree(12, seed, binary_only=seed % 2 == 0)
        if scaled is None:
            rng = random.Random(seed)
            t = reweighted(t, lambda w: w + Fraction(rng.randint(1, 9), rng.choice((3**2600, 5**1800))))
        else:
            t = reweighted(t, scaled)
        arr = path_sums(t).arr
        if dtype == "fractions":
            assert holds_fractions(arr)
        else:
            assert arr.dtype == (np.int64 if dtype == "int64" else object)
            assert not holds_fractions(arr)
        want = all_pairwise_weights_loop(t)
        same_values(all_pairwise_weights(t), want)
        same_mirror(doubles_of_tree(t).dense(), DoubleWeights(want, labels=t.leaves).dense())

    def test_fraction_kernel_with_cancelling_sums(self):
        # the inner edge is split so that each half carries 1/3**2600, which
        # every path through it cancels: the path sums are whole numbers
        big = 3**2600
        t = WeightedTree(
            [(1, 5, 1), (2, 5, 2), (5, 6, 1 + Fraction(1, big)), (6, 7, 2 - Fraction(1, big)),
             (3, 7, 3), (4, 7, 4)]
        )
        assert holds_fractions(path_sums(t).arr)
        kind, arr, scale = doubles_of_tree(t).dense()
        assert (kind, arr.dtype, scale) == ("int", np.int64, 1)
        same_mirror((kind, arr, scale), DoubleWeights(all_pairwise_weights_loop(t)).dense())

    def test_wide_units_stay_object(self):
        t = reweighted(random_tree(9, 3), lambda w: w * _DENSE_MAG_CAP)
        assert doubles_of_tree(t).dense()[1].dtype == object


# --------------------------------------------------------------------- #
# Containers built on it                                                 #
# --------------------------------------------------------------------- #


class TestContainers:
    @pytest.mark.parametrize("seed", range(40))
    def test_doubles_and_triples_of_tree(self, seed):
        t = tree_case(seed)
        dict_built = DoubleWeights(all_pairwise_weights_loop(t), labels=t.leaves)
        same_mirror(doubles_of_tree(t).dense(), dict_built.dense())
        if t.n >= 3:
            lifted = triples_of_tree(t)
            same_mirror(lifted.dense(), triples_from_doubles_loop(dict_built).dense())
            same_values(dict(lifted.items()), dict(triples_from_doubles_loop(dict_built).items()))

    @pytest.mark.parametrize("seed", range(4))
    def test_lift_on_every_mirror_kind(self, seed):
        for name, d, _ in cross_path_cases(seed, 2):
            want = triples_from_doubles_loop(d)
            same_mirror(triples_from_doubles(d).dense(), want.dense())
            same_values(dict(triples_from_doubles(d).items()), dict(want.items()))

    def test_too_small_for_triples(self):
        with pytest.raises(InstanceTooSmallError) as exc:
            triples_of_tree(WeightedTree([(1, 2, 1)]))
        assert "n >= 3" in str(exc.value)

    @pytest.mark.parametrize("seed", range(4))
    def test_condition2_hands_over_its_mirror(self, seed):
        for name, t, tol in cross_path_cases(seed, 3):
            ok, d = derived_pairwise_consistent(t, tol)
            if ok:
                same_mirror(d.dense(), DoubleWeights(dict(d.items()), labels=d.labels).dense())

    def test_emit_from_the_mirror(self):
        for seed in range(6):
            for name, w, _ in cross_path_cases(seed, 2) + cross_path_cases(seed, 3):
                lines = [str(w.n)] + [
                    " ".join(map(str, key)) + " " + format_number(v) for key, v in w.items()
                ]
                emit = emit_doubles if w.order == 2 else emit_triples
                assert emit(w) == "\n".join(lines) + "\n", name


# --------------------------------------------------------------------- #
# Verification                                                           #
# --------------------------------------------------------------------- #


def outcome(call):
    try:
        tree, trace = call()
    except ReconstructionError as err:
        if err.kind != "verification":
            return (err.kind, err.level, str(err), repr(err.witness))
        key, got, want = err.witness
        return (err.kind, err.level, str(err), key, exact_or_float(got), exact_or_float(want),
                type(got), type(want))
    return ("accept", to_newick(tree), trace.all_twigs_positive)


def near_misses(seed):
    """(tree, d, tol) near the verification slack: a tree's pair values
    with one to three entries moved by about the tolerance, or a little
    more."""
    rng = random.Random(seed)
    mode = ("rational", "float")[seed % 2]
    t = random_tree(rng.randint(3, 10), seed, binary_only=rng.random() < 0.5, mode=mode)
    tol = rng.choice((Fraction(0), Fraction(1, 50)) if mode == "rational" else (0.0, 1e-9, 0.02))
    vals = dict(doubles_of_tree(t).items())
    for key in rng.sample(sorted(vals), min(len(vals), rng.randint(1, 3))):
        step = rng.choice((tol, 2 * tol, tol / 2, Fraction(1, 7), -3 * tol))
        vals[key] = vals[key] + (float(step) if mode == "float" else Fraction(step))
    return t, DoubleWeights(vals), tol


def bumped_data(seed):
    """(data, tol): pair (even seed // 2) or triple data of a random tree
    with one or two entries moved by about the tolerance, or a little more."""
    rng = random.Random(seed)
    mode = ("rational", "float")[seed % 2]
    order = (2, 3)[(seed // 2) % 2]
    t = random_tree(rng.randint(5, 10), seed, binary_only=rng.random() < 0.5, mode=mode)
    data = doubles_of_tree(t) if order == 2 else triples_of_tree(t)
    vals = dict(data.items())
    tol = rng.choice((Fraction(0), Fraction(1, 100))) if mode == "rational" else rng.choice((0.0, 1e-9, 0.01))
    for key in rng.sample(sorted(vals), rng.randint(1, 2)):
        step = rng.choice([tol, 2 * tol, tol / 2, Fraction(1, 7), -tol * 3])
        vals[key] = vals[key] + (float(step) if mode == "float" else Fraction(step))
    return type(data)(vals), tol


# seeds of bumped_data near the verification slack: triple data on 5 labels
# at tol > 0, two of them rational and two float, with the kind and the
# level (or, for the accept, the tree) each reconstruction gives
NEAR_SLACK_SEEDS = {
    127: (
        "accept",
        "(1:1.27185861648,2:9.46445710401,(3:4.67645705839,"
        "(4:3.69607516005,5:7.01499628462):-0.01):9.40776650091);",
    ),
    382: ("no-disjoint-pseudobells", 0),
    890: ("no-disjoint-pseudobells", 0),
    1051: ("no-disjoint-pseudobells", 0),
}


class TestVerification:
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("seed", range(80))
    def test_direct_near_misses(self, seed, order):
        t, d, tol = near_misses(seed)
        if order == 3:
            if d.n < 5:
                return
            # condition 2's fit of the lifted data, as the triple route verifies
            d = derived_pairwise_consistent(triples_from_doubles(d), math.inf)[1]
        record = BaseCaseRecord(t.leaves, d, t, 0, {})
        got = outcome(lambda: reconstruct_mod._verified(d, t, record, [], tol, False))
        assert got == outcome(lambda: verified_loop(d, t, record, [], tol, False))

    @pytest.mark.parametrize("seed", range(6))
    def test_every_mirror_kind(self, seed):
        # each kind's realisable data rebuilds a tree; that tree is then
        # verified against the data, its bumped copy and its jittered copy
        cases = cross_path_cases(seed, 2)
        for first in range(0, len(cases), 3):
            tree, _ = reconstruct_from_doubles(cases[first][1], tol=cases[first][2])
            for name, d, tol in cases[first : first + 3]:
                record = BaseCaseRecord(tree.leaves, d, tree, 0, {})
                got = outcome(lambda: reconstruct_mod._verified(d, tree, record, [], tol, False))
                assert got == outcome(lambda: verified_loop(d, tree, record, [], tol, False)), name

    @pytest.mark.parametrize("seed", list(range(60)) + list(NEAR_SLACK_SEEDS))
    def test_reconstructions_keep_their_outcome(self, seed, monkeypatch):
        data, tol = bumped_data(seed)
        rebuild = reconstruct_from_doubles if data.order == 2 else reconstruct_from_triples
        got = outcome(lambda: rebuild(data, tol=tol))
        assert got[0] != "verification"
        if seed in NEAR_SLACK_SEEDS:
            assert got[:2] == NEAR_SLACK_SEEDS[seed]
        monkeypatch.setattr(reconstruct_mod, "_verified", verified_loop)
        assert got == outcome(lambda: rebuild(data, tol=tol))

    @pytest.mark.parametrize("order", [2, 3])
    def test_a_moved_base_case_fails_verification(self, order, monkeypatch):
        # the levels and the base case read only some entries of d; a base
        # tree with a twig moved past the slack is caught by verification,
        # which names the first pair through the moved leaf
        t = random_tree(9, 3)
        data = doubles_of_tree(t) if order == 2 else triples_of_tree(t)
        rebuild = reconstruct_from_doubles if order == 2 else reconstruct_from_triples
        tol = Fraction(1, 100)
        solve = reconstruct_mod.base_case_doubles
        moved = []

        def moved_base_case(d, tol=0):
            tree = solve(d, tol)
            leaf = min(d.labels)
            moved.append(leaf)
            return WeightedTree([(u, v, w + 1 if leaf in (u, v) else w) for u, v, w in tree.edges])

        monkeypatch.setattr(reconstruct_mod, "base_case_doubles", moved_base_case)
        got = outcome(lambda: rebuild(data, tol=tol))
        leaf = moved[0]
        assert leaf in t.leaves
        first = min(lab for lab in t.leaves if lab != leaf)
        assert (got[0], got[3]) == ("verification", tuple(sorted((first, leaf))))
        monkeypatch.setattr(reconstruct_mod, "_verified", verified_loop)
        assert got == outcome(lambda: rebuild(data, tol=tol))

    def test_accept_builds_no_dict(self):
        d = doubles_of_tree(random_tree(30, 4))
        assert d._dict is None
        reconstruct_from_doubles(d)
        assert d._dict is None


# --------------------------------------------------------------------- #
# Integers past the int-to-string digit limit                            #
# --------------------------------------------------------------------- #

# 4301 digits, the longest integer a weight file may hold; neither str()
# nor int() converts it between text and int
DIGITS = "9" * 4301
BIG = 10**4301 - 1


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestLongIntegers:
    def test_format_number(self):
        assert format_number(BIG) == DIGITS
        assert format_number(-BIG) == "-" + DIGITS
        assert format_number(Fraction(BIG, 2)) == DIGITS + "/2"
        assert format_number(Fraction(-2, BIG)) == "-2/" + DIGITS
        assert format_number(Fraction(-7, 2)) == "-7/2"
        assert format_number(12) == "12"

    def test_check_reports_full_digits(self, tmp_path):
        path = tmp_path / "big.txt"
        lines = ["4"] + [f"{a} {b} {DIGITS if (a, b) == (1, 2) else 5}" for a, b in combinations(range(1, 5), 2)]
        path.write_text("\n".join(lines) + "\n")
        rc, out, err = run_cli(["check", "--order", "2", "--in", str(path)])
        assert (rc, err) == (0, "")
        report = json.loads(out)
        assert report["realizable"] is True
        assert report["four_point"]["gap"] == format_number(BIG - 5)
        assert report["four_point"]["gap"] == "9" * 4300 + "4"

    def test_weights_writes_a_long_weight(self, tmp_path):
        path = tmp_path / "big.nwk"
        path.write_text(f"((1:{DIGITS},2:1):1,3:1,4:2);\n")
        out = tmp_path / "w.txt"
        rc, _, err = run_cli(["weights", "--order", "2", "--in", str(path), "--out", str(out)])
        assert (rc, err) == (0, "")
        assert out.read_text().splitlines()[1] == "1 2 1" + "0" * 4301

    def test_non_positive_warning(self):
        d = DoubleWeights({(1, 2): -BIG, (1, 3): 1, (2, 3): 1})
        assert weights_mod.metric_warnings(d)[0].endswith(format_number(-BIG))


# --------------------------------------------------------------------- #
# check: the four-point scan an accept proves                            #
# --------------------------------------------------------------------- #


def weight_file(tmp_path, tree):
    path = tmp_path / "d.txt"
    path.write_text(emit_doubles(doubles_of_tree(tree)))
    return str(path)


class TestFourPointShortcut:
    def test_negative_inner_edge_still_scanned(self, tmp_path, monkeypatch):
        # accepted, yet the four-point test fails at (1, 2, 3, 4) with gap 2
        tree = WeightedTree([(1, 5, 5), (2, 5, 5), (5, 6, -1), (3, 6, 5), (4, 6, 5)])
        path = weight_file(tmp_path, tree)
        calls = []
        scan = weights_mod.buneman_check
        monkeypatch.setattr(weights_mod, "buneman_check", lambda *a: calls.append(a) or scan(*a))
        rc, out, _ = run_cli(["check", "--order", "2", "--in", path])
        report = json.loads(out)
        assert rc == 0 and report["realizable"] is True
        assert report["four_point"] == {"passed": False, "witness": [1, 2, 3, 4], "gap": "2"}
        assert len(calls) == 1

    def test_exact_accept_skips_the_scan(self, tmp_path, monkeypatch):
        path = weight_file(tmp_path, random_tree(14, 5, binary_only=False))
        rc, expected, _ = run_cli(["check", "--order", "2", "--in", path])

        def refuse(*args):
            raise AssertionError("buneman_check called on a proven accept")

        monkeypatch.setattr(weights_mod, "buneman_check", refuse)
        assert run_cli(["check", "--order", "2", "--in", path]) == (0, expected, "")
        assert json.loads(expected)["four_point"] == {"passed": True, "witness": None, "gap": 0}

    @pytest.mark.parametrize("argv", [["--tol", "1/100"], ["--mode", "float", "--tol", "1e-9"]])
    def test_scan_runs_off_the_exact_tol0_case(self, tmp_path, monkeypatch, argv):
        path = weight_file(tmp_path, random_tree(10, 2))
        calls = []
        scan = weights_mod.buneman_check
        monkeypatch.setattr(weights_mod, "buneman_check", lambda *a: calls.append(a) or scan(*a))
        rc, _, _ = run_cli(["check", "--order", "2", "--in", path] + argv)
        assert rc == 0 and len(calls) == 1
