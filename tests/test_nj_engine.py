"""The array-resident NJ engine against the dict loops it replaced.

Classic, pruning and triple NJ carry one dense mirror from join to join;
``tests/reference_loops.py`` keeps the container-per-join loops.  On exact
data the trees must be byte-identical (Newick), on float data bitwise, on
every mirror the engine can carry: int64, ``object`` Python ints past the
int64 headroom, the values' own Fractions past the scale cap, and float64.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    DoubleWeights,
    ReconstructionError,
    WeightedTree,
    doubles_of_tree,
    nj_classic,
    nj_from_triples,
    nj_pruning,
    random_tree,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    to_newick,
    tree_equal,
    triples_from_doubles,
    triples_of_tree,
)
from treeweights import nj as nj_mod
from treeweights.weights import _DENSE_MAG_CAP, _DENSE_SCALE_BITS, holds_fractions
from conftest import cross_path_cases
from reference_loops import (
    nj_classic_loop,
    nj_from_triples_loop,
    nj_from_triples_walk,
    nj_pruning_loop,
    scan_pure,
)
from test_mirror_dtypes import _own_denominators

SHAPES = ["binary", "multifurcating", "negative", "zero", "star", "symmetric-star", "jitter",
          "non-tree"]


def pair_case(seed, n, shape, mode="rational"):
    """Pair data on labels 1..n: path sums of a binary, multifurcating,
    negative-edge or zero-inner-edge tree, of a star (twigs 1 and 2, or all
    equal, where every S entry ties), of a multifurcating tree with every
    entry moved by at most 1/40 (bells confirm within eps 1/3, and their
    means leave the units), or a random non-tree set."""
    rng = random.Random(seed)
    labels = range(1, n + 1)
    if shape == "non-tree":
        if mode == "float":
            return DoubleWeights(
                {p: rng.uniform(-5, 20) for p in itertools.combinations(labels, 2)}
            )
        return DoubleWeights({
            p: Fraction(rng.randint(-50, 200), rng.choice((1, 2, 3, 7)))
            for p in itertools.combinations(labels, 2)
        })
    if shape in ("star", "symmetric-star"):
        one = 1.0 if mode == "float" else Fraction(1)
        edges = [(i, n + 1, one * (1 if shape == "symmetric-star" else 1 + i % 2)) for i in labels]
        return doubles_of_tree(WeightedTree(edges))
    low = -3 if shape == "negative" else 1
    binary = shape not in ("multifurcating", "jitter")
    t = random_tree(n, seed, low, 10, binary_only=binary, mode=mode)
    if shape == "jitter":
        step = 0.025 if mode == "float" else Fraction(1, 40)
        return DoubleWeights(
            {k: v + step * rng.choice((-1, 0, 1)) for k, v in doubles_of_tree(t).items()}
        )
    if shape == "zero":
        leaves = set(t.leaves)
        t = WeightedTree([
            (u, v, 0 * w if u not in leaves and v not in leaves and rng.random() < 0.5 else w)
            for u, v, w in t.edges
        ])
    return doubles_of_tree(t)


def newicks(d, eps):
    """(classic, pruning, triple) Newick strings of the engine and the loops."""
    got = [to_newick(nj_classic(d)), to_newick(nj_pruning(d, eps))]
    ref = [to_newick(nj_classic_loop(d)), to_newick(nj_pruning_loop(d, eps)[0])]
    if d.n >= 5:
        t = triples_from_doubles(d)
        got.append(to_newick(nj_from_triples(t, eps)))
        ref.append(to_newick(nj_from_triples_walk(t, eps)))
    return got, ref


def scaled(d, factor):
    return DoubleWeights({k: v * factor for k, v in d.items()}, labels=d.labels)


def watch_mirrors(monkeypatch):
    """Check every mirror the engine carries (``_Mirror._set``) or settles
    (``_Mirror.settle``, a pruned level's): an ``object`` mirror holds no
    numpy scalar (one would carry int64 arithmetic into its sums), and an
    int64 mirror's units stay under ``_DENSE_MAG_CAP``, the headroom every
    kernel relies on.  Returns the list of the mirrors' max |element|,
    filled as the engine runs."""
    top = []

    def check(state):
        if state.arr.dtype == object:
            assert not any(isinstance(x, np.generic) for x in state.arr.flat)
        top.append(abs(state.arr).max())
        if state.arr.dtype == np.int64:
            assert top[-1] < _DENSE_MAG_CAP

    for name in ("_set", "settle"):
        step = getattr(nj_mod._Mirror, name)

        def checked(state, *args, step=step):
            step(state, *args)
            check(state)

        monkeypatch.setattr(nj_mod._Mirror, name, checked)
    return top


class TestExactDataMatchesTheLoops:
    @given(st.integers(0, 10**6), st.integers(3, 14), st.sampled_from(SHAPES),
           st.sampled_from([0, Fraction(1, 3)]))
    @settings(max_examples=80, deadline=None)
    def test_byte_identical(self, seed, n, shape, eps):
        got, ref = newicks(pair_case(seed, n, shape), eps)
        assert got == ref

    @pytest.mark.parametrize("seed", range(4))
    def test_bell_means_that_leave_the_units(self, seed):
        # jittered bells confirm within eps, and their means raise the scale
        got, ref = newicks(pair_case(seed, 10, "jitter"), Fraction(1, 3))
        assert got == ref

    @given(st.integers(0, 10**6), st.integers(5, 12), st.sampled_from(SHAPES))
    @settings(max_examples=25, deadline=None)
    def test_object_ints_past_the_headroom(self, seed, n, shape):
        # a prime denominator near 2**61 puts the scaled magnitudes past 2**55
        d = scaled(pair_case(seed, n, shape), Fraction(2**61 + 1, 2**61 - 1))
        kind, arr, _ = d.dense()
        assert kind == "int" and arr.dtype == object and not holds_fractions(arr)
        got, ref = newicks(d, 0)
        assert got == ref

    def test_int64_mirror_moves_to_object_ints_mid_run(self, monkeypatch):
        # units a doubling or two under the headroom: the first odd half
        # doubles the scale, and the mirror has to leave int64
        d = pair_case(3, 12, "non-tree")
        top = int(np.abs(d.dense()[1]).max())
        d = scaled(d, (_DENSE_MAG_CAP // (8 * d.n * top)) | 1)
        state = nj_mod._Mirror(d)
        assert state.arr.dtype == np.int64
        watch_mirrors(monkeypatch)
        nj_mod._join_down(state, 2)
        assert state.arr.dtype == object
        got, ref = newicks(d, 0)
        assert got == ref

    def test_object_units_past_int64_after_the_widening(self, monkeypatch):
        # a tree moved by one unit per entry, 5 n max|unit| under the
        # headroom: odd halves keep doubling the scale while the magnitudes
        # hold, so the object mirror's units pass 2**63
        d = pair_case(5, 40, "multifurcating")
        top = int(np.abs(d.dense()[1]).max())
        d = scaled(d, (_DENSE_MAG_CAP // (5 * d.n * top)) | 1)
        unit = Fraction(1, d.dense()[2])
        rng = random.Random(5)
        d = DoubleWeights({k: v + unit * rng.choice((-1, 0, 1)) for k, v in d.items()})
        assert d.dense()[1].dtype == np.int64
        top = watch_mirrors(monkeypatch)
        got = to_newick(nj_classic(d))
        assert max(top) >= 2**63
        assert got == to_newick(nj_classic_loop(d))

    @pytest.mark.parametrize("seed, tree", [(1, True), (2, False), (3, True)])
    def test_fraction_mirror_of_coprime_denominators(self, seed, tree):
        d = _own_denominators(2, 8, seed, _DENSE_SCALE_BITS // 20, tree)
        assert holds_fractions(d.dense()[1])
        for eps in (0, Fraction(1, 3)):
            got, ref = newicks(d, eps)
            assert got == ref, eps


class TestFloatDataMatchesTheLoops:
    @given(st.integers(0, 10**6), st.integers(3, 14), st.sampled_from(SHAPES),
           st.sampled_from([0.0, 1e-5, 0.3]), st.floats(0, 1e-3))
    @settings(max_examples=80, deadline=None)
    def test_bitwise(self, seed, n, shape, eps, noise):
        d = pair_case(seed, n, shape, mode="float")
        rng = random.Random(seed)
        d = DoubleWeights({k: v + rng.uniform(-noise, noise) for k, v in d.items()})
        got, ref = newicks(d, eps)
        assert got == ref


    def test_s_ties_break_as_the_loops_do(self):
        # zero inner edges tie S exactly at rows 2, 3 and 8 of column 7 (and
        # nearly in columns 8 and 9); row sums added by numpy's pairwise
        # summation along axis 1 broke the ties at rows 3, 3 and 3 instead
        # of the loop's 2, 9 and 8, and pruning NJ joined other bells
        d = pair_case(387, 9, "zero", mode="float")
        fields = [(r.column, r.row, r.minimum, r.spread, r.confirmed)
                  for r in nj_mod.cherry_scan(d, 0.0).records]
        assert fields == [(r.column, r.row, r.minimum, r.spread, r.confirmed)
                          for r in scan_pure(d, 0.0)]
        assert [f[:2] for f in fields[6:]] == [(7, 2), (8, 9), (9, 8)]
        assert to_newick(nj_pruning(d, 0.0)) == to_newick(nj_pruning_loop(d, 0.0)[0])


class TestFloatTripleNJ:
    def test_one_spread_kernel_per_round(self, monkeypatch):
        # rounding leaves no star spread at exactly 0, so at eps 0 no
        # candidate confirms; the walk tests all of them one by one, the
        # engine takes every spread from one kernel call per round
        t = triples_of_tree(random_tree(40, 1, mode="float"))
        ref = to_newick(nj_from_triples_walk(t, 0.0))
        calls = []
        windows = nj_mod._star_windows

        def counted(*args):
            calls.append(args)
            return windows(*args)

        monkeypatch.setattr(nj_mod, "_star_windows", counted)
        assert to_newick(nj_from_triples(t, 0.0)) == ref
        assert len(calls) <= t.n - 5

    def test_exact_lift_confirms_without_the_kernel(self, monkeypatch):
        # on a lift the first S-minimum is a cherry: its own window confirms
        t = triples_of_tree(random_tree(40, 1))
        ref = to_newick(nj_from_triples_walk(t, 0))
        monkeypatch.setattr(nj_mod, "_star_windows", None)
        assert to_newick(nj_from_triples(t, 0)) == ref


def _mirror(name):
    """A pair set on the named mirror, and whether a dense array is one."""
    base = pair_case(7, 9, "binary")
    return {
        "int64": (base, lambda a: a.dtype == np.int64),
        "object": (scaled(base, Fraction(2**61 + 1, 2**61 - 1)),
                   lambda a: a.dtype == object and not holds_fractions(a)),
        "fractions": (_own_denominators(2, 9, 7, _DENSE_SCALE_BITS // 20), holds_fractions),
        "float64": (pair_case(7, 9, "binary", mode="float"), lambda a: a.dtype == np.float64),
    }[name]


class TestNoNumpyScalarsInTrees:
    @pytest.mark.parametrize("name", ["int64", "object", "fractions", "float64"])
    def test_edge_weights_are_python_numbers(self, name):
        d, is_mirror = _mirror(name)
        assert is_mirror(d.dense()[1])
        exact = name != "float64"
        eps = 0 if exact else 0.0
        trees = [nj_classic(d), nj_pruning(d, eps), nj_from_triples(triples_from_doubles(d), eps)]
        allowed = {Fraction, int} if exact else {float}
        for tree in trees:
            assert {type(w) for _, _, w in tree.edges} <= allowed


def noisy_float(n, seed, noise=1e-7):
    """Float path sums of a binary tree, each moved by at most *noise*."""
    d = doubles_of_tree(random_tree(n, seed, mode="float"))
    rng = random.Random(seed)
    return DoubleWeights({k: v + rng.uniform(-noise, noise) for k, v in d.items()})


def assert_rounds_match(d, eps):
    """nj_pruning_detailed against nj_pruning_loop: the same Newick, the
    same rounds (size, bells, fallback, cost) and every edge weight the
    same value of the same type, bit for bit on floats.  Returns the
    rounds."""
    tree, rounds = nj_mod.nj_pruning_detailed(d, eps)
    ref, ref_rounds = nj_pruning_loop(d, eps)
    assert to_newick(tree) == to_newick(ref)
    assert rounds == ref_rounds

    def bits(edges):
        return [(u, v, type(w), w.hex() if isinstance(w, float) else w) for u, v, w in edges]

    assert bits(tree.edges) == bits(ref.edges)
    return rounds


class TestPruningAtBenchmarkSizes:
    """Many rounds per call, at the sizes the benchmark's NJ operations
    run; the tests above stop where a call runs two or three rounds."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_float_n80_noisy_within_eps(self, seed):
        rounds = assert_rounds_match(noisy_float(80, seed), 1e-5)
        assert len(rounds) > 10 and not any(r["fallback"] for r in rounds[:-1])
        # the scan's records, when read, are still the reference scan's
        d = noisy_float(80, seed)
        fields = [(r.column, r.row, r.minimum, r.spread, r.confirmed)
                  for r in nj_mod.cherry_scan(d, 1e-5).records]
        assert fields == [(r.column, r.row, r.minimum, r.spread, r.confirmed)
                          for r in scan_pure(d, 1e-5)]

    @pytest.mark.parametrize("seed, binary", [(1, True), (2, False)])
    def test_exact_n48(self, seed, binary):
        rounds = assert_rounds_match(doubles_of_tree(random_tree(48, seed, binary_only=binary)), 0)
        assert len(rounds) > 5

    def test_rounds_mixing_survivors_and_bells_of_every_size(self):
        # a round whose bells have 2, 3 and 4 or more members next to
        # survivors: each member position reaches a different count of groups
        mixed = 0
        for seed, n in [(2, 60), (4, 40), (5, 60), (6, 40)]:
            rounds = assert_rounds_match(doubles_of_tree(random_tree(n, seed, binary_only=False)), 0)
            for r in rounds:
                sizes = {len(b) for b in r["bells"]}
                owned = sum(len(b) for b in r["bells"])
                mixed += {2, 3} <= sizes and max(sizes) >= 4 and owned < r["size"]
        assert mixed >= 4

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_mixed_bells_whose_means_leave_the_units(self, seed):
        rounds = assert_rounds_match(pair_case(seed, 40, "jitter"), Fraction(1, 3))
        assert any(len({len(b) for b in r["bells"]}) > 1 for r in rounds)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_one_large_bell_beside_many_cherries(self, mode):
        # a 60-leaf star and 30 cherries on one center: the first round
        # merges a bell of 60 members beside 30 of 2, which must cost about
        # m^2 element operations, not (bells x largest bell)^2
        rng = random.Random(7)

        def w():
            return rng.randint(1, 9) if mode == "rational" else rng.uniform(0.5, 3.0)

        n, center = 120, 121
        edges = [(k, center, w()) for k in range(1, 61)]
        for h in range(30):
            z, a = 122 + h, 61 + 2 * h
            edges += [(center, z, w()), (a, z, w()), (a + 1, z, w())]
        d = doubles_of_tree(WeightedTree(edges))
        eps = 1e-9 if mode == "float" else 0
        peaks = []
        merge = nj_mod._merge_bells

        def measured(state, bells):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = merge(state, bells)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(nj_mod, "_merge_bells", measured)
                rounds = assert_rounds_match(d, eps)
        finally:
            tracemalloc.stop()
        assert sorted(len(b) for b in rounds[0]["bells"]) == [2] * 30 + [60]
        # a few copies of the 120 x 120 mirror; a padded 31 x 31 x 60 x 60
        # member table alone would take 27 MB
        assert max(peaks) < 16 * n * n * 8

    def test_object_int_mirror(self):
        d = scaled(doubles_of_tree(random_tree(48, 5, binary_only=False)),
                   Fraction(2**61 + 1, 2**61 - 1))
        kind, arr, _ = d.dense()
        assert arr.dtype == object and not holds_fractions(arr)
        assert_rounds_match(d, 0)

    @pytest.mark.parametrize("tree", [True, False])
    def test_fraction_mirror(self, tree):
        d = _own_denominators(2, 16, 6, _DENSE_SCALE_BITS // 20, tree)
        assert holds_fractions(d.dense()[1])
        assert_rounds_match(d, Fraction(1, 3))

    def test_every_round_falls_back(self):
        # rounding leaves no star spread at exactly 0
        rounds = assert_rounds_match(doubles_of_tree(random_tree(40, 4, mode="float")), 0.0)
        assert len(rounds) == 38 and all(r["fallback"] for r in rounds)


class TestPruningRoundCost:
    def test_one_selection_per_round(self, monkeypatch):
        # a fallback round joins on the S its failed scan already took
        d = doubles_of_tree(random_tree(40, 4, mode="float"))
        ref = to_newick(nj_pruning_loop(d, 0.0)[0])
        calls = []
        selection = nj_mod._selection

        def counted(state):
            calls.append(state.n)
            return selection(state)

        monkeypatch.setattr(nj_mod, "_selection", counted)
        tree, rounds = nj_mod.nj_pruning_detailed(d, 0.0)
        assert to_newick(tree) == ref
        assert all(r["fallback"] for r in rounds)
        assert calls == [r["size"] for r in rounds]

    def test_the_driver_builds_no_scan_records(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a ScanRecord was built")

        d = noisy_float(40, 3)
        ref = to_newick(nj_pruning(d, 1e-5))
        monkeypatch.setattr(nj_mod, "ScanRecord", refused)
        assert to_newick(nj_pruning(d, 1e-5)) == ref
        with pytest.raises(AssertionError, match="ScanRecord"):
            nj_mod.cherry_scan(d, 1e-5).records

    def test_exact_bell_means_import_no_numpy_ma(self):
        # the bell-mean rescale once took its LCM through np.unique, which
        # imports numpy.ma (some 1.6 MB) in numpy 2; where numpy itself
        # loads numpy.ma at import, the run must only add nothing
        script = textwrap.dedent("""
            import random, sys
            from fractions import Fraction
            from treeweights import DoubleWeights, doubles_of_tree, nj, random_tree, weights

            factors = []
            rescale = weights._Mirror.rescale

            def recorded(state, factor):
                factors.append(factor)
                rescale(state, factor)

            weights._Mirror.rescale = recorded
            rng = random.Random(0)
            d = doubles_of_tree(random_tree(12, 0, binary_only=False))
            d = DoubleWeights({k: v + Fraction(rng.choice((-1, 0, 1)), 40) for k, v in d.items()})
            before = "numpy.ma" in sys.modules
            nj.nj_pruning(d, Fraction(1, 3))
            print(before, "numpy.ma" in sys.modules, max(factors))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        before, after, factor = done.stdout.split()
        assert int(factor) > 2  # a mean over 2 x 4 members left the units
        assert after == before


def edge_list(tree):
    """A tree's edges in order: labels, each weight's Python type, and its
    value (a float by its hex form, so bit for bit)."""
    return [
        (u, v, type(w), w.hex() if isinstance(w, float) else w) for u, v, w in tree.edges
    ]


class TestJoinTwigsInUnits:
    """A join takes its twigs in the mirror's units and makes each one a
    Python number once; the trees stay the loops', edge by edge."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_mirror_kind_matches_the_loops(self, seed):
        for name, d, tol in cross_path_cases(seed, 2):
            exact = not name.startswith("float64")
            got = edge_list(nj_classic(d))
            assert got == edge_list(nj_classic_loop(d)), name
            for eps in (0, tol):
                got = edge_list(nj_pruning(d, eps))
                assert got == edge_list(nj_pruning_loop(d, eps)[0]), (name, eps)
            t = triples_from_doubles(d)
            for eps in (0, tol):
                got = edge_list(nj_from_triples(t, eps))
                assert got == edge_list(nj_from_triples_walk(t, eps)), (name, eps)
                if exact:
                    # an exact lift joins as the triple-space loop does
                    assert got == edge_list(nj_from_triples_loop(t, eps)), (name, eps)

    @pytest.mark.parametrize("widen", [1, Fraction(2**61 + 1, 2**61 - 1)])
    def test_odd_halves_rescale_the_mirror_mid_run(self, monkeypatch, widen):
        # whole-number values of no tree: a new row -d_ij + d_iy + d_jy is
        # often odd, so the mirror doubles its scale between joins
        rng = random.Random(11)
        d = DoubleWeights({
            p: widen * rng.randint(-20, 60) for p in itertools.combinations(range(1, 13), 2)
        })
        state = nj_mod._Mirror(d)
        first = state.scale
        ref = edge_list(nj_classic_loop(d))
        scales = []
        join = nj_mod._classic_join

        def recorded(state, *args):
            scales.append(state.scale)
            return join(state, *args)

        monkeypatch.setattr(nj_mod, "_classic_join", recorded)
        merges = nj_mod._join_down(state, 2)
        assert scales[0] == first and len(set(scales)) > 2
        assert (state.arr.dtype == np.int64) == (widen == 1)
        assert edge_list(nj_classic(d)) == ref
        assert {type(tw) for _, members in merges for _, tw in members} == {Fraction}

    @pytest.mark.parametrize(
        "name, factor", [("int64", 1), ("object", Fraction(2**61 + 1, 2**61 - 1))]
    )
    def test_two_fractions_per_join(self, monkeypatch, name, factor):
        # the join's two twigs, and no Fraction on the way to them
        state = nj_mod._Mirror(scaled(doubles_of_tree(random_tree(24, 3)), factor))
        assert _mirror(name)[1](state.arr)
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        merges = nj_mod._join_down(state, 2)
        monkeypatch.undo()
        assert len(merges) == 22
        assert len(made) == 2 * len(merges)


def _decided(decide, w, tol):
    """The tree *decide* gives *w* at *tol*, or the kind of its refusal."""
    try:
        return decide(w, tol)[0]
    except ReconstructionError as err:
        return err.kind


def _same_decision(got, want):
    assert type(got) is type(want)
    assert got == want if isinstance(want, str) else tree_equal(got, want, 0)


def near_the_cap(seed, n, shape, room, step):
    """Pair data as whole units (scale 1), the units of ``pair_case`` times
    an odd k (so odd sums stay odd, and their halves leave the units): the
    odd k at or below K + *step*, K the largest k for which k times the
    largest unit times *room* stays within ``_DENSE_MAG_CAP``.  At room 4 n
    the first selection keeps an int64 mirror at step -1 and 0 and widens
    it at +2; at room 1 and step -1 the data is int64 just under the cap,
    and the first selection widens it.  Returns (data, k)."""
    d = pair_case(seed, n, shape)
    _, arr, scale = d.dense()
    top = int(np.abs(arr).max())
    k = _DENSE_MAG_CAP // (room * top) + step
    k -= 1 - k % 2
    return scaled(d, scale * k), k


class TestInt64Headroom:
    """Each step widens for the units it makes, so a carried int64 mirror
    keeps every unit under ``_DENSE_MAG_CAP`` with no scan after the step
    (:func:`watch_mirrors` checks each mirror carried or settled)."""

    @staticmethod
    def run_all(d, tol):
        """Classic, pruning (eps 0 and *tol*) and triple NJ against the
        loops, and both reconstructions: (pair verdict, triple verdict)."""
        got, ref = newicks(d, 0)
        assert got == ref
        assert to_newick(nj_pruning(d, tol)) == to_newick(nj_pruning_loop(d, tol)[0])
        t = triples_from_doubles(d)
        assert to_newick(nj_from_triples(t, tol)) == to_newick(nj_from_triples_walk(t, tol))
        return _decided(reconstruct_from_doubles, d, tol), _decided(reconstruct_from_triples, t, tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_cross_path_kind(self, monkeypatch, seed):
        watch_mirrors(monkeypatch)
        for _, w, tol in cross_path_cases(seed, 2):
            self.run_all(w, tol)
        for _, t, tol in cross_path_cases(seed, 3):
            assert to_newick(nj_from_triples(t, tol)) == to_newick(nj_from_triples_walk(t, tol))
            _decided(reconstruct_from_triples, t, tol)

    @pytest.mark.parametrize("shape", ["binary", "multifurcating", "negative", "jitter", "non-tree"])
    @pytest.mark.parametrize("room, step", [(44, -1), (44, 0), (44, 2), (1, -1)])
    def test_units_within_4m_of_the_cap(self, monkeypatch, shape, room, step):
        base = pair_case(6, 11, shape)
        d, k = near_the_cap(6, 11, shape, room, step)
        assert d.dense()[1].dtype == np.int64
        factor = k * base.dense()[2]  # d is base times factor
        top = watch_mirrors(monkeypatch)
        tol = Fraction(1, 3) if shape == "jitter" else 0
        got = self.run_all(d, tol * factor)
        assert max(top) >= _DENSE_MAG_CAP // 64
        # the same decisions as the unscaled data, on the scaled trees
        monkeypatch.undo()
        for g, w in zip(got, self.run_all(base, tol)):
            if not isinstance(w, str):
                w = WeightedTree([(u, v, x * factor) for u, v, x in w.edges])
            _same_decision(g, w)

    def test_a_new_row_past_the_largest_unit(self, monkeypatch):
        # a cherry of twigs -1 puts its stalk one unit further from leaf 4
        # than leaf 1 is: the joined mirror's row reaches the cap, so the
        # selection before the join must have widened the int64 mirror
        cap = _DENSE_MAG_CAP
        t = WeightedTree([(1, 5, -1), (2, 5, -1), (5, 6, cap - 2), (3, 6, 1), (4, 6, 2)])
        d = doubles_of_tree(t)
        assert d.dense()[1].dtype == np.int64 and d.value(1, 4) == cap - 1
        top = watch_mirrors(monkeypatch)
        for nj in (nj_classic, nj_pruning):
            assert tree_equal(nj(d), t, 0)
        assert max(top) == cap

    def test_one_widen_per_classic_join(self, monkeypatch):
        calls = []
        widen = nj_mod._Mirror.widen

        def counted(state, *args):
            calls.append(args)
            return widen(state, *args)

        monkeypatch.setattr(nj_mod._Mirror, "widen", counted)
        for seed in range(1, 13):
            nj_classic(doubles_of_tree(random_tree(24, seed)))
        assert len(calls) == 12 * 22
