"""Neighbor joining variants and the S-matrix selection criteria."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    DoubleWeights,
    InstanceTooSmallError,
    TripleWeights,
    WeightedTree,
    cherries,
    cherry_pair_set,
    cherry_scan,
    derived_pairwise_consistent,
    doubles_of_tree,
    group_bells,
    nj_classic,
    nj_from_triples,
    nj_pruning,
    nj_pruning_detailed,
    random_tree,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    s_matrix,
    s_matrix_triples,
    to_newick,
    tree_equal,
    triples_from_doubles,
    triples_of_tree,
)
from conftest import CROSS_PATH_SEEDS, cross_path_cases
from reference_loops import nj_from_triples_loop, s_matrix_triples_loop, scan_pure


def balanced_tree(depth):
    """Perfect binary tree with 2**(depth+1) leaves and unit weights."""
    edges = []
    counter = [2 ** (depth + 1) + 1]
    leaf = itertools.count(1)

    def grow(d):
        if d == 0:
            return next(leaf)
        left, right = grow(d - 1), grow(d - 1)
        me = counter[0]
        counter[0] += 1
        edges.append((left, me, Fraction(1)))
        edges.append((right, me, Fraction(1)))
        return me

    a, b = grow(depth), grow(depth)
    edges.append((a, b, Fraction(1)))
    return WeightedTree(edges)


class TestSMatrix:
    def test_quartet_entries(self, quartet_doubles):
        S = s_matrix(quartet_doubles)
        assert S.value(1, 2) == -40
        assert S.value(3, 4) == -40
        for pair in [(1, 3), (1, 4), (2, 3), (2, 4)]:
            assert S.value(*pair) == -30

    def test_all_equal_distances(self):
        d = DoubleWeights(
            {p: 6 for p in itertools.combinations(range(1, 6), 2)},
            labels=range(1, 6),
        )
        assert len(set(s_matrix(d).entries.values())) == 1

    def test_size_gate(self):
        with pytest.raises(InstanceTooSmallError):
            s_matrix(DoubleWeights({(1, 2): 1}))

    @pytest.mark.parametrize("seed", range(8))
    def test_argmin_is_a_cherry(self, seed):
        t = random_tree(5 + seed, seed, Fraction(1, 4), 8, binary_only=seed % 2 == 0)
        S = s_matrix(doubles_of_tree(t))
        assert S.argmin_pair() in cherry_pair_set(t)

    @pytest.mark.parametrize("seed", range(6))
    def test_cherry_row_minimality_lemma(self, seed):
        # for a cherry pair (i, j): S[i, k] - S[i, j] >= 0 for every k,
        # with equality exactly when k shares the bell
        t = random_tree(6, seed, 1, 9, binary_only=seed % 2 == 0)
        d = doubles_of_tree(t)
        S = s_matrix(d)
        for bell in cherries(t):
            for i, j in bell.pairs():
                for k in d.labels:
                    if k in (i, j):
                        continue
                    gap = S.value(i, k) - S.value(i, j)
                    if k in bell.members:
                        assert gap == 0
                    else:
                        assert gap > 0


class TestNJClassic:
    def test_quartet(self, quartet_doubles, quartet):
        assert tree_equal(nj_classic(quartet_doubles), quartet, 0)

    def test_three_points(self):
        d = DoubleWeights({(1, 2): 3, (1, 3): 4, (2, 3): 5})
        tree = nj_classic(d)
        assert sorted(w for _, _, w in tree.edges) == [1, 2, 3]

    def test_two_points(self):
        assert nj_classic(DoubleWeights({(1, 2): 5})).edges == ((1, 2, 5),)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_n15(self, seed):
        t = random_tree(15, seed)
        assert tree_equal(nj_classic(doubles_of_tree(t)), t, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_multifurcating_round_trip(self, seed):
        t = random_tree(11, seed + 60, binary_only=False)
        assert tree_equal(nj_classic(doubles_of_tree(t)), t, 0)

    def test_total_on_nonadditive_data(self):
        d = DoubleWeights(
            {p: 1 + (p[0] * p[1]) % 5 for p in itertools.combinations(range(1, 7), 2)},
            labels=range(1, 7),
        )
        tree = nj_classic(d)  # no exception; some tree comes back
        assert tree.leaves == tuple(range(1, 7))


class TestCherryScan:
    def test_quartet(self, quartet_doubles):
        scan = cherry_scan(quartet_doubles, 0)
        assert scan.pairs == [(1, 2), (3, 4)]
        assert len(scan.records) == 4
        assert all(r.confirmed for r in scan.records)

    def test_caterpillar(self, cat_doubles):
        assert cherry_scan(cat_doubles, 0).pairs == [(1, 2), (4, 5)]

    def test_entries_examined_formula(self, quartet_doubles):
        m = 4
        scan = cherry_scan(quartet_doubles, 0)
        assert scan.entries_examined == m * (m - 1) // 2 + m * (m - 1) + m * (m - 2)

    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(-1, 2)])
    def test_perturbed_quartet_with_epsilon(self, quartet_doubles, delta):
        vals = dict(quartet_doubles.items())
        vals[(1, 3)] = vals[(1, 3)] + delta
        scan = cherry_scan(DoubleWeights(vals), eps=2 * abs(delta))
        assert scan.pairs == [(1, 2), (3, 4)]

    def test_epsilon_zero_rejects_perturbed(self, quartet_doubles):
        vals = dict(quartet_doubles.items())
        vals[(1, 3)] = vals[(1, 3)] + Fraction(1, 2)
        scan = cherry_scan(DoubleWeights(vals), eps=0)
        assert (1, 2) not in scan.pairs or (3, 4) not in scan.pairs

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bells_exactly(self, seed):
        t = random_tree(9 + seed, seed, binary_only=seed % 2 == 0)
        scan = cherry_scan(doubles_of_tree(t), 0)
        assert set(scan.pairs) <= cherry_pair_set(t)
        # every bell is represented by at least one confirmed pair
        found = {frozenset(p) for p in scan.pairs}
        for bell in cherries(t):
            assert any(set(pair) <= set(bell.members) for pair in found)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_and_pure_paths_agree(self, seed):
        d = doubles_of_tree(random_tree(12, seed))
        fast = cherry_scan(d, 0).records
        slow = scan_pure(d, 0)
        assert [(r.column, r.row, r.minimum, r.spread, r.confirmed) for r in fast] == [
            (r.column, r.row, r.minimum, r.spread, r.confirmed) for r in slow
        ]

    @pytest.mark.parametrize("seed", CROSS_PATH_SEEDS)
    def test_kernel_matches_loop_on_exact_mirrors(self, seed):
        # int64, wide-scale and object mirrors, at eps 0 and the case's
        # tolerance (float S sums round in another order than the loop's)
        for name, d, tol in cross_path_cases(seed, 2):
            if name.startswith("float64"):
                continue
            for eps in (0, tol):
                fast = cherry_scan(d, eps).records
                slow = scan_pure(d, eps)
                assert [
                    (r.column, r.row, r.minimum, r.spread, r.confirmed) for r in fast
                ] == [
                    (r.column, r.row, r.minimum, r.spread, r.confirmed) for r in slow
                ], (name, eps)

    def test_kernel_matches_loop_on_float_mirrors(self):
        # the kernel sums S's rows in another order than the loop, so the
        # column minima agree to a relative REL; a row (and with it the
        # spread and the flag) must agree wherever the loop's runner-up in
        # that column lies more than REL above its minimum
        rel = 1e-12
        decided = 0
        for seed in CROSS_PATH_SEEDS:
            for name, d, tol in cross_path_cases(seed, 2):
                if not name.startswith("float64"):
                    continue
                S = s_matrix(d)
                for eps in (0.0, tol):
                    fast = cherry_scan(d, eps).records
                    for f, s in zip(fast, scan_pure(d, eps), strict=True):
                        assert f.column == s.column
                        assert abs(f.minimum - s.minimum) <= rel * abs(s.minimum), (name, s)
                        runner_up = min(
                            S.value(i, s.column) for i in d.labels if i not in (s.row, s.column)
                        )
                        if runner_up - s.minimum > rel * abs(s.minimum):
                            decided += 1
                            assert (f.row, f.spread, f.confirmed) == (
                                s.row, s.spread, s.confirmed
                            ), (name, seed, eps, s.column)
        assert decided > 0

    def test_size_gate(self):
        with pytest.raises(InstanceTooSmallError):
            cherry_scan(DoubleWeights({(1, 2): 1, (1, 3): 1, (2, 3): 1}), 0)

    def test_group_bells(self):
        assert group_bells([(1, 2), (1, 3), (4, 5)]) == [(1, 2, 3), (4, 5)]
        assert group_bells([]) == []


class TestNJPruning:
    def test_quartet_single_round(self, quartet_doubles, quartet):
        tree, rounds = nj_pruning_detailed(quartet_doubles, 0)
        assert tree_equal(tree, quartet, 0)
        scans = [r for r in rounds if not r["fallback"]]
        assert len(scans) == 1
        assert sorted(map(tuple, scans[0]["bells"])) == [(1, 2), (3, 4)]

    def test_balanced_16_all_cherries_each_round(self):
        t = balanced_tree(3)
        assert t.n == 16
        tree, rounds = nj_pruning_detailed(doubles_of_tree(t), 0)
        assert tree_equal(tree, t, 0)
        merged = [r for r in rounds if not r["fallback"]]
        assert [len(r["bells"]) for r in merged] == [8, 4, 2]

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_classic_and_reconstruct(self, seed):
        t = random_tree(30, seed)
        d = doubles_of_tree(t)
        classic = nj_classic(d)
        pruned = nj_pruning(d, 0)
        rebuilt, _ = reconstruct_from_doubles(d)
        assert tree_equal(classic, pruned, 0)
        assert tree_equal(pruned, rebuilt, 0)
        assert tree_equal(classic, t, 0)

    def test_star_terminates(self):
        star = WeightedTree([(i, 20, Fraction(i)) for i in range(1, 9)])
        assert tree_equal(nj_pruning(doubles_of_tree(star), 0), star, 0)

    def test_fallback_on_noise(self, quartet_doubles):
        vals = {k: float(v) for k, v in quartet_doubles.items()}
        vals[(1, 3)] += 0.7
        tree, rounds = nj_pruning_detailed(DoubleWeights(vals), eps=0.0)
        assert tree.leaves == (1, 2, 3, 4)
        assert any(r["fallback"] for r in rounds)


class TestSMatrixTriples:
    def test_caterpillar_separation(self, cat_triples):
        S = s_matrix_triples(cat_triples)
        assert S.value(4, 5) == -162
        assert S.value(1, 2) == Fraction(-323, 2)
        cherry = {(1, 2), (4, 5)}
        worst_cherry = max(S.value(*p) for p in cherry)
        best_other = min(v for p, v in S.entries.items() if p not in cherry)
        assert worst_cherry < best_other
        assert S.argmin_pair() in cherry

    def test_symmetric_star(self):
        star = WeightedTree([(i, 9, 1) for i in range(1, 6)])
        assert len(set(s_matrix_triples(triples_of_tree(star)).entries.values())) == 1

    def test_argmin_sets_agree_with_doubles_on_50_trees(self):
        for seed in range(50):
            t = random_tree(5 + seed % 4, seed, binary_only=seed % 2 == 0)
            d, tri = doubles_of_tree(t), triples_of_tree(t)
            Sd, St = s_matrix(d), s_matrix_triples(tri)
            md, mt = min(Sd.entries.values()), min(St.entries.values())
            cherry = cherry_pair_set(t)
            assert {p for p, v in Sd.entries.items() if v == md} <= cherry, seed
            assert {p for p, v in St.entries.items() if v == mt} <= cherry, seed

    def test_size_gate(self):
        with pytest.raises(InstanceTooSmallError):
            s_matrix_triples(triples_of_tree(random_tree(4, 0)))


class TestNJFromTriples:
    def test_caterpillar(self, cat_triples, caterpillar):
        assert tree_equal(nj_from_triples(cat_triples), caterpillar, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_reconstruction(self, seed):
        t = random_tree(10, seed)
        data = triples_of_tree(t)
        joined = nj_from_triples(data)
        rebuilt, _ = reconstruct_from_triples(data)
        assert tree_equal(joined, rebuilt, 0)
        assert tree_equal(joined, t, 0)

    def test_symmetric_star(self):
        star = WeightedTree([(i, 9, Fraction(1)) for i in range(1, 6)])
        assert tree_equal(nj_from_triples(triples_of_tree(star)), star, 0)

    def test_size_gate(self):
        with pytest.raises(InstanceTooSmallError):
            nj_from_triples(triples_of_tree(random_tree(4, 0)))

    @pytest.mark.parametrize("seed", range(3))
    def test_total_on_float_data_without_confirmation(self, seed):
        # float path sums never match bit-exactly, so at eps=0 no candidate
        # confirms; the global minimum is used and the tree still comes back
        import random

        rng = random.Random(seed)
        t = random_tree(9, seed + 70, 0.5, 10.0, mode="float")
        tri = triples_of_tree(t)
        noisy = TripleWeights(
            {k: v + rng.uniform(-1e-9, 1e-9) for k, v in tri.items()}
        )
        assert tree_equal(nj_from_triples(noisy, eps=0.0), t, 1e-4)


def lift_case(seed, n, shape):
    """Exact triple lift on labels 1..n: of a binary, multifurcating,
    negative-edge or zero-inner-edge tree, or of a random non-tree d."""
    rng = random.Random(seed)
    if shape == "non-tree":
        d = {
            p: Fraction(rng.randint(-50, 200), rng.choice((1, 2, 3, 7)))
            for p in itertools.combinations(range(1, n + 1), 2)
        }
        return triples_from_doubles(DoubleWeights(d))
    t = random_tree(n, seed, -3 if shape == "negative" else 1, 10,
                    binary_only=shape != "multifurcating")
    if shape == "zero":
        leaves = set(t.leaves)
        t = WeightedTree([
            (u, v, 0 if u not in leaves and v not in leaves and rng.random() < 0.5 else w)
            for u, v, w in t.edges
        ])
    return triples_of_tree(t)


class TestTripleNJOnTheFit:
    """Triple NJ joins on condition 2's pairwise fit; on exact lifts it
    reproduces the triple-space loop byte for byte."""

    @given(
        st.integers(0, 10**6),
        st.integers(5, 12),
        st.sampled_from(["binary", "multifurcating", "negative", "zero", "non-tree"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_lifts_match_the_triple_space_loop(self, seed, n, shape):
        t = lift_case(seed, n, shape)
        assert to_newick(nj_from_triples(t)) == to_newick(nj_from_triples_loop(t))

    @pytest.mark.parametrize("seed", CROSS_PATH_SEEDS)
    def test_s_matrix_triples_matches_its_definition_off_lifts(self, seed):
        lifts = []
        for name, w, _ in cross_path_cases(seed, 3):
            if name.startswith("float64") or name.endswith("-tree"):
                continue
            lifts.append(derived_pairwise_consistent(w)[0])
            S, ref = s_matrix_triples(w), s_matrix_triples_loop(w)
            assert S.labels == ref.labels
            assert S.entries == ref.entries, (name, seed)
        assert w.n == 5 or not any(lifts)
