"""Brute-force topology enumeration and exact weight fitting."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from treeweights import oracle as oracle_mod
from treeweights import tree as tree_mod
from treeweights import (
    DoubleWeights,
    ReconstructionError,
    Topology,
    TripleWeights,
    WeightedTree,
    contract_zero_internal_edges,
    doubles_of_tree,
    enumerate_topologies,
    fit_weights,
    random_tree,
    realizable_brute,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    tree_equal,
    triples_of_tree,
)


def _of_order(order):
    return doubles_of_tree if order == 2 else triples_of_tree


@lru_cache(maxsize=None)
def _incidence_rows(topo, order):
    """Edges spanned by each row's leaves, read off unit-weight trees.

    Independent of the oracle's side masks and left inverses.
    """
    cols = [
        [v for _, v in _of_order(order)(
            topo.with_weights({f: int(f == e) for f in topo.edges})
        ).items()]
        for e in topo.edges
    ]
    return [[e for e, col in enumerate(cols) if col[r]] for r in range(len(cols[0]))]


def _shape_key(topo):
    """The rooted form of *topo* with unit weights: equal exactly for
    leaf-isomorphic shapes."""
    return tree_mod._rooted_form(topo.with_weights(dict.fromkeys(topo.edges, 1)))


def _reference_brute(target, require_positive):
    """``realizable_brute`` by exact elimination on every topology."""
    n, labels = target.n, target.labels
    std = tuple(range(1, n + 1))
    work = target.relabel(dict(zip(labels, std)))
    b = [v for _, v in work.items()]
    for topo in enumerate_topologies(n, True):
        rows = _incidence_rows(topo, work.order)
        x = oracle_mod._solve_general(rows, len(topo.edges), b)
        if require_positive and work.order == n == 3:
            # the star's edges sum to the one value; elimination sets two of
            # them to 0, and the equal split is positive when any split is
            x = [Fraction(b[0]) / 3] * 3
        if x is None or (require_positive and any(not w > 0 for w in x)):
            continue
        tree = contract_zero_internal_edges(topo.with_weights(dict(zip(topo.edges, x))))
        return tree if labels == std else oracle_mod._relabel_tree(tree, dict(zip(std, labels)))
    return None


def _random_instance(rng, n, order, shapes=None, hard=True):
    """Weights of a random shape among the first ``shapes`` topologies.

    Some instances are scaled near 10**17 (past the int64 products) and
    some are relabelled.  With ``hard``, edges are drawn with zeros and
    negatives, some instances get one entry perturbed and relabelling
    permutes the leaves; without it every edge is positive and new labels
    keep the leaves' order, so the first fit lies no later than the shape.
    """
    topos = list(enumerate_topologies(n, True))[:shapes]
    topo = rng.choice(topos)
    low = -3 if hard else 1
    wmap = {e: Fraction(rng.randint(low, 9), rng.choice((1, 1, 2, 3))) for e in topo.edges}
    if rng.random() < 0.25:
        wmap = {e: w * 10**17 + rng.randint(0, 9) for e, w in wmap.items()}
    vals = dict(_of_order(order)(topo.with_weights(wmap)).items())
    if hard and rng.random() < 0.4:
        key = rng.choice(sorted(vals))
        vals[key] += Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 5)))
    if rng.random() < 0.4:
        perm = rng.sample(range(1, 30), n)
        if not hard:
            perm.sort()
        vals = {tuple(sorted(perm[x - 1] for x in k)): v for k, v in vals.items()}
    cls = DoubleWeights if order == 2 else TripleWeights
    return cls(vals, labels=sorted({x for k in vals for x in k}))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 3), (5, 15), (6, 105), (7, 945)])
    def test_binary_double_factorial(self, n, count):
        assert len(list(enumerate_topologies(n))) == count

    @pytest.mark.parametrize("n,count", [(4, 4), (5, 26), (6, 236), (7, 2752)])
    def test_with_multifurcations(self, n, count):
        assert len(list(enumerate_topologies(n, True))) == count

    def test_no_duplicates(self):
        # the generation does not deduplicate; canonical forms referee it
        for n, multi in product((6, 7), (False, True)):
            keys = [_shape_key(t) for t in enumerate_topologies(n, multi)]
            assert len(keys) == len(set(keys)), (n, multi)

    def test_shapes_are_valid(self):
        for topo in enumerate_topologies(5, True):
            assert topo.leaves == (1, 2, 3, 4, 5)
            leafset = set(topo.leaves)
            for v in topo._adj:
                if v not in leafset:
                    assert len(topo._adj[v]) >= 3

    def test_range_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_topologies(9))
        with pytest.raises(ValueError):
            list(enumerate_topologies(1))

    def test_deterministic_order(self):
        first = [_shape_key(t) for t in enumerate_topologies(5, True)]
        second = [_shape_key(t) for t in enumerate_topologies(5, True)]
        assert first == second

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_binary_shape_has_two_bells(self, n):
        from treeweights import cherries

        for topo in enumerate_topologies(n):
            t = topo.with_weights({e: 1 for e in topo.edges})
            assert len(cherries(t)) >= 2


class TestFitWeights:
    def test_caterpillar_recovers_weights(self, cat_triples):
        hits = [
            (topo, fit_weights(topo, cat_triples))
            for topo in enumerate_topologies(5)
        ]
        solved = [(t, w) for t, w in hits if w is not None]
        assert len(solved) == 1
        assert sorted(solved[0][1].values()) == [1, 2, 3, 4, 5, 6, 7]

    def test_wrong_quartet_topology(self, quartet_doubles):
        wrong = Topology([(1, 9), (3, 9), (9, 10), (2, 10), (4, 10)])
        assert fit_weights(wrong, quartet_doubles) is None

    def test_right_quartet_topology(self, quartet_doubles):
        right = Topology([(1, 9), (2, 9), (9, 10), (3, 10), (4, 10)])
        w = fit_weights(right, quartet_doubles)
        assert w == {(1, 9): 1, (2, 9): 2, (3, 10): 3, (4, 10): 4, (9, 10): 5}

    @pytest.mark.parametrize("n", [5, 6])
    def test_round_trip_all_binary_topologies(self, n):
        for i, topo in enumerate(enumerate_topologies(n)):
            wmap = {e: Fraction(3 * k + 2, 2) for k, e in enumerate(topo.edges)}
            t = topo.with_weights(wmap)
            assert fit_weights(topo, doubles_of_tree(t)) == wmap, (n, i)
            assert fit_weights(topo, triples_of_tree(t)) == wmap, (n, i)

    def test_label_mismatch(self, quartet_doubles):
        topo5 = next(iter(enumerate_topologies(5)))
        with pytest.raises(ValueError):
            fit_weights(topo5, quartet_doubles)

    def test_floats_rejected(self):
        topo = Topology([(1, 9), (2, 9), (3, 9)])
        d = DoubleWeights({(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
        with pytest.raises(TypeError):
            fit_weights(topo, d)

    def test_degree_two_node_takes_elimination(self):
        # a node on a path has no closed form; exact elimination fits it
        path = Topology([(1, 9), (9, 10), (2, 10), (3, 10)])
        d = DoubleWeights({(1, 2): 5, (1, 3): 6, (2, 3): 3})
        w = fit_weights(path, d)
        back = doubles_of_tree(path.with_weights(w))
        assert all(back.value(*k) == v for k, v in d.items())

    def test_underdetermined_small_triples(self):
        # 4 labels, triples: a quartet shape has 5 edges but only 4 values;
        # consistency always holds and some realisation comes back
        t = TripleWeights(
            {(1, 2, 3): 5, (1, 2, 4): 6, (1, 3, 4): 7, (2, 3, 4): 8},
            labels=range(1, 5),
        )
        tree = realizable_brute(t)
        assert tree is not None
        back = triples_of_tree(tree)
        assert all(back.value(*k) == v for k, v in t.items())


class TestRealizableBrute:
    def test_caterpillar_triples(self, cat_triples, caterpillar):
        assert tree_equal(realizable_brute(cat_triples), caterpillar, 0)

    def test_quartet_doubles(self, quartet_doubles, quartet):
        assert tree_equal(realizable_brute(quartet_doubles), quartet, 0)

    def test_four_point_violation(self, quartet_doubles):
        vals = dict(quartet_doubles.items())
        vals[(1, 3)] = Fraction(19, 2)
        assert realizable_brute(DoubleWeights(vals)) is None

    def test_zero_doubles(self):
        zeros = DoubleWeights(
            {p: 0 for p in combinations(range(1, 5), 2)}, labels=range(1, 5)
        )
        tree = realizable_brute(zeros)
        assert tree is not None
        assert all(w == 0 for _, _, w in tree.edges)
        assert realizable_brute(zeros, require_positive=True) is None

    def test_positivity_filter(self):
        neg = WeightedTree(
            [(1, 6, 1), (2, 6, -2), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        d = doubles_of_tree(neg)
        assert realizable_brute(d) is not None
        assert realizable_brute(d, require_positive=True) is None

    def test_multifurcating_instance_contracts(self):
        star = WeightedTree([(i, 9, Fraction(i, 2)) for i in range(1, 6)])
        got = realizable_brute(doubles_of_tree(star))
        assert tree_equal(got, star, 0)

    def test_arbitrary_labels(self):
        t = WeightedTree([(3, 100, 2), (7, 100, 4), (9, 100, 5)])
        got = realizable_brute(doubles_of_tree(t))
        assert tree_equal(got, t, 0)

    def test_size_guard(self):
        big = doubles_of_tree(WeightedTree([(i, 20, 1) for i in range(1, 10)]))
        with pytest.raises(ValueError):
            realizable_brute(big)

    def test_two_labels(self):
        assert realizable_brute(DoubleWeights({(1, 2): 7})).edges == ((1, 2, 7),)
        assert realizable_brute(DoubleWeights({(1, 2): -1}), require_positive=True) is None

    @pytest.mark.parametrize("labels", [(1, 2), (5, 9)])
    @pytest.mark.parametrize("w", [3, 0, -2])
    @pytest.mark.parametrize("positive", [False, True])
    def test_two_labels_on_given_labels(self, labels, w, positive):
        # the single edge on the target's own labels, or None when positive
        # edges are required and w is not positive
        got = realizable_brute(DoubleWeights({labels: w}), require_positive=positive)
        if positive and w <= 0:
            assert got is None
        else:
            assert got.leaves == labels and got.edges == ((*labels, w),)

    def test_two_float_labels_refused(self):
        # the oracle is exact at every size
        with pytest.raises(TypeError):
            realizable_brute(DoubleWeights({(1, 2): 3.0}))

    def test_three_label_triples(self):
        # one value on the star's three edges: with positive edges it is
        # the equal split, and no split is positive unless the value is
        t = TripleWeights({(1, 2, 3): 3})
        got = realizable_brute(t, require_positive=True)
        assert sorted(w for _, _, w in got.edges) == [1, 1, 1]
        assert tree_equal(got, WeightedTree([(1, 4, 1), (2, 4, 1), (3, 4, 1)]), 0)
        assert realizable_brute(t).edges == ((1, 4, 3), (2, 4, 0), (3, 4, 0))
        for value in (0, -3):
            t = TripleWeights({(1, 2, 3): value})
            assert realizable_brute(t, require_positive=True) is None
            assert realizable_brute(t) is not None

    def test_three_label_triples_keep_their_labels(self):
        t = TripleWeights({(2, 5, 9): Fraction(3, 2)})
        got = realizable_brute(t, require_positive=True)
        assert got.leaves == (2, 5, 9)
        assert triples_of_tree(got).value(2, 5, 9) == Fraction(3, 2)
        assert all(w == Fraction(1, 2) for _, _, w in got.edges)


class TestBatchedOracle:
    """The stacked closed-form fit against exact elimination."""

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_reference_loop(self, n, order):
        rng = random.Random(100 * n + order)
        # a reference reject scans every shape by Fraction elimination, for
        # up to a minute at n = 7, so n = 7 fits positive edges on one of
        # its first 60 shapes
        shapes, count, hard = {7: (60, 2, False), 6: (None, 4, True)}.get(n, (None, 12, True))
        targets = [_random_instance(rng, n, order, shapes, hard) for _ in range(count)]
        if (n, order) == (3, 3):
            # a 3-label triple set has positive edges exactly when its value
            # is positive, so one value below 0 joins the draws as a reject
            targets.append(TripleWeights({(1, 2, 3): Fraction(-2, 3)}))
        outcomes = set()
        for target in targets:
            for positive in (False, True):
                got = realizable_brute(target, require_positive=positive)
                want = _reference_brute(target, positive)
                if want is None:
                    assert got is None, (target, positive)
                else:
                    assert got is not None and got.edges == want.edges, (target, positive)
                outcomes.add(got is None)
        assert outcomes == {True, False} or n == 7

    @pytest.mark.parametrize("n,order", [
        (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (5, 3), (6, 3), (7, 3), (8, 3),
    ])
    def test_left_inverse_identity(self, n, order):
        stack = oracle_mod._stack(n, order)
        assert stack.inc.dtype == stack.inv.dtype == np.int8
        step = 4096
        l1 = 0
        for lo in range(0, len(stack.shapes), step):
            inv = stack.inv[lo:lo + step].astype(np.int64)
            inc = stack.inc[lo:lo + step].astype(np.int64)
            real = ~stack.pad[lo:lo + step]
            eye = np.eye(inv.shape[1], dtype=np.int64) * stack.scale
            want = np.where(real[:, :, None] & real[:, None, :], eye, 0)
            assert np.array_equal(inv @ inc, want)
            l1 = max(l1, int(np.abs(inv).sum(axis=2).max()))
        assert stack.l1 == l1

    def test_incidence_matches_unit_weights(self):
        for n, order in [(5, 2), (5, 3), (6, 3)]:
            stack = oracle_mod._stack(n, order)
            for t, edges in enumerate(stack.shapes):
                assert stack.row_edges(t) == _incidence_rows(Topology(edges), order)

    @pytest.mark.parametrize("order", [2, 3])
    def test_python_int_product_agrees(self, monkeypatch, order):
        # a zero headroom forces the object-array product on every query
        rng = random.Random(order)
        stack = oracle_mod._stack(6, order)
        targets = [_random_instance(rng, 6, order) for _ in range(8)]
        fast = [stack.first_fit([v for _, v in t.relabel(
            dict(zip(t.labels, range(1, 7)))).items()]) for t in targets]
        monkeypatch.setattr(oracle_mod, "_INT64_HEADROOM", 0)
        slow = [stack.first_fit([v for _, v in t.relabel(
            dict(zip(t.labels, range(1, 7)))).items()]) for t in targets]
        assert fast == slow
        assert {f is None for f in fast} == {True, False}

    def test_large_values_take_python_ints(self):
        tree = random_tree(6, 5)
        big = WeightedTree([(u, v, w * 10**17) for u, v, w in tree.edges])
        d = doubles_of_tree(big)
        stack = oracle_mod._stack(6, 2)
        top = max(abs(v) for _, v in d.items()) * 1000
        assert top * stack.l1 * stack.inv.shape[1] >= oracle_mod._INT64_HEADROOM
        assert tree_equal(realizable_brute(d), big, 0)
        vals = dict(d.items())
        vals[(1, 2)] += 1
        bumped = DoubleWeights(vals)
        got, want = realizable_brute(bumped), _reference_brute(bumped, False)
        assert (got is None) == (want is None)
        assert got is None or got.edges == want.edges


class TestOracleAgreesWithReconstruction:
    """At n = 5 to 8 the oracle referees the decision procedures: at each
    size, three random trees (one multifurcating) are rebuilt, and two
    constrained entries of each, bumped one at a time, are rejected."""

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_sampled_topologies(self, n, order):
        rng = random.Random(10 * n + order)
        of = _of_order(order)
        rebuild = reconstruct_from_doubles if order == 2 else reconstruct_from_triples
        cls = DoubleWeights if order == 2 else TripleWeights
        for seed in range(3):
            tree = random_tree(n, 1000 * n + seed, Fraction(1, 4), 8, binary_only=seed != 2)
            w = of(tree)
            assert tree_equal(realizable_brute(w), tree, 0)
            assert tree_equal(rebuild(w, tol=0)[0], tree, 0)
            # an entry is constrained when its unit vector lies outside the
            # column space of the tree's incidence matrix
            topo = Topology([(u, v) for u, v, _ in tree.edges])
            rows = _incidence_rows(topo, order)
            keys = [k for k, _ in w.items()]
            rng.shuffle(keys)
            bumped = 0
            for key in keys:
                unit = [int(k == key) for k, _ in w.items()]
                if oracle_mod._solve_general(rows, len(topo.edges), unit) is not None:
                    continue
                vals = dict(w.items())
                vals[key] += Fraction(rng.randint(1, 9), 64)
                perturbed = cls(vals)
                assert realizable_brute(perturbed) is None, key
                with pytest.raises(ReconstructionError):
                    rebuild(perturbed, tol=0)
                bumped += 1
                if bumped == 2:
                    break
            assert bumped == 2
