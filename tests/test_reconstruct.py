"""Pseudobell machinery, base cases, full reconstruction round trips."""

import json
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import nj as nj_mod
from treeweights import reconstruct as reconstruct_mod
from treeweights import (
    DoubleWeights,
    InstanceTooSmallError,
    Pseudobell,
    ReconstructionError,
    TripleWeights,
    WeightedTree,
    nj_from_triples,
    base_case_doubles,
    base_case_triples_5,
    buneman_check,
    complete_pseudobells,
    contract_zero_internal_edges,
    derived_pairwise_consistent,
    doubles_of_tree,
    prune_doubles,
    prune_triples,
    random_tree,
    reconstruct_from_doubles,
    reconstruct_from_doubles_via_triples,
    reconstruct_from_triples,
    to_newick,
    tree_equal,
    triples_of_tree,
    twig_length_doubles,
    twig_length_triples,
)
from conftest import (
    CROSS_PATH_SEEDS,
    QUARTET_DOUBLES,
    cross_path_cases,
    exact_or_float,
)
from reference_loops import (
    condition2_values,
    derived_common_values,
    lift_check_loop,
    reduce_groups_loop,
    star_table_loop,
)


def _prune_outcome(w, bells, tol):
    """Reduced labels, values and merges of a prune, or its failure."""
    prune = prune_doubles if w.order == 2 else prune_triples
    bells = [Pseudobell(members=m, twig_lengths=dict(t)) for m, t in bells]
    try:
        reduced, level = prune(w, bells, tol)
    except ReconstructionError as err:
        key, spread = err.witness
        return ("fail", err.kind, key, exact_or_float(spread), str(err))
    return (
        level.labels_after,
        [(k, exact_or_float(v)) for k, v in reduced.items()],
        [(pb.members, pb.z) for pb in level.pseudobells],
    )


def _loop_prune_outcome(monkeypatch, w, bells, tol):
    """:func:`_prune_outcome` with the reference loop in the kernel's place."""
    with monkeypatch.context() as m:
        m.setattr(reconstruct_mod, "_reduce_dense", reduce_groups_loop)
        return _prune_outcome(w, bells, tol)


def _trial_bells(w, rng):
    """Random disjoint label groups with random twigs in w's arithmetic."""
    labels = list(w.labels)
    rng.shuffle(labels)
    bells, at = [], 0
    while at + 2 <= len(labels) - w.order and rng.random() < 0.8:
        size = rng.randint(2, 3)
        members = tuple(sorted(labels[at : at + size]))
        at += size
        if isinstance(w.value(*w.labels[: w.order]), float):
            twigs = {m: rng.uniform(-2, 2) for m in members}
        else:
            twigs = {m: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6)))
                     for m in members}
        bells.append((members, twigs))
    return bells or [((labels[0], labels[1]), {labels[0]: 1, labels[1]: 2})]


class TestCompletePseudobells:
    def test_caterpillar(self, cat_triples):
        assert [p.members for p in complete_pseudobells(cat_triples)] == [
            (1, 2),
            (4, 5),
        ]

    def test_star(self):
        star = WeightedTree([(i, 9, 1) for i in range(1, 6)])
        bells = complete_pseudobells(triples_of_tree(star))
        assert [p.members for p in bells] == [(1, 2, 3, 4, 5)]

    def test_perturbation_outside_both_bells(self, cat_triples):
        # D(1,4,5) sits in the (1,2) star window but not the (4,5) one
        vals = dict(cat_triples.items())
        vals[(1, 4, 5)] = vals[(1, 4, 5)] + 1
        assert [p.members for p in complete_pseudobells(TripleWeights(vals))] == [
            (4, 5)
        ]

    def test_perturbation_hitting_both_bells(self, cat_triples):
        # D(1,3,4) sits in both star windows, so both bells dissolve
        vals = dict(cat_triples.items())
        vals[(1, 3, 4)] = vals[(1, 3, 4)] + 1
        assert complete_pseudobells(TripleWeights(vals)) == []

    def test_open_triple_with_tolerance(self):
        # near-equalities are not transitive: (1,2) and (1,3) hold at the
        # tolerance while (2,3) does not
        t = 0.1
        vals = {p: 0.0 for p in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]}
        vals[(2, 4)] = 0.9 * t
        vals[(3, 5)] = 0.9 * t
        d = DoubleWeights(vals, labels=range(1, 6))
        with pytest.raises(ReconstructionError) as exc:
            complete_pseudobells(d, tol=t)
        assert exc.value.kind == "pseudobell-graph"
        assert set(exc.value.witness) == {1, 2, 3}

    def test_size_gate(self):
        with pytest.raises(InstanceTooSmallError):
            complete_pseudobells(triples_of_tree(random_tree(4, 0)))


class TestTwigLengths:
    def test_triples(self, cat_triples):
        _, derived = derived_pairwise_consistent(cat_triples)
        assert twig_length_triples(cat_triples, derived, 1, 2, 3, 4) == 1
        assert twig_length_triples(cat_triples, derived, 4, 5, 1, 2) == 4

    def test_symmetric_bell(self):
        sym = WeightedTree(
            [(1, 7, 3), (2, 7, 3), (7, 8, 5), (3, 8, 1), (8, 9, 5), (4, 9, 2), (5, 9, 2)]
        )
        t = triples_of_tree(sym)
        _, derived = derived_pairwise_consistent(t)
        half = Fraction(1, 2) * derived.value(1, 2)
        assert twig_length_triples(t, derived, 1, 2, 3, 4) == half
        assert twig_length_triples(t, derived, 2, 1, 3, 4) == half

    def test_doubles(self, quartet_doubles):
        assert twig_length_doubles(quartet_doubles, 1, 2, 3) == 1
        assert twig_length_doubles(quartet_doubles, 3, 4, 1) == 3
        sym = DoubleWeights({(1, 2): 8, (1, 3): 9, (2, 3): 9})
        assert twig_length_doubles(sym, 1, 2, 3) == 4

    def test_distinctness(self, quartet_doubles):
        with pytest.raises(ValueError):
            twig_length_doubles(quartet_doubles, 1, 2, 2)


class TestPrune:
    def test_triples_reduction(self, cat_triples):
        pb = Pseudobell(members=(1, 2), twig_lengths={1: 1, 2: 2})
        reduced, level = prune_triples(cat_triples, [pb])
        assert level.labels_after == (3, 4, 5, 6)
        assert reduced.value(6, 3, 4) == 20  # = D(1,3,4) - a_1 = D(2,3,4) - a_2
        assert reduced.value(3, 4, 5) == 19  # survivors copied

    def test_floor_retention(self, cat_triples):
        # pruning both bells would leave 3 labels: the larger-labelled one
        # is retained (pruned-first rule keeps the smallest labels)
        bells = [
            Pseudobell(members=(1, 2), twig_lengths={1: 1, 2: 2}),
            Pseudobell(members=(4, 5), twig_lengths={4: 4, 5: 5}),
        ]
        reduced, level = prune_triples(cat_triples, bells)
        assert [p.members for p in level.pseudobells] == [(1, 2)]
        assert len(level.labels_after) == 4

    def test_zero_twig_bell_reduces_to_relabelled_restriction(self):
        # a bell whose twigs really are zero: subtracting them changes
        # nothing, so the reduction is the restriction with a fresh label
        flat = WeightedTree(
            [(1, 6, 0), (2, 6, 0), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        data = triples_of_tree(flat)
        pb = Pseudobell(members=(1, 2), twig_lengths={1: 0, 2: 0})
        reduced, _ = prune_triples(data, [pb])
        for j, k in ((3, 4), (3, 5), (4, 5)):
            assert reduced.value(6, j, k) == data.value(1, j, k)
        assert reduced.value(3, 4, 5) == data.value(3, 4, 5)

    def test_wrong_twigs_caught(self, cat_triples):
        # zero twigs against data whose true twigs are 1 and 2: the
        # representatives disagree and the reduction refuses
        pb = Pseudobell(members=(1, 2), twig_lengths={1: 0, 2: 0})
        with pytest.raises(ReconstructionError) as exc:
            prune_triples(cat_triples, [pb])
        assert exc.value.kind == "prune-inconsistent"
        # with a tolerance the midrange of the representatives is kept
        reduced, _ = prune_triples(
            cat_triples, [Pseudobell(members=(1, 2), twig_lengths={1: 0, 2: 0})], tol=10
        )
        assert reduced.value(6, 3, 4) == Fraction(21 + 22, 2)

    def test_doubles_reduction(self, quartet_doubles):
        pb = Pseudobell(members=(1, 2), twig_lengths={1: 1, 2: 2})
        reduced, _ = prune_doubles(quartet_doubles, [pb])
        assert reduced.value(5, 3) == 8
        assert reduced.value(5, 4) == 9

    def test_doubles_zero_twig_bell(self):
        flat = WeightedTree([(1, 5, 0), (2, 5, 0), (5, 6, 5), (3, 6, 3), (4, 6, 4)])
        data = doubles_of_tree(flat)
        pb = Pseudobell(members=(1, 2), twig_lengths={1: 0, 2: 0})
        reduced, _ = prune_doubles(data, [pb])
        assert reduced.value(5, 3) == data.value(1, 3)
        assert reduced.value(5, 4) == data.value(1, 4)
        assert reduced.value(3, 4) == data.value(3, 4)

    def test_level_size_invariant(self, cat_triples):
        pb = Pseudobell(members=(1, 2), twig_lengths={1: 1, 2: 2})
        _, level = prune_triples(cat_triples, [pb])
        shrink = sum(len(p.members) - 1 for p in level.pseudobells)
        assert len(level.labels_after) == len(level.labels_before) - shrink

    def test_block_kernel_matches_loop(self, monkeypatch):
        # the reduction on the mirror against the reference loop: the same
        # values (bitwise for floats), or the same first failing key with
        # the same spread and message
        kinds = set()
        for order, seed in product((2, 3), CROSS_PATH_SEEDS):
            rng = random.Random(seed)
            for name, w, tol in cross_path_cases(seed, order):
                for _ in range(3):
                    bells = _trial_bells(w, rng)
                    for t in (tol, math.inf):
                        fast = _prune_outcome(w, bells, t)
                        assert fast == _loop_prune_outcome(monkeypatch, w, bells, t), (
                            name, seed, bells, t
                        )
                        kinds.add(fast[0] == "fail")
        assert kinds == {True, False}

    @pytest.mark.parametrize(
        "data, twig_den",
        [
            # the twig denominator widens the scale to 11 * 10**6: int64
            ({k: v + Fraction(1, 10**6) for k, v in QUARTET_DOUBLES.items()}, 11),
            # the widened magnitudes would wrap int64: object
            ({k: v * 2**50 for k, v in QUARTET_DOUBLES.items()}, 100003),
        ],
    )
    def test_twig_units_past_the_caps_take_the_loop(self, monkeypatch, data, twig_den):
        picked = []
        pick = reconstruct_mod.int_dtype
        monkeypatch.setattr(
            reconstruct_mod, "int_dtype", lambda top: picked.append(pick(top)) or picked[-1]
        )
        w = DoubleWeights(data)
        assert w.dense()[1].dtype == np.int64
        bells = [((1, 2), {1: Fraction(1, twig_den), 2: Fraction(-2, twig_den)})]
        fast = _prune_outcome(w, bells, math.inf)
        assert picked == [np.int64 if twig_den == 11 else object]
        assert fast == _loop_prune_outcome(monkeypatch, w, bells, math.inf)
        assert fast[1][0] == ((3, 4), ("exact", Fraction(data[(3, 4)])))

    @pytest.mark.parametrize("order", [2, 3])
    def test_twigs_take_the_mirrors_arithmetic(self, monkeypatch, order):
        # hand-made twigs of the other arithmetic are converted before the
        # kernel: Fractions are read as floats on float data, and floats at
        # their exact binary value on exact data
        of_tree = doubles_of_tree if order == 2 else triples_of_tree
        exact = of_tree(random_tree(7, 5))
        floats = of_tree(random_tree(7, 5, mode="float"))
        fraction_twigs = {1: Fraction(1, 3), 2: Fraction(-2, 7), 3: Fraction(5, 11)}
        float_twigs = {1: 0.1, 2: -0.3, 3: 1 / 3}
        for w, twigs, read in (
            (floats, fraction_twigs, float),
            (exact, float_twigs, Fraction),
        ):
            bells = [((1, 2, 3), twigs)]
            converted = [((1, 2, 3), {m: read(t) for m, t in twigs.items()})]
            for tol in (0, math.inf):
                fast = _prune_outcome(w, bells, tol)
                assert fast == _loop_prune_outcome(monkeypatch, w, converted, tol)
            kinds = {kind for _, (kind, _) in fast[1]}
            assert kinds == ({"float"} if read is float else {"exact"})

    def test_requires_twigs_and_disjointness(self, cat_triples):
        with pytest.raises(ValueError):
            prune_triples(cat_triples, [Pseudobell(members=(1, 2))])
        overlapping = [
            Pseudobell(members=(1, 2), twig_lengths={1: 1, 2: 2}),
            Pseudobell(members=(2, 3), twig_lengths={2: 2, 3: 3}),
        ]
        with pytest.raises(ValueError):
            prune_triples(cat_triples, overlapping)


class TestBaseCaseTriples:
    def test_exact_caterpillar(self, cat_triples, caterpillar):
        assert tree_equal(base_case_triples_5(cat_triples), caterpillar, 0)

    def test_zero_inner_edge_collapses(self):
        squashed = WeightedTree(
            [(1, 6, 1), (2, 6, 2), (6, 7, 0), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        got = base_case_triples_5(triples_of_tree(squashed))
        expected = WeightedTree(
            [(1, 9, 1), (2, 9, 2), (3, 9, 3), (9, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        assert tree_equal(got, expected, 0)
        assert max(got.degree(v) for v in got.internal_nodes) == 4

    def test_constrained_entries_rejected(self, cat_triples):
        # 8 of the 10 entries sit in a star-condition window; perturbing
        # any of them is unrealisable
        for key in [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5),
                    (2, 3, 4), (2, 3, 5), (2, 4, 5)]:
            vals = dict(cat_triples.items())
            vals[key] = vals[key] + 1
            with pytest.raises(ReconstructionError):
                base_case_triples_5(TripleWeights(vals))

    def test_free_entries_absorbed(self, cat_triples):
        # D(1,2,3) and D(3,4,5) appear in no star window: nearby twigs
        # absorb the change, so the perturbed data is exactly realisable
        for key, big in (((3, 4, 5), 100), ((1, 2, 3), 100)):
            vals = dict(cat_triples.items())
            vals[key] = big
            tree = base_case_triples_5(TripleWeights(vals))
            back = triples_of_tree(tree)
            assert all(back.value(*k) == v for k, v in TripleWeights(vals).items())

    def test_no_disjoint_star_pairs(self, cat_triples):
        vals = dict(cat_triples.items())
        vals[(1, 3, 4)] = vals[(1, 3, 4)] + 1  # kills (1,2); (4,5) survives? no: both
        with pytest.raises(ReconstructionError) as exc:
            base_case_triples_5(TripleWeights(vals))
        assert exc.value.kind == "base-case"

    def test_exactly_five(self, cat_triples):
        with pytest.raises(ValueError):
            base_case_triples_5(triples_of_tree(random_tree(6, 0)))


class TestBaseCaseDoubles:
    def test_three_point(self, quartet_doubles):
        star = base_case_doubles(quartet_doubles.restrict([1, 2, 3]))
        assert sorted(w for _, _, w in star.edges) == [1, 2, 8]

    def test_quartet(self, quartet_doubles, quartet):
        assert tree_equal(base_case_doubles(quartet_doubles), quartet, 0)

    def test_two_point(self):
        assert base_case_doubles(DoubleWeights({(1, 2): 7})).edges == ((1, 2, 7),)

    def test_star_collapse(self):
        d = DoubleWeights({(i, j): 2 for i in range(1, 5) for j in range(i + 1, 5)})
        star = base_case_doubles(d)
        assert len(star.internal_nodes) == 1
        assert all(w == 1 for _, _, w in star.edges)

    def test_unrealizable(self, quartet_doubles):
        vals = dict(quartet_doubles.items())
        vals[(1, 3)] = Fraction(19, 2)  # all three pair sums now distinct
        with pytest.raises(ReconstructionError) as exc:
            base_case_doubles(DoubleWeights(vals))
        assert exc.value.kind == "base-case"


class TestReconstructTriples:
    def test_caterpillar(self, cat_triples, caterpillar):
        tree, trace = reconstruct_from_triples(cat_triples)
        assert tree_equal(tree, caterpillar, 0)
        assert trace.levels == []
        assert trace.base_case.labels == (1, 2, 3, 4, 5)
        assert trace.all_twigs_positive is True

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_n12(self, seed):
        t = random_tree(12, seed)
        tree, trace = reconstruct_from_triples(triples_of_tree(t))
        assert tree_equal(tree, t, 0)
        assert len(trace.levels) >= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_multifurcating(self, seed):
        t = random_tree(11, seed + 40, binary_only=False)
        tree, _ = reconstruct_from_triples(triples_of_tree(t))
        assert tree_equal(tree, t, 0)

    def test_round_trip_negative_twigs(self):
        # arbitrary-sign twigs with strictly positive inner edges are the
        # regime where the star condition still characterises bells
        t = WeightedTree(
            [(1, 7, -2), (2, 7, 3), (7, 8, 4), (3, 8, Fraction(1, 2)),
             (8, 9, 6), (4, 9, -1), (5, 9, 5), (9, 10, 2), (6, 10, 1), (11, 10, 7)]
        )
        tree, trace = reconstruct_from_triples(triples_of_tree(t))
        assert tree_equal(tree, t, 0)
        assert trace.all_twigs_positive is False

    def test_star_instance_partial_pruning(self):
        star8 = WeightedTree([(i, 20, Fraction(i)) for i in range(1, 9)])
        tree, trace = reconstruct_from_triples(triples_of_tree(star8))
        assert tree_equal(tree, star8, 0)
        assert trace.levels  # the single big pseudobell was pruned piecewise

    def test_perturbations_rejected(self, cat_triples):
        free = {(1, 2, 3), (3, 4, 5)}
        for key in cat_triples.labels and list(dict(cat_triples.items())):
            vals = dict(cat_triples.items())
            vals[key] = vals[key] + Fraction(1, 7)
            perturbed = TripleWeights(vals)
            if key in free:
                tree, _ = reconstruct_from_triples(perturbed)
                back = triples_of_tree(tree)
                assert all(back.value(*k) == v for k, v in perturbed.items())
            else:
                with pytest.raises(ReconstructionError):
                    reconstruct_from_triples(perturbed)

    def test_failure_carries_level(self):
        t = triples_of_tree(random_tree(9, 2))
        vals = dict(t.items())
        vals[(1, 2, 3)] = vals[(1, 2, 3)] + 1
        with pytest.raises(ReconstructionError) as exc:
            reconstruct_from_triples(TripleWeights(vals))
        assert exc.value.kind in {
            "condition2",
            "no-disjoint-pseudobells",
            "prune-inconsistent",
            "base-case",
            "verification",
        }

    def test_size_gate(self):
        with pytest.raises(InstanceTooSmallError):
            reconstruct_from_triples(triples_of_tree(random_tree(4, 0)))

    def test_positivity_certificate(self):
        neg = WeightedTree(
            [(1, 6, 1), (2, 6, -2), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        tree, trace = reconstruct_from_triples(triples_of_tree(neg))
        assert tree_equal(tree, neg, 0)
        assert trace.all_twigs_positive is False
        with pytest.raises(ReconstructionError) as exc:
            reconstruct_from_triples(triples_of_tree(neg), require_positive=True)
        assert exc.value.kind == "positivity"
        assert exc.value.trace is not None

    def test_certificate_matches_edge_signs(self):
        for seed in range(6):
            t = random_tree(8, seed, -2, 9)
            tree, trace = reconstruct_from_triples(triples_of_tree(t))
            assert trace.all_twigs_positive == all(w > 0 for _, _, w in tree.edges)


class TestDegenerateShapes:
    """Stars and zero inner edges, exact at tol 0: both routes rebuild the
    input with its zero inner edges contracted."""

    @staticmethod
    def _rebuilds(t):
        want = contract_zero_internal_edges(t)
        tree, _ = reconstruct_from_doubles(doubles_of_tree(t))
        assert tree_equal(tree, want, 0)
        if t.n >= 5:
            tree, _ = reconstruct_from_triples(triples_of_tree(t))
            assert tree_equal(tree, want, 0)

    @given(st.integers(0, 10**6), st.integers(3, 12))
    @settings(max_examples=25, deadline=None)
    def test_stars(self, seed, n):
        rng = random.Random(seed)
        twig = [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(n)]
        self._rebuilds(WeightedTree([(i, n + 1, twig[i - 1]) for i in range(1, n + 1)]))

    @given(st.integers(0, 10**6), st.integers(3, 12), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_zero_inner_edges(self, seed, n, all_zero, binary):
        rng = random.Random(seed)
        t = random_tree(n, seed, binary_only=binary)
        leaves = set(t.leaves)
        self._rebuilds(
            WeightedTree(
                [
                    (u, v, 0)
                    if u not in leaves and v not in leaves and (all_zero or rng.random() < 0.5)
                    else (u, v, w)
                    for u, v, w in t.edges
                ]
            )
        )


class TestReconstructDoubles:
    def test_quartet(self, quartet_doubles, quartet):
        tree, _ = reconstruct_from_doubles(quartet_doubles)
        assert tree_equal(tree, quartet, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_n20(self, seed):
        t = random_tree(20, seed)
        tree, _ = reconstruct_from_doubles(doubles_of_tree(t))
        assert tree_equal(tree, t, 0)

    def test_small_instances(self):
        tree, trace = reconstruct_from_doubles(DoubleWeights({(1, 2): 7}))
        assert tree.edges == ((1, 2, 7),)
        assert trace.levels == []

    def test_four_point_violation_fails_both_ways(self, quartet_doubles):
        vals = dict(quartet_doubles.items())
        vals[(1, 3)] = Fraction(19, 2)
        bad = DoubleWeights(vals)
        assert not buneman_check(bad).passed
        with pytest.raises(ReconstructionError):
            reconstruct_from_doubles(bad)

    def test_star_instance(self):
        star = WeightedTree([(i, 9, Fraction(2 * i, 3)) for i in range(1, 6)])
        tree, _ = reconstruct_from_doubles(doubles_of_tree(star))
        assert tree_equal(tree, star, 0)


class TestReconstructViaTriples:
    def test_caterpillar_doubles(self, cat_doubles, caterpillar):
        tree, _ = reconstruct_from_doubles_via_triples(cat_doubles)
        assert tree_equal(tree, caterpillar, 0)

    def test_all_equal_doubles_give_star(self):
        d = DoubleWeights(
            {(i, j): Fraction(4) for i in range(1, 6) for j in range(i + 1, 6)}
        )
        tree, _ = reconstruct_from_doubles_via_triples(d)
        star = WeightedTree([(i, 9, Fraction(2)) for i in range(1, 6)])
        assert tree_equal(tree, star, 0)

    def test_agrees_with_direct_route_on_100_trees(self):
        for seed in range(100):
            t = random_tree(5 + seed % 6, seed, binary_only=seed % 3 != 0)
            d = doubles_of_tree(t)
            via, _ = reconstruct_from_doubles_via_triples(d)
            direct, _ = reconstruct_from_doubles(d)
            assert tree_equal(via, direct, 0), seed

    def test_size_gate(self, quartet_doubles):
        with pytest.raises(InstanceTooSmallError):
            reconstruct_from_doubles_via_triples(quartet_doubles)


class TestFloatTolerance:
    """Noisy float data within a tolerance: the midrange paths end to end."""

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_triples_accepted(self, seed):
        import random

        rng = random.Random(seed)
        t = random_tree(6 + 2 * seed, seed, 0.5, 10.0, mode="float")
        tri = triples_of_tree(t)
        noisy = TripleWeights(
            {k: v + rng.uniform(-1e-9, 1e-9) for k, v in tri.items()}
        )
        tree, _ = reconstruct_from_triples(noisy, tol=1e-5)
        assert tree_equal(tree, t, 1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_doubles_accepted(self, seed):
        import random

        rng = random.Random(seed + 50)
        t = random_tree(8 + 3 * seed, seed, 0.5, 10.0, mode="float")
        d = doubles_of_tree(t)
        noisy = DoubleWeights({k: v + rng.uniform(-1e-9, 1e-9) for k, v in d.items()})
        tree, _ = reconstruct_from_doubles(noisy, tol=1e-5)
        assert tree_equal(tree, t, 1e-4)

    def test_noise_beyond_tolerance_rejected(self):
        import random

        rng = random.Random(9)
        t = random_tree(9, 9, 0.5, 10.0, mode="float")
        tri = triples_of_tree(t)
        noisy = TripleWeights({k: v + rng.uniform(-0.2, 0.2) for k, v in tri.items()})
        with pytest.raises(ReconstructionError):
            reconstruct_from_triples(noisy, tol=1e-7)


class TestTraceConsistency:
    def test_twig_sums_reproduce_inputs(self):
        t = random_tree(14, 3)
        data = triples_of_tree(t)
        tree, trace = reconstruct_from_triples(data)
        # re-expansion bookkeeping: every pruned member appears exactly once
        seen = set()
        for level in trace.levels:
            for pb in level.pseudobells:
                assert pb.z is not None
                for m in pb.members:
                    assert m not in seen
                    seen.add(m)
        back = triples_of_tree(tree)
        assert all(back.value(*k) == v for k, v in data.items())

    def test_triples_verified_without_rebuilding_them(self, monkeypatch):
        # the tree is checked against condition 2's fit d, never triple by triple
        def refuse(tree):
            raise AssertionError("triples_of_tree called during verification")

        t = random_tree(12, 4, binary_only=False)
        data = triples_of_tree(t)
        monkeypatch.setattr(reconstruct_mod, "triples_of_tree", refuse)
        tree, _ = reconstruct_from_triples(data)
        assert tree_equal(tree, t, 0)

    def test_report_is_jsonable(self, cat_triples):
        import json

        _, trace = reconstruct_from_triples(cat_triples)
        report = trace.to_report()
        json.dumps(report)
        assert report["all_twigs_positive"] is True


class TestCrossPath:
    """Reconstruction and triple NJ on the kernels and on the reference loops."""

    @staticmethod
    def _outcome(w, tol):
        runner = reconstruct_from_doubles if w.order == 2 else reconstruct_from_triples
        try:
            tree, trace = runner(w, tol=tol)
        except ReconstructionError as err:
            return ("fail", err.kind, err.level, repr(err.witness), str(err))
        report = json.dumps(trace.to_report(), sort_keys=True)
        nj = to_newick(nj_from_triples(w, tol)) if w.order == 3 else None
        return (to_newick(tree), report, nj)

    @classmethod
    def _loop_outcome(cls, monkeypatch, w, tol):
        """:meth:`_outcome` with the star tables, prunes and condition 2 (in
        reconstruction and in triple NJ's fit) taking the reference loops;
        every other step runs as in the kernels'."""
        with monkeypatch.context() as m:
            m.setattr(reconstruct_mod, "star_table", star_table_loop)
            m.setattr(reconstruct_mod, "_reduce_dense", reduce_groups_loop)
            m.setattr(reconstruct_mod, "derived_pairwise_consistent", lift_check_loop)
            m.setattr(nj_mod, "derived_pairwise_consistent", lift_check_loop)
            return cls._outcome(w, tol)

    @pytest.mark.parametrize("order", [2, 3])
    def test_reconstruct_outcomes_match_reference_loops(self, monkeypatch, order):
        kinds = set()
        for seed in CROSS_PATH_SEEDS:
            for name, w, tol in cross_path_cases(seed, order):
                fast = self._outcome(w, tol)
                assert fast == self._loop_outcome(monkeypatch, w, tol), (name, seed)
                kinds.add(fast[0] == "fail")
        assert kinds == {True, False}

    def test_mirrorless_float_triples_match(self, monkeypatch):
        # condition 2's loop sums and rounds as the kernel does, so a float
        # triple instance rebuilds the same tree on the reference loops; on
        # exact data the tol-0 verdict and d are condition 2's definition
        for seed in CROSS_PATH_SEEDS:
            for name, w, tol in cross_path_cases(seed, 3):
                ok, d = derived_pairwise_consistent(w, tol)
                ok_loop, d_loop = lift_check_loop(w, tol)
                assert ok == ok_loop, (name, seed)
                if ok:
                    assert [(k, repr(v)) for k, v in d.items()] == [
                        (k, repr(v)) for k, v in d_loop.items()
                    ], (name, seed)
                if not name.startswith("float64"):
                    assert condition2_values(derived_pairwise_consistent(w)) == (
                        derived_common_values(w)
                    )
        name, w, tol = cross_path_cases(0, 3)[3]
        assert name == "float64-tree"
        assert self._loop_outcome(monkeypatch, w, tol) == self._outcome(w, tol)
