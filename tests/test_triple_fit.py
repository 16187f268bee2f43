"""Triple star queries and ``prune_triples`` run on condition 2's pairwise fit.

A triple set comes from a tree exactly when it is the half-sum lift of one
pairwise set d that comes from a tree, so the triple queries read d
(:func:`~treeweights.weights.pairwise_fit`).  On an exact lift with at
least 5 labels at tol 0 this keeps every answer the triple windows give:
which pairs hold, their common difference, the bells, and the prune with
consistent twigs.  The triple-space reference loops referee that here.
"""

from itertools import permutations, product

import pytest

from treeweights import (
    InstanceTooSmallError,
    Pseudobell,
    TripleWeights,
    complete_pseudobells,
    derived_pairwise_consistent,
    doubles_of_tree,
    neighbor_pairs,
    nj_from_triples,
    prune_triples,
    random_tree,
    reconstruct_from_triples,
    s_matrix_triples,
    star_condition_triples,
    star_table,
    tree_equal,
    triples_of_tree,
)
from treeweights.reconstruct import _prune_plan
from conftest import CROSS_PATH_SEEDS, cross_path_cases
from reference_loops import (
    bell_twigs_loop,
    lift_fit_loop,
    prune_loop,
    pseudobells_loop,
    star_table_loop,
)

TREES = [
    (n, seed, multi) for n, seed, multi in product(range(5, 9), range(4), (False, True))
]


@pytest.mark.parametrize("n, seed, multi", TREES)
def test_triple_table_is_the_pair_table(n, seed, multi):
    tree = random_tree(n, seed, binary_only=not multi)
    assert star_table(triples_of_tree(tree)) == star_table(doubles_of_tree(tree))


@pytest.mark.parametrize("n, seed, multi", TREES)
def test_holds_and_bells_match_the_triple_loops(n, seed, multi):
    t = triples_of_tree(random_tree(n, seed, binary_only=not multi))
    table, slow = star_table(t), star_table_loop(t, 0)
    assert list(table) == list(slow)
    for pair, res in table.items():
        assert res.holds == slow[pair].holds, pair
        if res.holds:
            assert res.common_difference == slow[pair].common_difference, pair
    assert [b.members for b in complete_pseudobells(t)] == [
        b.members for b in pseudobells_loop(t, 0)
    ]
    assert neighbor_pairs(t) == sorted(p for p, r in slow.items() if r.holds)


@pytest.mark.parametrize("n, seed, multi", [x for x in TREES if x[0] > 5])
def test_prune_matches_the_triple_loop(n, seed, multi):
    # the bells of a lift with their true twigs: the prune through the fit
    # gives the triple reduction, its labels and its merged labels
    tree = random_tree(n, seed, binary_only=not multi)
    t, d = triples_of_tree(tree), doubles_of_tree(tree)
    plan = _prune_plan(complete_pseudobells(t), n, 5)
    assert plan
    twigs = {pb.members: bell_twigs_loop(d, pb.members) for pb in plan}

    def bells():
        return [Pseudobell(members=m, twig_lengths=dict(tw)) for m, tw in twigs.items()]

    reduced, level = prune_triples(t, bells())
    ref, ref_level = prune_loop(t, bells(), 0, 5)
    assert reduced.items() == ref.items()
    assert level.labels_after == ref_level.labels_after
    assert [(b.members, b.z) for b in level.pseudobells] == [
        (b.members, b.z) for b in ref_level.pseudobells
    ]
    # the level's labels are the reduced set's
    assert level.labels_after == reduced.labels


def _bits(x):
    """A value as compared bit for bit: a float's hex form, else the
    exact value with its type."""
    return float.hex(x) if isinstance(x, float) else (type(x), x)


def test_fit_and_residual_are_the_loop_bit_for_bit():
    # on int64, object-int, Fraction and float64 values, realisable,
    # perturbed and jittered: the pair sums add in the loop's order
    for seed in CROSS_PATH_SEEDS:
        for name, t, _ in cross_path_cases(seed, 3):
            residual, fit = t._condition2
            worst, d = lift_fit_loop(t)
            assert _bits(residual) == _bits(worst), (name, seed)
            assert [(k, _bits(v)) for k, v in fit.items()] == [
                (k, _bits(v)) for k, v in d.items()
            ], (name, seed)


@pytest.mark.parametrize("query", [star_table, lambda t: star_condition_triples(t, 1, 2)])
def test_four_labels_refused(query):
    with pytest.raises(InstanceTooSmallError) as exc:
        query(triples_of_tree(random_tree(4, 1)))
    assert (exc.value.required, exc.value.got) == (5, 4)


def test_one_condition2_fit_per_triple_set(monkeypatch):
    # a triple set is immutable, so every query reads one kept fit; each
    # condition-2 computation reads the set's mirror once, so the mirror
    # reads count the fits
    tree = random_tree(12, 3)
    t = triples_of_tree(tree)
    reads = []
    dense = TripleWeights.dense

    def counted(self):
        reads.append(self)
        return dense(self)

    monkeypatch.setattr(TripleWeights, "dense", counted)
    star_table(t)
    neighbor_pairs(t)
    complete_pseudobells(t)
    holds = {(a, b): star_condition_triples(t, a, b).holds for a, b in permutations(t.labels, 2)}
    assert all(holds[a, b] == holds[b, a] for a, b in holds)
    s_matrix_triples(t)
    assert tree_equal(nj_from_triples(t), tree, 0)
    assert tree_equal(reconstruct_from_triples(t)[0], tree, 0)
    assert derived_pairwise_consistent(t, 0)[0] and derived_pairwise_consistent(t, 1)[0]
    assert len(reads) == 1
