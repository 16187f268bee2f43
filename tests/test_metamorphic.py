"""Metamorphic relations of the exact decision, at every n.

The oracle referees n <= 8 only.  Exact tol-0 verdicts also obey relations
that need no oracle: relabelling the leaves, scaling every value by a
positive rational, lifting pairs to their triples and adding one constant
to every value that holds a given label each give the same verdict, and an
accepted instance the correspondingly changed tree.  An accepted instance
restricted to fewer labels is accepted too.

Instances are rational pair or triple sets of ``random_tree``s on 5 to 16
labels, binary and multifurcating, with weights in [-3, 10]; in half of
them one or two values are moved by +-1, +-1/2 or +-1/3, so both verdicts
occur.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    ReconstructionError,
    WeightedTree,
    doubles_of_tree,
    random_tree,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    tree_equal,
    triples_from_doubles,
    triples_of_tree,
)

_STEPS = [Fraction(s, q) for q in (1, 2, 3) for s in (1, -1)]
# 3**40 / 7 takes the exact mirror past int64 to Python ints
_SCALES = [Fraction(1, 3), Fraction(2), Fraction(7, 5), Fraction(3**40, 7)]


def _instance(seed, n, order, binary, moves):
    rng = random.Random(seed)
    t = random_tree(n, seed, weight_min=-3, weight_max=10, binary_only=binary)
    w = doubles_of_tree(t) if order == 2 else triples_of_tree(t)
    values = dict(w.items())
    for key in rng.sample(sorted(values), moves):
        values[key] += rng.choice(_STEPS)
    return type(w)(values), rng


def _decide(w):
    """The tree of an accepted instance, or None for a rejected one."""
    decide = reconstruct_from_doubles if w.order == 2 else reconstruct_from_triples
    try:
        return decide(w, 0)[0]
    except ReconstructionError:
        return None


def _same_verdict(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert tree_equal(got, want, 0)


_seeds, _sizes, _moves = st.integers(0, 10**6), st.integers(5, 16), st.sampled_from([0, 0, 1, 2])
_cases = given(_seeds, _sizes, st.sampled_from([2, 3]), st.booleans(), _moves)
_bounded = settings(max_examples=300, deadline=None)


@_cases
@_bounded
def test_relabelling(seed, n, order, binary, moves):
    w, rng = _instance(seed, n, order, binary, moves)
    image = list(w.labels)
    rng.shuffle(image)
    perm = dict(zip(w.labels, image))
    tree = _decide(w)
    if tree is not None:
        # inner nodes are not labels, so the permutation leaves them alone
        tree = WeightedTree([(perm.get(u, u), perm.get(v, v), x) for u, v, x in tree.edges])
    _same_verdict(_decide(w.relabel(perm)), tree)


@_cases
@_bounded
def test_scaling(seed, n, order, binary, moves):
    w, rng = _instance(seed, n, order, binary, moves)
    c = rng.choice(_SCALES)
    tree = _decide(w)
    if tree is not None:
        tree = WeightedTree([(u, v, c * x) for u, v, x in tree.edges])
    _same_verdict(_decide(type(w)({key: c * v for key, v in w.items()})), tree)


@given(_seeds, _sizes, st.booleans(), _moves)
@_bounded
def test_lift(seed, n, binary, moves):
    d, _ = _instance(seed, n, 2, binary, moves)
    _same_verdict(_decide(triples_from_doubles(d)), _decide(d))


@_cases
@_bounded
def test_row_shift(seed, n, order, binary, moves):
    # every value that holds label i moves by c, as i's pendant edge does
    w, rng = _instance(seed, n, order, binary, moves)
    i, c = rng.choice(w.labels), rng.choice(_STEPS)
    tree = _decide(w)
    if tree is not None:
        tree = WeightedTree([(u, v, x + c if i in (u, v) else x) for u, v, x in tree.edges])
    shifted = type(w)({key: v + c if i in key else v for key, v in w.items()})
    _same_verdict(_decide(shifted), tree)


@_cases
@_bounded
def test_restriction(seed, n, order, binary, moves):
    w, rng = _instance(seed, n, order, binary, moves)
    if _decide(w) is not None:
        labels = rng.sample(w.labels, rng.randint(2 if order == 2 else 5, n))
        assert _decide(w.restrict(labels)) is not None, sorted(labels)
