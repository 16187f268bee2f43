"""Differential suite: the exact decision against the brute-force oracle.

At n = 5 to 8, on exact rational data in both orders,
``reconstruct_from_doubles`` / ``reconstruct_from_triples`` at tol 0 and
``realizable_brute`` must give the same verdict, and on an accept the same
tree (``tree_equal`` at tol 0), with and without ``require_positive``.

The data: random shapes (binary or multifurcating) and caterpillars, with
edge weights in [-3, 9] over denominators 1, 2 and 3, so zero and negative
edges occur; then possibly a move inside the column space of the shape's
incidence matrix (the values of a second tree on the same shape, one that
may zero an edge exactly) or outside it (one entry whose unit vector the
columns do not span, moved by a small rational); then possibly every value
scaled past 2**62.  Scaled values are drawn at n <= 7 only: there the
oracle's Python-int product stays quick, while at n = 8 one query on it
takes seconds.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    DoubleWeights,
    ReconstructionError,
    TripleWeights,
    WeightedTree,
    doubles_of_tree,
    random_tree,
    realizable_brute,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    tree_equal,
    triples_of_tree,
)
from treeweights.oracle import _solve_general

# past 2**62 (about 4.6e18), with a denominator
_BIG = Fraction(3**40, 7)
_weights = st.builds(Fraction, st.integers(-3, 9), st.sampled_from([1, 2, 3]))
_moves = st.builds(Fraction, st.sampled_from([-2, -1, 1, 3]), st.sampled_from([1, 2, 5]))


def _caterpillar(n):
    """Leaves 1..n on a spine of inner nodes n + 1 .. 2n - 2, a cherry at
    each end."""
    spine = list(range(n + 1, 2 * n - 1))
    edges = [(1, spine[0]), (2, spine[0]), (n, spine[-1])]
    edges += [(leaf, spine[leaf - 2]) for leaf in range(3, n)]
    edges += list(zip(spine, spine[1:]))
    return edges


def _values(edges, weights, order):
    tree = WeightedTree([(u, v, w) for (u, v), w in zip(edges, weights)])
    return dict((doubles_of_tree if order == 2 else triples_of_tree)(tree).items())


def _outside_key(edges, values, order, keys):
    """The first of *keys* whose unit vector the shape's incidence columns
    do not span, read off unit-weight trees."""
    cols = [_values(edges, [int(f == e) for f in edges], order) for e in edges]
    rows = {k: [e for e, col in enumerate(cols) if col[k]] for k in values}
    for key in keys:
        unit = [int(k == key) for k in values]
        if _solve_general([rows[k] for k in values], len(edges), unit) is None:
            return key
    return None


@st.composite
def instances(draw):
    n = draw(st.integers(5, 8))
    order = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        tree = random_tree(n, draw(st.integers(0, 10**6)), binary_only=draw(st.booleans()))
        edges = [(u, v) for u, v, _ in tree.edges]
    else:
        edges = _caterpillar(n)
    weights = draw(st.lists(_weights, min_size=len(edges), max_size=len(edges)))
    values = _values(edges, weights, order)
    move = draw(st.sampled_from(["none", "inside", "outside"]))
    if move == "inside":
        # a second tree on the same shape; an edge of -w zeroes that edge
        delta = [draw(st.sampled_from([0, -w, 1, Fraction(-1, 2)])) for w in weights]
        extra = _values(edges, delta, order)
        values = {k: v + extra[k] for k, v in values.items()}
    elif move == "outside":
        keys = draw(st.permutations(sorted(values)))
        values[_outside_key(edges, values, order, keys)] += draw(_moves)
    if n <= 7 and draw(st.booleans()):
        values = {k: v * _BIG for k, v in values.items()}
    return n, order, values, draw(st.booleans())


@given(instances())
@settings(max_examples=150, deadline=None)
def test_reconstruction_agrees_with_the_oracle(case):
    n, order, values, positive = case
    w = (DoubleWeights if order == 2 else TripleWeights)(values)
    decide = reconstruct_from_doubles if order == 2 else reconstruct_from_triples
    try:
        got = decide(w, 0, require_positive=positive)[0]
    except ReconstructionError:
        got = None
    want = realizable_brute(w, require_positive=positive)
    assert (got is None) == (want is None), (got, want)
    if want is not None:
        assert tree_equal(got, want, 0), (got, want)
