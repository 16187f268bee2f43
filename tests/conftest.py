"""Shared fixtures: the two hand-instantiated reference trees, and
``arrays``, which sends weight files of any size to the bulk reader.

The caterpillar has twigs 1,2 on one stalk, twig 3 in the middle, twigs
4,5 on the other stalk, inner edges 6 and 7.  The quartet has cherries
{1,2} (twigs 1,2) and {3,4} (twigs 3,4) around an inner edge of 5.
All expected values in the tests were computed by hand from these.
"""

import copy
import itertools
import random
from fractions import Fraction

import pytest

from treeweights import (
    DoubleWeights,
    TripleWeights,
    WeightedTree,
    doubles_of_tree,
    random_tree,
    triples_of_tree,
)
from treeweights import reconstruct as reconstruct_mod
from treeweights import weights as weights_mod


def make_caterpillar():
    return WeightedTree(
        [(1, 6, 1), (2, 6, 2), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
    )


def make_quartet():
    return WeightedTree([(1, 5, 1), (2, 5, 2), (5, 6, 5), (3, 6, 3), (4, 6, 4)])


CATERPILLAR_TRIPLES = {
    (1, 2, 3): 12,
    (1, 2, 4): 20,
    (1, 2, 5): 21,
    (1, 3, 4): 21,
    (1, 3, 5): 22,
    (1, 4, 5): 23,
    (2, 3, 4): 22,
    (2, 3, 5): 23,
    (2, 4, 5): 24,
    (3, 4, 5): 19,
}

QUARTET_DOUBLES = {
    (1, 2): 3,
    (1, 3): 9,
    (1, 4): 10,
    (2, 3): 10,
    (2, 4): 11,
    (3, 4): 7,
}


@pytest.fixture
def arrays(monkeypatch):
    """Weight files of any size on the bulk path: it otherwise leaves files
    under ``_FEW_BYTES`` to the line parser, and many test files are short."""
    monkeypatch.setattr(weights_mod, "_FEW_BYTES", 0)


@pytest.fixture
def caterpillar():
    return make_caterpillar()


@pytest.fixture
def quartet():
    return make_quartet()


@pytest.fixture
def cat_triples(caterpillar):
    return triples_of_tree(caterpillar)


@pytest.fixture
def cat_doubles(caterpillar):
    return doubles_of_tree(caterpillar)


@pytest.fixture
def quartet_doubles(quartet):
    return doubles_of_tree(quartet)


def float_caterpillar(n, seed=0):
    """A float tree on leaves 1..n whose spine carries one leaf per node,
    with a cherry at each end, weights uniform in [1, 10]: n/2 - 2
    pruning levels, each pruning only the two cherries."""
    rng = random.Random(seed)
    spine = list(range(n + 1, 2 * n - 1))  # n - 2 spine nodes
    edges = [(1, spine[0]), (2, spine[0]), (n - 1, spine[-1]), (n, spine[-1])]
    edges += [(leaf, node) for leaf, node in zip(range(3, n - 1), spine[1:-1])]
    edges += list(zip(spine, spine[1:]))
    return WeightedTree([(u, v, rng.uniform(1, 10)) for u, v in edges])


def reconstruct_keeping_mirrors(d, tol=0):
    """``reconstruct_from_doubles(d, tol)`` with a copy of the carried
    mirror after each level (the driver prunes through
    ``reconstruct.prune_doubles`` once per level): (tree, trace, mirrors)."""
    mirrors = []
    prune = reconstruct_mod.prune_doubles

    def keep(*args, **kwargs):
        out = prune(*args, **kwargs)
        mirrors.append(copy.copy(out[0]))
        return out

    reconstruct_mod.prune_doubles = keep
    try:
        tree, trace = reconstruct_mod.reconstruct_from_doubles(d, tol)
    finally:
        reconstruct_mod.prune_doubles = prune
    return tree, trace, mirrors


def steiner_brute(tree, subset):
    """Minimal total weight over all connected edge subsets spanning the
    given leaves; independent of the traversal-based k_weight."""
    wanted = set(subset)
    best = None
    for r in range(len(tree.edges) + 1):
        for combo in itertools.combinations(tree.edges, r):
            nodes = {u for u, _, _ in combo} | {v for _, v, _ in combo}
            if not wanted <= nodes:
                continue
            adj = {}
            for u, v, _ in combo:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            start = next(iter(nodes))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen != nodes:
                continue
            total = sum(w for _, _, w in combo)
            if best is None or total < best:
                best = total
    return best


# --------------------------------------------------------------------- #
# Cross-path cases: block kernels against the reference loops            #
# --------------------------------------------------------------------- #

CROSS_PATH_SEEDS = range(12)


def exact_or_float(x):
    """Comparison key: floats bitwise (by repr), exact values by value."""
    return ("float", repr(x)) if isinstance(x, float) else ("exact", Fraction(x))


def cross_path_cases(seed, order):
    """(name, container, tol) over one random tree of the given order.

    Five mirrors: exact data (int64), float data (float64), exact data on
    a wide denominator (int64 on a scale past 10**9), exact data whose
    scaled magnitudes pass the int64 headroom (``object`` Python ints), and
    exact data whose scale passes ``_DENSE_SCALE_BITS`` (an ``object``
    array of Fractions).  Each is given as realisable, with two entries
    perturbed, and with every entry jittered within a positive tolerance.
    The name starts with the mirror's dtype, or "wide-scale" for the third
    and "fractions" for the fifth.
    """
    rng = random.Random(seed)
    n = rng.randint(5, 12 if order == 2 else 8)
    multi = seed % 3 == 0
    of_tree = doubles_of_tree if order == 2 else triples_of_tree
    cls = DoubleWeights if order == 2 else TripleWeights
    exact = dict(of_tree(random_tree(n, seed, binary_only=not multi)).items())
    floats = dict(
        of_tree(random_tree(n, seed, binary_only=not multi, mode="float")).items()
    )
    # a scaled tree is still a tree: one on a wide scale, one whose scaled
    # magnitudes (a prime denominator near 2**61) pass int64's headroom
    wide = {k: v * Fraction(10**9 + 7, 10**9 + 9) for k, v in exact.items()}
    huge = {k: v * Fraction(2**61 + 1, 2**61 - 1) for k, v in exact.items()}
    # and one whose common denominator 3**2600 is longer than 4096 bits
    fracs = {k: v * Fraction(3**2600 + 1, 3**2600) for k, v in exact.items()}
    cases = []
    for name, vals, exact_tol, step, tol in (
        ("int64", exact, 0, Fraction(1, 3), Fraction(1, 50)),
        ("float64", floats, 1e-9, 0.3, 0.02),
        ("wide-scale", wide, 0, Fraction(1, 3), Fraction(1, 50)),
        ("object", huge, 0, Fraction(1, 3), Fraction(1, 50)),
        ("fractions", fracs, 0, Fraction(1, 3), Fraction(1, 50)),
    ):
        keys = sorted(vals)
        bumped = dict(vals)
        for key in rng.sample(keys, 2):
            bumped[key] = bumped[key] + step * rng.choice((-2, -1, 1, 2))
        jitter = {k: v + tol * rng.choice((-1, 0, 1)) / 4 for k, v in vals.items()}
        cases += [
            (f"{name}-tree", cls(vals, labels=range(1, n + 1)), exact_tol),
            (f"{name}-bumped", cls(bumped, labels=range(1, n + 1)), exact_tol),
            (f"{name}-jitter", cls(jitter, labels=range(1, n + 1)), tol),
        ]
    return cases


def late_failing_caterpillar(n, rng):
    """Path sums of a caterpillar whose leaves sit along the spine in label
    order (n >= 5), with d(n - 1, n) raised past twice its last spine edge:
    only the quadruples (x, n - 2, n - 1, n) fail, so the first failure is
    (1, n - 2, n - 1, n), the last quadruple whose first label is 1."""
    spine = [n + t for t in range(1, n - 1)]
    edges = [(1, spine[0], rng.randint(1, 9)), (2, spine[0], rng.randint(1, 9))]
    edges += [(k, spine[k - 2], rng.randint(1, 9)) for k in range(3, n - 1)]
    edges += [(n - 1, spine[-1], rng.randint(1, 9)), (n, spine[-1], rng.randint(1, 9))]
    steps = [rng.randint(2, 9) for _ in spine[1:]]
    edges += [(a, b, w) for a, b, w in zip(spine, spine[1:], steps)]
    values = dict(doubles_of_tree(WeightedTree(edges)).items())
    values[(n - 1, n)] += 2 * steps[-1] + Fraction(rng.randint(1, 10), 7)
    return values
