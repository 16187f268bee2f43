"""The small-instance ground truth: enumerate every topology, fit exactly.

For up to 8 leaves the oracle lists every leaf-labelled shape (binary
counts follow the double factorial 1, 3, 15, 105, ...) and returns the
first shape that fits the data exactly.  Each shape's edge weights follow
from the data in closed form (a tripod or quartet of pairwise values per
edge, through derived pairwise values for triples), and every shape of a
size is decided in one stacked integer product, so n = 8 takes seconds.
It is the independent referee the decision procedures are tested against.
"""

from fractions import Fraction

from treeweights import (
    Topology,
    doubles_of_tree,
    enumerate_topologies,
    fit_weights,
    random_tree,
    realizable_brute,
    reconstruct_from_doubles,
    to_newick,
    tree_equal,
    triples_of_tree,
)

for n in (4, 5, 6):
    binary = len(list(enumerate_topologies(n)))
    every = len(list(enumerate_topologies(n, include_multifurcating=True)))
    print(f"n={n}: {binary} binary shapes, {every} with multifurcations")

# Fit a known quartet: the right split recovers the weights, the wrong
# split has no solution.
quartet = Topology([(1, 9), (2, 9), (9, 10), (3, 10), (4, 10)])
wrong = Topology([(1, 9), (3, 9), (9, 10), (2, 10), (4, 10)])
target = doubles_of_tree(quartet.with_weights(
    {(1, 9): 1, (2, 9): 2, (3, 10): 3, (4, 10): 4, (9, 10): 5}
))
print("\nfit on the true split:", fit_weights(quartet, target))
print("fit on the wrong split:", fit_weights(wrong, target))

# Brute force agrees with the decision procedure, verdict and tree.
t = random_tree(6, seed=13, weight_min=Fraction(1, 2), weight_max=8)
d = doubles_of_tree(t)
brute = realizable_brute(d)
rebuilt, _ = reconstruct_from_doubles(d)
print("\nbrute-force tree:  ", to_newick(brute))
print("reconstructed tree:", to_newick(rebuilt))
print("agree:", tree_equal(brute, rebuilt, 0))

# An unrealisable perturbation is refused by both.
vals = dict(d.items())
vals[(1, 4)] = vals[(1, 4)] + Fraction(1, 3)
from treeweights import DoubleWeights, ReconstructionError

perturbed = DoubleWeights(vals)
print("\nperturbed doubles, brute force:", realizable_brute(perturbed))
try:
    reconstruct_from_doubles(perturbed)
except ReconstructionError as err:
    print("perturbed doubles, decision procedure:", err.kind)

# Positivity filtering: from five leaves up, triple weights pin the tree
# down, so data from a tree with a negative twig is realizable but not by
# any positive-weighted tree.  (Four-leaf triple data is underdetermined:
# a positive star can absorb a negative twig.)
from treeweights import WeightedTree

bent5 = triples_of_tree(
    WeightedTree(
        [(1, 6, -1), (2, 6, 2), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
    )
)
print("\nnegative-twig data realizable:", realizable_brute(bent5) is not None)
print("with positivity required:", realizable_brute(bent5, require_positive=True))
