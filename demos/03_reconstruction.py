"""Deciding realisability and rebuilding the tree, with a full trace.

Reconstruction prunes complete pseudobells (label sets pairwise passing
the star condition), replacing each by a merged label after subtracting
twig lengths, until a small base case solves in closed form; the recorded
bells are then re-attached.  Every step doubles as a realisability check,
so corrupted data fails fast with a named witness.
"""

from fractions import Fraction

from treeweights import (
    ReconstructionError,
    TripleWeights,
    doubles_of_tree,
    random_tree,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    to_newick,
    tree_equal,
    triples_from_doubles,
    triples_of_tree,
)

# Round trip: weights of a random 12-leaf tree rebuild the tree exactly.
t = random_tree(12, seed=7)
tree, trace = reconstruct_from_triples(triples_of_tree(t), tol=0)
print("12-leaf triple round trip exact:", tree_equal(tree, t, 0))
print("pruning levels:", len(trace.levels))
for i, level in enumerate(trace.levels):
    merged = [f"{pb.members}->{pb.z}" for pb in level.pseudobells]
    print(f"  level {i}: {len(level.labels_before)} labels, merged {merged}")
print("base case on labels:", trace.base_case.labels)
print("positivity certificate:", trace.all_twigs_positive)

# The same from pairwise data, directly or through lifted triples.
d = doubles_of_tree(t)
direct, _ = reconstruct_from_doubles(d, tol=0)
lifted, _ = reconstruct_from_triples(triples_from_doubles(d), tol=0)
print("\npairwise routes agree:", tree_equal(direct, lifted, 0))

# Corrupt one value: the decision procedure rejects with a witness.
data = triples_of_tree(random_tree(9, seed=3))
vals = dict(data.items())
vals[(2, 5, 8)] = vals[(2, 5, 8)] + Fraction(1, 2)
try:
    reconstruct_from_triples(TripleWeights(vals), tol=0)
except ReconstructionError as err:
    print(f"\ncorrupted data rejected: kind={err.kind} level={err.level}")
    print(f"  witness: {err.witness}")

# Negative twig lengths are legal data; the positivity certificate and
# the require_positive flag keep track of them.
from treeweights import WeightedTree

bent = WeightedTree(
    [(1, 6, 1), (2, 6, -2), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
)
tree, trace = reconstruct_from_triples(triples_of_tree(bent))
print("\nnegative-twig data rebuilt:", to_newick(tree))
print("positivity certificate:", trace.all_twigs_positive)
try:
    reconstruct_from_triples(triples_of_tree(bent), require_positive=True)
except ReconstructionError as err:
    print("require_positive rejects:", err.kind, "witness edge:", err.witness)
