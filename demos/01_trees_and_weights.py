"""Trees, their pairwise / triple / subtree weights, and serialisation.

A weighted tree with n labelled leaves induces one number per leaf pair
(the path weight), one per leaf triple (the weight of the minimal subtree
spanning the three), and in general one per leaf subset.  This script
builds the two reference trees used throughout the demos and prints their
weight sets.
"""

from fractions import Fraction

from treeweights import (
    WeightedTree,
    canonicalize,
    doubles_of_tree,
    k_weight,
    parse_newick,
    to_newick,
    tree_equal,
    triples_of_tree,
)

# A 5-leaf caterpillar: leaves 1,2 hang off node 6, leaf 3 off node 7,
# leaves 4,5 off node 8, with inner edges 6-7 and 7-8.
caterpillar = WeightedTree(
    [(1, 6, 1), (2, 6, 2), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
)

print("caterpillar:", to_newick(caterpillar))
print("distance 1-2:", k_weight(caterpillar, [1, 2]))
print("distance 1-4:", k_weight(caterpillar, [1, 4]))
print("triple weight {1,2,3}:", k_weight(caterpillar, [1, 2, 3]))
print("subtree weight {1,2,4,5}:", k_weight(caterpillar, [1, 2, 4, 5]))
print("subtree weight of all leaves:", k_weight(caterpillar, [1, 2, 3, 4, 5]))

# The triple weight is always half the sum of the three pairwise distances,
# which come, like every pair and triple weight, from one path-sum pass.
doubles = doubles_of_tree(caterpillar)
lhs = triples_of_tree(caterpillar).value(1, 3, 5)
rhs = Fraction(1, 2) * (doubles.value(1, 3) + doubles.value(1, 5) + doubles.value(3, 5))
print("half-sum identity:", lhs, "==", rhs)

print("\nall pairwise weights:")
for pair, value in doubles.items():
    print("  D", pair, "=", value)

print("\nall triple weights:")
for trip, value in triples_of_tree(caterpillar).items():
    print("  D", trip, "=", value)

# Degree-2 nodes are invisible to every weight query; canonicalize removes
# them and tree_equal compares canonical forms.
subdivided = WeightedTree(
    [(1, 6, 1), (2, 6, 2), (6, 9, 2), (9, 7, 4), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
)
print("\nsubdivided copy is canonical:", subdivided.is_canonical())
print("equal after canonicalization:", tree_equal(subdivided, caterpillar, 0))
print("canonical form:", to_newick(canonicalize(subdivided)))

# Newick round trip is exact in rational mode.
back = parse_newick(to_newick(caterpillar), mode="rational")
print("Newick round trip exact:", tree_equal(back, caterpillar, 0))
