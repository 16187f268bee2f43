"""Bells, the star condition, and reading neighbours off the data alone.

Two leaves are neighbours (form a 2-bell, or cherry) when their paths meet
at a common branching node.  That structural fact leaves a fingerprint in
the weight data: the differences D[a, g] - D[a', g] over all other leaves
g are constant exactly for bell pairs, once there are enough leaves (3).

Triple data is read through the pairwise set d it is the half-sum lift of
(condition 2's fit).  On a lift, the triple difference D[a, g, h] -
D[a', g, h] is the mean of d's differences at g and at h, so the two star
conditions agree once there are 5 leaves, and the queries report d's
differences: their spread and midrange where a pair fails.
"""

from treeweights import (
    WeightedTree,
    cherries,
    doubles_of_tree,
    neighbor_pairs,
    random_tree,
    star_condition_doubles,
    star_condition_triples,
    triples_of_tree,
)

caterpillar = WeightedTree(
    [(1, 6, 1), (2, 6, 2), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
)

print("bells of the caterpillar:")
for bell in cherries(caterpillar):
    print(f"  stalk {bell.stalk}: members {bell.members}, twigs {bell.twig_lengths}")

triples = triples_of_tree(caterpillar)
print("\nstar condition on triple data (on its pairwise fit):")
for pair in [(1, 2), (1, 3), (4, 5)]:
    res = star_condition_triples(triples, *pair)
    print(
        f"  pair {pair}: holds={res.holds}  "
        f"common difference={res.common_difference}  spread={res.max_spread}"
    )

# For a bell pair the common difference is exactly twig(a) - twig(a').
print("\ncommon difference (1,2) equals twig gap 1 - 2 =",
      star_condition_triples(triples, 1, 2).common_difference)

print("\nneighbour pairs read off the triples:", neighbor_pairs(triples))
print("neighbour pairs read off the doubles:",
      neighbor_pairs(doubles_of_tree(caterpillar)))

# The same works for any tree; compare against the structural bells.
t = random_tree(8, seed=5)
found = neighbor_pairs(doubles_of_tree(t))
structural = sorted(p for bell in cherries(t) for p in bell.pairs())
print("\nrandom 8-leaf tree:")
print("  from the data:      ", found)
print("  from the structure: ", structural)

# A star makes every pair a neighbour pair.
star = WeightedTree([(i, 9, 1) for i in range(1, 6)])
print("\n5-star neighbour pairs:", len(neighbor_pairs(triples_of_tree(star))))

# Pairwise data on three leaves is a single vacuous sample.
small = doubles_of_tree(WeightedTree([(1, 4, 1), (2, 4, 2), (3, 4, 3)]))
print("n=3 star condition (one sample):", star_condition_doubles(small, 1, 2).holds)
