"""Classic neighbor joining, the all-bells-per-round pruning variant, and
the triple-weight generalisation.

The selection matrix S[i,j] = (n-2) D[i,j] - row_i - row_j has its global
minimum at a cherry pair on tree data.  Classic NJ joins one pair per
round; the pruning variant scans every column once, confirms candidates
by the star condition, and merges every bell it finds in a single
quadratic round.
"""

from treeweights import (
    cherry_scan,
    doubles_of_tree,
    nj_classic,
    nj_from_triples,
    nj_pruning_detailed,
    random_tree,
    reconstruct_from_doubles,
    s_matrix,
    s_matrix_triples,
    tree_equal,
    triples_of_tree,
)
from treeweights import WeightedTree

quartet = WeightedTree([(1, 5, 1), (2, 5, 2), (5, 6, 5), (3, 6, 3), (4, 6, 4)])
d = doubles_of_tree(quartet)

S = s_matrix(d)
print("quartet S matrix entries:")
for pair, value in sorted(S.entries.items()):
    print(f"  S{pair} = {value}")
print("global minimum pair:", S.argmin_pair())

scan = cherry_scan(d, eps=0)
print("\none scan round confirms:", scan.pairs)
print("entries examined:", scan.entries_examined)
for record in scan.records:
    print(
        f"  column {record.column}: min {record.minimum} at row {record.row}, "
        f"spread {record.spread}, confirmed {record.confirmed}"
    )

# All three pairwise procedures agree on exact data.
t = random_tree(20, seed=11)
data = doubles_of_tree(t)
classic = nj_classic(data)
pruned, rounds = nj_pruning_detailed(data, eps=0)
rebuilt, _ = reconstruct_from_doubles(data)
print("\n20-leaf agreement classic/pruning/reconstruction:",
      tree_equal(classic, pruned, 0) and tree_equal(pruned, rebuilt, 0))
print("pruning rounds (size, bells merged):",
      [(r["size"], len(r["bells"])) for r in rounds if not r["fallback"]])

# The triple-weight criterion selects cherries too: it is an affine image
# of the pairwise one on condition 2's fit d, and triple NJ joins on d.
tri = triples_of_tree(random_tree(9, seed=4))
S3 = s_matrix_triples(tri)
print("\ntriple S minimum pair:", S3.argmin_pair())
joined = nj_from_triples(tri)
print("triple NJ rebuilds the generator:",
      tree_equal(joined, random_tree(9, seed=4), 0))
