"""Seeded inputs and their answer key, built without the treeweights package.

Trees, path sums, triple sums and the certificates of unrealisable inputs
are all computed here from first principles, so that a defect in the
package cannot hide in its own test data.  Every certificate is checked
when the input is made; a failed check raises ``CertificateError``.

Certificates:

* accept: the exact path sums (and splits) of the generated tree;
* pairwise reject: a quartet whose three sums d_ij + d_kl are pairwise
  different.  In any tree two of them are equal (the two largest when the
  inner edge is non-negative, but equal in every case), so no tree with
  real edge weights produces such a quartet.  For float data the gap
  between the closest two of the sums must exceed 4 * slack, where slack is
  the largest deviation the program's verification step can tolerate;
* lifted triple reject: the half-sum lift of such a pair set.  The lift is
  injective for n >= 5 (the derived-pairwise formula inverts it), which is
  checked by inverting it, so the lifted triples are realisable only if
  the pair set is;
* single-triple reject: one triple changed so that two {r, s, u} choices
  give different derived pair values, which no tree allows.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


class CertificateError(RuntimeError):
    """A generated input failed the check of its own certificate."""


# --------------------------------------------------------------------- #
# Trees                                                                  #
# --------------------------------------------------------------------- #


class Tree:
    """Edge list over leaves 1..n and internal nodes n+1...

    ``edges`` is a list of (u, v, weight).
    """

    def __init__(self, n, edges):
        self.n = n
        self.edges = edges

    def adjacency(self):
        adj = {}
        for u, v, w in self.edges:
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
        return adj


def random_topology(rng: random.Random, n: int, multifurcating: bool):
    """Unweighted tree on leaves 1..n by random leaf insertion.

    Each new leaf subdivides a uniformly chosen edge; in multifurcating
    mode it joins an existing internal node instead with probability 1/3.
    """
    if n < 3:
        raise ValueError("trees need at least 3 leaves here")
    hub = n + 1
    edges = [(1, hub), (2, hub), (3, hub)]
    internal = [hub]
    next_id = hub + 1
    for leaf in range(4, n + 1):
        if multifurcating and rng.random() < 1 / 3:
            edges.append((leaf, rng.choice(internal)))
            continue
        k = rng.randrange(len(edges))
        u, v = edges[k]
        x = next_id
        next_id += 1
        internal.append(x)
        edges[k] = (u, x)
        edges.extend([(x, v), (leaf, x)])
    return edges


def grid_weight(rng):
    return Fraction(rng.randint(1, 40), 4)


def float_weight(rng):
    return rng.uniform(0.5, 10.0)


# Distinct primes over 1000: any input using three of them has a common
# denominator above 10**7, where the package stops mirroring into int64.
_BIG_PRIMES = [p for p in range(1009, 4000) if all(p % q for q in range(2, 64))]


def random_tree(shape_rng, rng, n, multifurcating=False, kind="grid"):
    """Weighted tree: the topology (and which edges get prime denominators)
    from ``shape_rng``, the weights from ``rng``.  ``kind``: "grid"
    (multiples of 1/4), "coprime" (grid, plus four edges whose denominators
    are distinct primes over 1000) or "float"."""
    topo = random_topology(shape_rng, n, multifurcating)
    if kind == "float":
        weights = [float_weight(rng) for _ in topo]
    else:
        weights = [grid_weight(rng) for _ in topo]
        if kind == "coprime":
            for k in shape_rng.sample(range(len(topo)), 4):
                p = rng.choice(_BIG_PRIMES)
                while any(w.denominator == p for w in weights):
                    p = rng.choice(_BIG_PRIMES)
                weights[k] = Fraction(rng.randint(p // 2, 10 * p), p)
    return Tree(n, [(u, v, w) for (u, v), w in zip(topo, weights)])


def relabel(perm, tree=None, values=None):
    """Leaf labels mapped through ``perm`` (a dict on 1..n): the tree's
    leaves, and the keys of a pair or triple value map (kept sorted)."""
    out_tree = None if tree is None else Tree(
        tree.n, [(perm.get(u, u), perm.get(v, v), w) for u, v, w in tree.edges])
    out_values = None if values is None else {
        tuple(sorted(perm[x] for x in key)): v for key, v in values.items()}
    return out_tree, out_values


def path_sums(tree: Tree):
    """{(a, b): distance} over leaf pairs a < b, one traversal per leaf."""
    adj = tree.adjacency()
    out = {}
    for a in range(1, tree.n + 1):
        dist = {a: 0}
        stack = [a]
        while stack:
            x = stack.pop()
            for y, w in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + w
                    stack.append(y)
        for b in range(a + 1, tree.n + 1):
            out[(a, b)] = dist[b]
    return out


def edge_splits(tree: Tree):
    """[(split, weight)] per edge, in ``tree.edges`` order.  The split of an
    edge is the frozenset of leaves on its side away from leaf 1."""
    adj = tree.adjacency()
    parent = {1: None}
    order = [1]
    for x in order:
        for y, _ in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    below = {}
    for x in reversed(order):
        leaves = {x} if x <= tree.n else set()
        for y, _ in adj[x]:
            if parent.get(y) == x:
                leaves |= below[y]
        below[x] = frozenset(leaves)
    return [(below[v if parent.get(v) == u else u], w) for u, v, w in tree.edges]


def splits(tree: Tree, min_weight=None):
    """Set of edge splits; edges with |weight| <= ``min_weight`` are
    skipped when it is given."""
    return {
        s for s, w in edge_splits(tree) if min_weight is None or abs(w) > min_weight
    }


# --------------------------------------------------------------------- #
# Pair and triple data                                                   #
# --------------------------------------------------------------------- #


def lift(d, n):
    """Half-sum lift: T_ijk = (d_ij + d_ik + d_jk) / 2."""
    half = Fraction(1, 2)
    return {
        (i, j, k): half * (d[(i, j)] + d[(i, k)] + d[(j, k)])
        for i, j, k in itertools.combinations(range(1, n + 1), 3)
    }


def _t(T, *key):
    return T[tuple(sorted(key))]


def derived(T, i, j, r, s, u):
    """Pair value for (i, j) recovered from triples around {r, s, u}."""
    plus = _t(T, i, j, r) + _t(T, i, j, s) + _t(T, i, j, u) + _t(T, r, s, u)
    minus = (
        _t(T, i, r, s) + _t(T, i, r, u) + _t(T, i, s, u)
        + _t(T, j, r, s) + _t(T, j, r, u) + _t(T, j, s, u)
    )
    return Fraction(2, 3) * plus - Fraction(1, 3) * minus


def quartet_gap(d, quad):
    """Smallest difference between the three pair sums of a quartet."""
    i, j, k, h = quad
    sums = sorted(
        (d[(i, j)] + d[(k, h)], d[(i, k)] + d[(j, h)], d[(i, h)] + d[(j, k)])
    )
    return min(sums[1] - sums[0], sums[2] - sums[1])


def find_quartet_witness(d, n, pair, min_gap):
    """A quartet containing ``pair`` whose three sums differ pairwise by
    more than ``min_gap``, or None."""
    a, b = pair
    others = [g for g in range(1, n + 1) if g not in pair]
    for c, e in itertools.combinations(others, 2):
        quad = tuple(sorted((a, b, c, e)))
        if quartet_gap(d, quad) > min_gap:
            return quad
    return None


def perturb_pairs(shape_rng, d, n, step, min_gap):
    """Copy of ``d`` with one entry moved by +-``step``, and its quartet
    certificate.  ``shape_rng`` orders the candidate entries, so the moved
    pair sits at the same place in the tree whatever the weights."""
    for pair in shape_rng.sample(sorted(d), min(len(d), 200)):
        moved = dict(d)
        moved[pair] = d[pair] + (step if shape_rng.random() < 0.5 else -step)
        quad = find_quartet_witness(moved, n, pair, min_gap)
        if quad is not None:
            return moved, quad
    raise CertificateError("no perturbation produced a quartet certificate")


def check_quartet(d, quad, min_gap):
    if not quartet_gap(d, quad) > min_gap:
        raise CertificateError(f"quartet {quad} does not certify rejection")


def check_lift_injective(T, d, n):
    """Recover every d_ij from T with one {r, s, u} and compare."""
    for i, j in itertools.combinations(range(1, n + 1), 2):
        r, s, u = [g for g in range(1, n + 1) if g not in (i, j)][:3]
        if derived(T, i, j, r, s, u) != d[(i, j)]:
            raise CertificateError(f"half-sum lift not inverted at {(i, j)}")


def perturb_triple(shape_rng, T, n, step):
    """Copy of ``T`` with one triple {i, j, k} (chosen by ``shape_rng``)
    moved by ``step``, and its certificate: the pair (i, j) with one
    {r, s, u} that contains k and one that does not.  Needs n >= 6."""
    key = shape_rng.choice(sorted(T))
    moved = dict(T)
    moved[key] = T[key] + step
    i, j, k = key
    rest = [g for g in range(1, n + 1) if g not in key]
    witness = ((i, j), (k, rest[0], rest[1]), tuple(rest[:3]))
    check_triple_witness(moved, witness)
    return moved, witness


def check_triple_witness(T, witness):
    (i, j), rsu_a, rsu_b = witness
    if derived(T, i, j, *rsu_a) == derived(T, i, j, *rsu_b):
        raise CertificateError(f"derived values agree for pair {(i, j)}")


# --------------------------------------------------------------------- #
# Files                                                                  #
# --------------------------------------------------------------------- #


def fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    return str(int(value))


def weight_file(values, n, order):
    lines = [str(n)]
    for key in itertools.combinations(range(1, n + 1), order):
        lines.append(" ".join(map(str, key)) + " " + fmt(values[key]))
    return "\n".join(lines) + "\n"
