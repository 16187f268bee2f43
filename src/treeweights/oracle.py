"""Exhaustive ground truth for small instances.

Enumerates every leaf-labelled tree topology (binary counts follow the
double factorial (2n-5)!!) and reports the first one, in enumeration
order, whose edge weights realise a target weight set exactly.

**Closed-form fit.**  On a topology, an edge weight is a fixed integer
combination of the pairwise values: a pendant edge to leaf x weighs
(d(x,p) + d(x,q) - d(p,q)) / 2 and an inner edge (u, v) weighs
(d(a,b) + d(a',b') - d(a,a') - d(b,b')) / 2, where p, q (or a, a') and
b, b' are the smallest leaves of two neighbour subtrees at the inner ends.
For triples on n >= 5 labels each pairwise value is first recovered from
the triples around it and one fixed {r, s, u}:

    3 d(i,j) = 2 (D_ijr + D_ijs + D_iju + D_rsu)
             - (D_irs + D_iru + D_isu + D_jrs + D_jru + D_jsu)

so the triple fit is the pair fit composed with that map.  Either way the
topology gets an integer matrix c·L (c = 2 for pairs, 6 for triples) with
L·A = I for its 0/1 incidence matrix A.  Every enumerated topology has
full column rank here, so a realisation is unique, and x = L·b realises
b exactly when A·x == b.  Triples on 3 or 4 labels, where the formula
does not apply and the binary shapes are rank-deficient, keep exact row
reduction (:func:`_solve_general`).

**Stacks.**  For each (n, order), A and c·L of every topology are stacked
in enumeration order as int8 arrays, zero-padded to the largest edge
count.  A query scales b to integers and decides a chunk of topologies
per batched product, returning at the first chunk with a hit.  When
|b| · (row L1 norm of c·L) · (edges per row) could reach 2**62 the product
runs on Python ints (``object`` arrays), so no path can wrap int64.

Everything is rational: the oracle exists to certify the decision
procedures and must not inherit float noise, and it shares no code with
them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .numeric import is_exact
from .tree import WeightedTree, contract_zero_internal_edges
from .weights import DoubleWeights

# array elements (topologies x edges x rows) per chunk of a batched product
CHUNK_ELEMS = 1 << 20

# int64 products stay below this bound; larger ones run on Python ints
_INT64_HEADROOM = 1 << 62


class Topology:
    """Unweighted leaf-labelled tree shape; hashable by canonical form."""

    __slots__ = ("edges", "leaves", "_adj", "_key")

    def __init__(self, edges):
        adj = {}
        canon = []
        for u, v in edges:
            a, b = (u, v) if u < v else (v, u)
            canon.append((a, b))
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        self.edges = tuple(sorted(canon))
        self._adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}
        self.leaves = tuple(sorted(v for v, nb in adj.items() if len(nb) == 1))
        self._key = None

    @property
    def n(self):
        return len(self.leaves)

    @property
    def max_node(self):
        return max(self._adj)

    def internal_nodes(self):
        leafset = set(self.leaves)
        return [v for v in sorted(self._adj) if v not in leafset]

    def canonical_key(self):
        if self._key is not None:
            return self._key
        if self.n == 2:
            self._key = ("edge", self.leaves)
            return self._key
        root = self._adj[self.leaves[0]][0]
        parent = {root: None}
        order = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
                    stack.append(y)
        key = {}
        for v in reversed(order):
            kids = sorted(key[y] for y in self._adj[v] if y != parent[v])
            if not kids:
                key[v] = (v,)
            else:
                key[v] = (min(k[0] for k in kids), tuple(kids))
        self._key = key[root]
        return self._key

    def with_weights(self, weight_map) -> WeightedTree:
        return WeightedTree([(u, v, weight_map[(u, v)]) for u, v in self.edges])

    def __repr__(self):
        return f"Topology(n={self.n}, edges={len(self.edges)})"


@lru_cache(maxsize=32)
def _topology_list(n: int, include_multifurcating: bool):
    if not 2 <= n <= 8:
        raise ValueError("topology enumeration supports 2 <= n <= 8")
    # Inserting leaf m on every edge and at every inner node is one-to-one:
    # deleting m and suppressing the degree-2 node it leaves undoes it, so
    # no two candidates share a topology and nothing needs deduplicating.
    current = [Topology([(1, 2)])]
    for m in range(3, n + 1):
        nxt = []
        for topo in current:
            fresh = max(topo.max_node, n) + 1  # internal ids clear of leaf labels
            for u, v in topo.edges:
                rest = [e for e in topo.edges if e != (u, v)]
                nxt.append(Topology(rest + [(u, fresh), (fresh, v), (m, fresh)]))
            if include_multifurcating:
                for x in topo.internal_nodes():
                    nxt.append(Topology(list(topo.edges) + [(m, x)]))
        current = nxt
    return tuple(current)


def enumerate_topologies(n: int, include_multifurcating: bool = False):
    """Yield each isomorphism class exactly once, in a fixed order: leaf m
    is inserted on every edge, then at every inner node, of each topology
    on the labels below m, which never yields one class twice."""
    yield from _topology_list(n, include_multifurcating)


# --------------------------------------------------------------------- #
# Closed-form fit arrays                                                 #
# --------------------------------------------------------------------- #


def _low_leaf(mask):
    """Position of the lowest set bit: the smallest leaf of a leaf set."""
    return (mask & -mask).bit_length() - 1


def _sides_and_quartets(topo: Topology, closed: bool):
    """Leaf bitmasks and pairwise fit terms of one topology's edges.

    Bit i stands for ``topo.leaves[i]``.  ``sides[e]`` holds the leaves on
    the smaller-id end of edge e.  With ``closed``, ``terms[e]`` lists the
    (i, j, coefficient) of leaf positions whose pairwise values sum to
    twice the weight of edge e; otherwise ``terms`` is None.
    """
    bit = {lab: 1 << i for i, lab in enumerate(topo.leaves)}
    full = (1 << len(bit)) - 1
    adj = topo._adj
    root = topo.leaves[0]
    parent = {root: None}
    order = [root]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    below = {}
    for v in reversed(order):
        mask = bit.get(v, 0)
        for y in adj[v]:
            if y != parent[v]:
                mask |= below[y]
        below[v] = mask

    def beyond(x, y):
        """Leaves reached from x through its neighbour y."""
        return below[y] if parent[y] == x else full ^ below[x]

    sides = [beyond(v, u) for u, v in topo.edges]
    if not closed:
        return sides, None
    # each inner node's neighbour subtrees, ordered by their smallest leaf
    around = {
        x: sorted((_low_leaf(beyond(x, y)), y) for y in nb)
        for x, nb in adj.items()
        if x not in bit
    }

    def two_reps(x, skip):
        first, second = [leaf for leaf, y in around[x] if y != skip][:2]
        return first, second

    terms = []
    for u, v in topo.edges:
        if u in bit or v in bit:
            leaf, inner = (u, v) if u in bit else (v, u)
            x = _low_leaf(bit[leaf])
            p, q = two_reps(inner, leaf)
            terms.append(((x, p, 1), (x, q, 1), (p, q, -1)))
        else:
            a, a2 = two_reps(u, v)
            b, b2 = two_reps(v, u)
            terms.append(((a, b, 1), (a2, b2, 1), (a, a2, -1), (b, b2, -1)))
    return sides, terms


def _derived_map(n: int):
    """3 x (pairwise value from triples), as a (pairs x triples) int matrix.

    Row (i, j) uses the three smallest other positions as {r, s, u}.
    """
    triple_index = {t: k for k, t in enumerate(combinations(range(n), 3))}
    pairs = list(combinations(range(n), 2))
    out = np.zeros((len(pairs), len(triple_index)), dtype=np.int64)
    for row, (i, j) in enumerate(pairs):
        r, s, u = [g for g in range(n) if g != i and g != j][:3]
        for trip in ((i, j, r), (i, j, s), (i, j, u), (r, s, u)):
            out[row, triple_index[tuple(sorted(trip))]] += 2
        for x in (i, j):
            for trip in ((x, r, s), (x, r, u), (x, s, u)):
                out[row, triple_index[tuple(sorted(trip))]] -= 1
    return out


class _Stack:
    """Fit arrays of topologies on one leaf set, stacked in order.

    ``inc`` (T x R x E, 0/1) is each topology's incidence matrix: row r
    (a leaf subset in ``combinations`` order) includes edge e when the
    subset has leaves on both sides of e.  ``inv`` (T x E x R) holds
    ``scale`` times a left inverse of it, or is None where the closed form
    does not apply (pairs on 2 labels, triples on fewer than 5, or a node
    of degree 2), and rows are then reduced exactly.  Both are int8 and
    zero-padded to the largest edge count E; ``pad`` marks the padding.
    ``l1`` is the largest row L1 norm of ``inv``.
    """

    def __init__(self, topos, order):
        self.topos = topos
        n = topos[0].n
        # the closed form needs every inner node to branch (degree >= 3)
        closed = (n >= 3 if order == 2 else n >= 5) and all(
            len(nb) != 2 for topo in topos for nb in topo._adj.values()
        )
        rows = list(combinations(range(n), order))
        row_masks = np.array([sum(1 << i for i in r) for r in rows], dtype=np.int64)
        pair_index = {p: k for k, p in enumerate(combinations(range(n), 2))}
        derived = _derived_map(n) if closed and order == 3 else None
        n_edges = np.array([len(t.edges) for t in topos])
        e_max = int(n_edges.max())
        count = len(topos)
        self.scale = 2 if order == 2 else 6
        self.inc = np.zeros((count, len(rows), e_max), dtype=np.int8)
        self.inv = np.zeros((count, e_max, len(rows)), dtype=np.int8) if closed else None
        self.pad = np.arange(e_max)[None, :] >= n_edges[:, None]
        self.l1 = 0
        step = max(1, CHUNK_ELEMS // (e_max * max(len(rows), len(pair_index))))
        for lo in range(0, count, step):
            chunk = topos[lo:lo + step]
            sides = np.zeros((len(chunk), e_max), dtype=np.int64)
            fit = np.zeros((len(chunk), e_max, len(pair_index) if closed else 0), np.int64)
            for k, topo in enumerate(chunk):
                masks, terms = _sides_and_quartets(topo, closed)
                sides[k, : len(masks)] = masks
                for e, quartet in enumerate(terms or ()):
                    for i, j, coef in quartet:
                        fit[k, e, pair_index[(i, j) if i < j else (j, i)]] = coef
            onside = sides[:, None, :] & row_masks[None, :, None]
            self.inc[lo:lo + step] = (onside != 0) & (onside != row_masks[None, :, None])
            if not closed:
                continue
            if derived is not None:
                fit = fit @ derived
            self.l1 = max(self.l1, int(np.abs(fit).sum(axis=2).max()))
            if np.abs(fit).max() > np.iinfo(np.int8).max:
                raise AssertionError("fit coefficients outside int8")
            self.inv[lo:lo + step] = fit

    def row_edges(self, t):
        """Edge indices included by each row of topology t's system."""
        real = self.inc[t, :, : len(self.topos[t].edges)]
        return [np.flatnonzero(row).tolist() for row in real]

    def first_fit(self, b, require_positive=False):
        """(index, exact edge weights) of the first topology realising b.

        ``b`` lists exact values in row order.  With ``require_positive``,
        realisations with a non-positive edge are skipped.  None when no
        topology fits.
        """
        if self.inv is None:
            for t, topo in enumerate(self.topos):
                x = _solve_general(self.row_edges(t), len(topo.edges), b)
                if x is None or (require_positive and any(not w > 0 for w in x)):
                    continue
                return t, x
            return None
        den = 1
        for v in b:
            den = math.lcm(den, Fraction(v).denominator)
        ints = [int(v * den) for v in b]
        count, e_max, n_rows = self.inv.shape
        wide = max(map(abs, ints), default=0) * self.l1 * e_max >= _INT64_HEADROOM
        dtype = object if wide else np.int64
        rhs = np.array(ints, dtype=dtype)
        want = self.scale * rhs
        step = max(1, CHUNK_ELEMS // (e_max * n_rows))
        for lo in range(0, count, step):
            inv = self.inv[lo:lo + step]
            inc = self.inc[lo:lo + step]
            if wide:
                inv, inc = inv.astype(object), inc.astype(object)
            y = inv @ rhs
            ok = ((inc @ y[:, :, None])[:, :, 0] == want).all(axis=1)
            if require_positive:
                ok &= ((y > 0) | self.pad[lo:lo + step]).all(axis=1)
            hits = np.flatnonzero(ok)
            if hits.size:
                t = lo + int(hits[0])
                real = y[hits[0], : len(self.topos[t].edges)]
                return t, [Fraction(int(v), self.scale * den) for v in real]
        return None


@lru_cache(maxsize=None)
def _stack(n: int, order: int) -> _Stack:
    return _Stack(_topology_list(n, True), order)


def _solve_general(row_edges, n_edges, b):
    """Exact row reduction of [A | b]; particular solution, free vars 0."""
    aug = []
    for incl, rhs in zip(row_edges, b):
        row = [Fraction(0)] * n_edges
        for e in incl:
            row[e] = Fraction(1)
        aug.append((row, Fraction(rhs)))
    pivots = []
    r = 0
    for col in range(n_edges):
        pivot = next((k for k in range(r, len(aug)) if aug[k][0][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow, prhs = aug[r]
        inv_p = 1 / prow[col]
        prow = [x * inv_p for x in prow]
        prhs = prhs * inv_p
        aug[r] = (prow, prhs)
        for k in range(len(aug)):
            if k != r and aug[k][0][col]:
                factor = aug[k][0][col]
                aug[k] = (
                    [a - factor * p for a, p in zip(aug[k][0], prow)],
                    aug[k][1] - factor * prhs,
                )
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for k in range(r, len(aug)):
        if aug[k][1] != 0:
            return None
    x = [Fraction(0)] * n_edges
    for row_i, col in enumerate(pivots):
        x[col] = aug[row_i][1]
    return x


def _exact_values(target):
    b = [v for _, v in target.items()]
    if not all(is_exact(v) for v in b):
        raise TypeError("the oracle is exact: weights must be Fractions or ints")
    return b


def fit_weights(topo: Topology, target):
    """Exact edge weights realising *target* on *topo*, or None.

    The target order (pairs or triples) picks the incidence system; the
    labels must match the topology's leaves.  Rational values only.
    """
    if tuple(sorted(target.labels)) != topo.leaves:
        raise ValueError("target labels do not match the topology's leaves")
    b = _exact_values(target)
    hit = _Stack((topo,), target.order).first_fit(b)
    if hit is None:
        return None
    return dict(zip(topo.edges, hit[1]))


def realizable_brute(target, require_positive: bool = False):
    """First tree (canonical enumeration order) realising the target.

    Scans every topology with up to 8 leaves, multifurcating included;
    with ``require_positive`` realisations with a non-positive edge are
    skipped.  Returns a WeightedTree on the target's own labels, or None.
    """
    n = target.n
    if not 2 <= n <= 8:
        raise ValueError("realizable_brute supports 2 <= n <= 8 labels")
    labels = target.labels
    std = tuple(range(1, n + 1))
    if labels != std:
        back = dict(zip(std, labels))
        work = target.relabel(dict(zip(labels, std)))
    else:
        back = None
        work = target
    if isinstance(work, DoubleWeights) and n == 2:
        a, b = work.labels
        w = work.value(a, b)
        if require_positive and not w > 0:
            return None
        tree = WeightedTree([(a, b, w)])
        return tree if back is None else _relabel_tree(tree, back)
    stack = _stack(n, work.order)
    hit = stack.first_fit(_exact_values(work), require_positive)
    if hit is None:
        return None
    t, weights = hit
    topo = stack.topos[t]
    # a binary shape with zero inner edges fits first whenever the data
    # comes from a multifurcating tree; contract to the unique form
    tree = contract_zero_internal_edges(topo.with_weights(dict(zip(topo.edges, weights))))
    return tree if back is None else _relabel_tree(tree, back)


def _relabel_tree(tree: WeightedTree, leaf_map):
    next_internal = max(leaf_map.values()) + 1
    node_map = {}
    leafset = set(tree.leaves)
    for v in tree.nodes:
        if v in leafset:
            node_map[v] = leaf_map[v]
        else:
            node_map[v] = next_internal
            next_internal += 1
    return WeightedTree([(node_map[u], node_map[v], w) for u, v, w in tree.edges])
