"""Exhaustive ground truth for small instances.

Enumerates every leaf-labelled tree topology (binary counts follow the
double factorial (2n-5)!!) and reports the first one, in enumeration
order, whose edge weights realise a target weight set exactly.

**Closed-form fit.**  One rule gives every edge, pendant or inner, as a
fixed integer combination of the pairwise values: twice its weight is
d(a,b) + d(a',b') - d(a,a') - d(b,b'), where a and b are the smallest
leaves on its two sides and a' (b') is the smallest other leaf on that
side whose path to a (b) passes through the edge's end there, or a (b)
itself when that end is a leaf (d(a,a) = 0).  Sides and leaves are read
off the hop distances between a shape's nodes, one Floyd-Warshall pass
per chunk of shapes: a leaf lies on the side of the end it is nearer to.
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
reduction (:func:`_solve_general`), which sets free variables to 0.  So
with positive edges required, one triple on 3 labels is realised by the
star with a third of it per edge when it is positive, and not at all else.

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
from itertools import chain, combinations

import numpy as np

from .numeric import is_exact
from .tree import WeightedTree, contract_zero_internal_edges

# array elements (topologies x edges x rows) per chunk of a batched product
CHUNK_ELEMS = 1 << 20

# int64 products stay below this bound; larger ones run on Python ints
_INT64_HEADROOM = 1 << 62


class Topology:
    """Unweighted leaf-labelled tree shape, as :func:`enumerate_topologies`
    yields it; the oracle's own stacks hold each shape as its edge tuple."""

    __slots__ = ("edges", "leaves", "_adj")

    def __init__(self, edges):
        self.edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
        self._adj = _adjacency(self.edges)
        self.leaves = tuple(sorted(v for v, nb in self._adj.items() if len(nb) == 1))

    @property
    def n(self):
        return len(self.leaves)

    def with_weights(self, weight_map) -> WeightedTree:
        return WeightedTree([(u, v, weight_map[(u, v)]) for u, v in self.edges])

    def __repr__(self):
        return f"Topology(n={self.n}, edges={len(self.edges)})"


def _adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


@lru_cache(maxsize=32)
def _topology_list(n: int, include_multifurcating: bool):
    """Every shape on leaves 1..n as its sorted edge tuple: pairs (u, v)
    with u < v, inner nodes numbered above n."""
    if not 2 <= n <= 8:
        raise ValueError("topology enumeration supports 2 <= n <= 8")
    # Inserting leaf m on every edge and at every inner node is one-to-one:
    # deleting m and suppressing the degree-2 node it leaves undoes it, so
    # no two candidates share a topology and nothing needs deduplicating.
    current = [((1, 2),)]
    for m in range(3, n + 1):
        nxt = []
        for edges in current:
            fresh = max(max(v for _, v in edges), n) + 1  # inner ids clear of leaf labels
            for k, (u, v) in enumerate(edges):
                new = ((u, fresh), (v, fresh), (m, fresh))
                nxt.append(tuple(sorted(edges[:k] + edges[k + 1:] + new)))
            if include_multifurcating:
                for x in sorted({x for e in edges for x in e if x > n}):
                    nxt.append(tuple(sorted(edges + ((m, x),))))
        current = nxt
    return tuple(current)


def enumerate_topologies(n: int, include_multifurcating: bool = False):
    """Yield each isomorphism class exactly once, in a fixed order: leaf m
    is inserted on every edge, then at every inner node, of each topology
    on the labels below m, which never yields one class twice."""
    yield from map(Topology, _topology_list(n, include_multifurcating))


# --------------------------------------------------------------------- #
# Closed-form fit arrays                                                 #
# --------------------------------------------------------------------- #


def _node_arrays(shapes, leaves):
    """The shapes' edge tuples as one (T x E x 2) array over nodes 0..N-1:
    leaves at their positions in *leaves*, inner nodes after them in id
    order.  Padding edges are (0, 0)."""
    e_max = max(map(len, shapes))
    pad = ((leaves[0], leaves[0]),)
    padded = (edges + pad * (e_max - len(edges)) for edges in shapes)
    flat = chain.from_iterable(chain.from_iterable(padded))
    raw = np.fromiter(flat, np.int64, 2 * e_max * len(shapes))
    ids, at = np.unique(raw, return_inverse=True)
    rank = np.argsort(~np.isin(ids, leaves), kind="stable")
    return np.argsort(rank).astype(np.int32)[at].reshape(len(shapes), e_max, 2)


def _near_pair(near, dist, leaf_hops):
    """Per edge, the rule's a and a' on the side whose leaves *near* marks;
    *dist* holds the hops from each leaf to that side's end."""
    a = near.argmax(axis=2)
    from_a = leaf_hops[np.arange(len(a))[:, None], a]
    via = np.take_along_axis(dist, a[:, :, None], axis=2) + dist == from_a
    via &= near & (np.arange(near.shape[2]) != a[:, :, None])
    return a, np.where(via.any(axis=2), via.argmax(axis=2), a)


def _splits_and_fits(edges, n, basis):
    """Split masks and fit rows of a chunk of shapes, from hop distances.

    *edges* is :func:`_node_arrays`' form.  ``sides`` (T x E) holds, as
    bits of leaf positions, the leaves nearer each edge's first end.
    ``fit`` (T x E x rows) holds scale times each edge's weight by the one
    rule, with *basis* (:func:`_pair_rows`) giving each d(i, j); it is
    None without a basis or when an inner node has degree 2.
    """
    count, size = len(edges), int(edges.max()) + 1
    shape = np.arange(count)[:, None, None]
    # size is longer than any path, and two of it fit the dtype
    hops = np.full((count, size, size), size, np.min_scalar_type(2 * size))
    hops[shape, edges, edges[:, :, ::-1]] = 1
    hops[:, np.arange(size), np.arange(size)] = 0
    for k in range(size):  # Floyd-Warshall
        np.minimum(hops, hops[:, :, k, None] + hops[:, None, k, :], out=hops)
    leaf_hops = hops[:, :n]
    to_u, to_v = leaf_hops[shape, :, edges].transpose(2, 0, 1, 3)
    near_u = to_u < to_v
    sides = near_u @ (1 << np.arange(n))
    if basis is None or ((hops[:, n:] == 1).sum(axis=2) == 2).any():
        return sides, None
    a, a2 = _near_pair(near_u, to_u, leaf_hops[:, :, :n])
    b, b2 = _near_pair(to_v < to_u, to_v, leaf_hops[:, :, :n])
    return sides, basis[a, b] + basis[a2, b2] - basis[a, a2] - basis[b, b2]


def _pair_rows(n: int, order: int):
    """Half the stack's scale times each pairwise value d(i, j) over the
    rows, as an (n x n x rows) int array, zero on the diagonal.

    Pairs are their own rows.  For triples, 3 d(i, j) uses the three
    smallest other positions as {r, s, u}.
    """
    index = {t: k for k, t in enumerate(combinations(range(n), order))}
    out = np.zeros((n, n, len(index)), dtype=np.int16)
    for i, j in combinations(range(n), 2):
        if order == 2:
            out[i, j, index[i, j]] = 1
        else:
            r, s, u = [g for g in range(n) if g != i and g != j][:3]
            for trip in ((i, j, r), (i, j, s), (i, j, u), (r, s, u)):
                out[i, j, index[tuple(sorted(trip))]] += 2
            for x in (i, j):
                for trip in ((x, r, s), (x, r, u), (x, s, u)):
                    out[i, j, index[tuple(sorted(trip))]] -= 1
        out[j, i] = out[i, j]
    return out


class _Stack:
    """Fit arrays of shapes on one leaf set, stacked in order.

    ``shapes`` are the shapes' sorted edge tuples over the sorted labels
    ``leaves``.  ``inc`` (T x R x E, 0/1) is each shape's incidence
    matrix: row r (a leaf subset, by position, in ``combinations`` order)
    includes edge e when the subset has leaves on both sides of e.  ``inv``
    (T x E x R) holds ``scale`` times a left inverse of it, or is None
    where the closed form does not apply (pairs on 2 labels, triples on
    fewer than 5, or a node of degree 2), and rows are then reduced
    exactly.  Both are int8 and zero-padded to the largest edge count E;
    ``pad`` marks the padding.  ``l1`` is the largest row L1 norm of ``inv``.
    """

    def __init__(self, shapes, leaves, order):
        self.shapes = shapes
        n = len(leaves)
        rows = list(combinations(range(n), order))
        row_masks = np.array([sum(1 << i for i in r) for r in rows], dtype=np.int64)
        closed = n >= 3 if order == 2 else n >= 5
        basis = _pair_rows(n, order) if closed else None
        edges = _node_arrays(shapes, leaves)
        count, e_max = edges.shape[:2]
        self.scale = 2 if order == 2 else 6
        self.inc = np.zeros((count, len(rows), e_max), dtype=np.int8)
        self.inv = np.zeros((count, e_max, len(rows)), dtype=np.int8) if closed else None
        self.pad = edges[:, :, 0] == edges[:, :, 1]
        self.l1 = 0
        step = max(1, CHUNK_ELEMS // (e_max * max(len(rows), math.comb(n, 2))))
        for lo in range(0, count, step):
            sides, fit = _splits_and_fits(edges[lo:lo + step], n, basis)
            onside = sides[:, None, :] & row_masks[None, :, None]
            self.inc[lo:lo + step] = (onside != 0) & (onside != row_masks[None, :, None])
            if fit is None:  # too few labels, or a node of degree 2
                basis, self.inv = None, None
                continue
            self.l1 = max(self.l1, int(np.abs(fit).sum(axis=2).max()))
            if np.abs(fit).max() > np.iinfo(np.int8).max:
                raise AssertionError("fit coefficients outside int8")
            self.inv[lo:lo + step] = fit

    def row_edges(self, t):
        """Edge indices included by each row of shape t's system."""
        real = self.inc[t, :, : len(self.shapes[t])]
        return [np.flatnonzero(row).tolist() for row in real]

    def first_fit(self, b, require_positive=False):
        """(index, exact edge weights) of the first shape realising b.

        ``b`` lists exact values in row order.  With ``require_positive``,
        realisations with a non-positive edge are skipped.  None when no
        shape fits.
        """
        if self.inv is None:
            for t, edges in enumerate(self.shapes):
                x = _solve_general(self.row_edges(t), len(edges), b)
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
                real = y[hits[0], : len(self.shapes[t])]
                return t, [Fraction(int(v), self.scale * den) for v in real]
        return None


@lru_cache(maxsize=None)
def _stack(n: int, order: int) -> _Stack:
    return _Stack(_topology_list(n, True), tuple(range(1, n + 1)), order)


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
    hit = _Stack((topo.edges,), topo.leaves, target.order).first_fit(b)
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
        raise ValueError("the brute-force oracle supports 2 <= n <= 8 labels")
    # rows are leaf positions and items() is sorted, so b lines up with the
    # stack's rows on any label set
    stack = _stack(n, target.order)
    b = _exact_values(target)
    if require_positive and target.order == n == 3:
        hit = (0, [Fraction(b[0]) / 3] * 3) if b[0] > 0 else None
    else:
        hit = stack.first_fit(b, require_positive)
    if hit is None:
        return None
    t, weights = hit
    # a binary shape with zero inner edges fits first whenever the data
    # comes from a multifurcating tree; contract to the unique form
    tree = contract_zero_internal_edges(
        WeightedTree([(u, v, w) for (u, v), w in zip(stack.shapes[t], weights)])
    )
    std = tuple(range(1, n + 1))
    return tree if target.labels == std else _relabel_tree(tree, dict(zip(std, target.labels)))


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
