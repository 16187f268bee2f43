"""Neighbor joining: the classic agglomerative form, a pruning variant
that harvests every bell per round from one matrix scan, and the triple
weight generalisation.

The selection matrix is

    S[i, j] = (n - 2) D[i, j] - sum_k D[i, k] - sum_k D[j, k]

whose global minimum lands on a cherry pair for tree data.  The pruning
variant scans each column for its minimum candidate pair and confirms it
by the star condition on the distance columns (spread <= epsilon), so one
Theta(n^2) round identifies all bells at once.  All variants always
return a tree; correctness is only guaranteed for additive input.

Triple NJ runs on the pairwise engine too: condition 2's least-squares
fit d (:func:`~treeweights.weights.pairwise_fit`, the fit every triple
query reads) keeps every pair sum of the triples, so the triple criterion
is an affine image of d's, S_T = (n - 4)/4 * S_d - sum d, and the joins run
on d.

All three variants run on the array-resident engine that reconstruction
prunes on too (:class:`~treeweights.weights._Mirror`): the container's
dense mirror (int64, ``object`` Python ints past the int64 headroom or
Fractions past the scale cap, or float64) is built once and carried from
join to join, so exact data stays exact and no container is rebuilt
inside a loop.  A classic join costs one O(m^2) array S on m labels plus
an O(m) row update (Studier & Keppler, Mol. Biol. Evol. 1988), and drops
its two rows by one ``take`` per axis.  It takes its twigs in the
mirror's units, d_ij + d_ix - d_jx, and makes each one a Python number
once, when it records it: one Fraction per twig on an exact mirror.  A pruning
round takes S once, for the cherry scan and, when nothing confirms, for
the fallback join, then merges every bell in top^2 array steps for the
largest bell of top members, whatever the number of bells or of bell
sizes, and O(m^2) element operations in all.  Exact halves and means
that leave the units rescale the mirror.  The tests hold the engine to
the dict loops in ``tests/reference_loops.py``: byte-identical trees on
exact data, bitwise on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import InstanceTooSmallError
from .tree import WeightedTree, _min_roots, contract_zero_internal_edges
from .weights import (
    DoubleWeights,
    TripleWeights,
    _bell_twigs,
    _Mirror,
    _over,
    _skip,
    _star_windows,
    _upper_pairs,
    pairwise_fit,
    unit_value,
    upper_mask,
)

# Unused here, but perfbench's tracer wraps these two names in this module.
from .reconstruct import prune_triples  # noqa: F401
from .weights import star_condition_triples  # noqa: F401


def _selection(state: _Mirror):
    """S over the upper triangle of the mirror, in combinations order, with
    the row sums taken along axis 0: that adds each row in ascending label
    order, one value at a time, as a loop over the pairs does, so float S
    is the same bit for bit.  Each entry is (m - 2) D[i, j] - row_i - row_j,
    evaluated left to right as the dict loop does, on the triangle only
    (read through a boolean mask, the fastest gather).  The mirror is
    widened first: S sums up to 4 m units."""
    state.widen(4 * state.n)
    arr = state.arr
    m = len(arr)
    iu, ju = _upper_pairs(m)
    (upper,) = upper_mask(m)
    row = arr.sum(axis=0)
    return iu, ju, (m - 2) * arr[upper] - row[iu] - row[ju]


@dataclass(frozen=True)
class SMatrix:
    """Symmetric selection criterion; the diagonal is never defined."""

    labels: tuple
    entries: dict  # (a, b) with a < b -> value

    def value(self, i, j):
        return self.entries[(i, j) if i < j else (j, i)]

    def argmin_pair(self):
        """Lexicographically first pair attaining the global minimum."""
        best = None
        best_pair = None
        for pair in combinations(self.labels, 2):
            v = self.entries[pair]
            if best is None or v < best:
                best = v
                best_pair = pair
        return best_pair


def s_matrix(d: DoubleWeights) -> SMatrix:
    """Selection matrix from pairwise values."""
    if d.n < 3:
        raise InstanceTooSmallError("s_matrix needs n >= 3", required=3, got=d.n)
    state = _Mirror(d)
    iu, ju, S = _selection(state)
    labels = d.labels
    return SMatrix(
        labels=labels,
        entries={
            (labels[a], labels[b]): state.value(v)
            for a, b, v in zip(iu.tolist(), ju.tolist(), S.tolist())
        },
    )


def s_matrix_triples(t: TripleWeights) -> SMatrix:
    """Selection matrix from triple values:

        S[i, j] = (n-2)/2 * sum_r D[i,j,r] - sum_{r<s} D[i,r,s] - sum_{r<s} D[j,r,s]

    computed as (n-4)/4 * S_d - sum d on condition 2's least-squares fit d,
    which keeps every pair sum sum_r D[i,j,r], so the identity holds for
    every *t*, a lift or not.
    """
    if t.n < 5:
        raise InstanceTooSmallError(
            "s_matrix_triples needs n >= 5", required=5, got=t.n
        )
    d = pairwise_fit(t)
    S = s_matrix(d)
    factor = Fraction(t.n - 4, 4)
    total = sum(v for _, v in d.items())
    return SMatrix(
        labels=S.labels, entries={p: factor * v - total for p, v in S.entries.items()}
    )


# --------------------------------------------------------------------- #
# Classic neighbor joining                                               #
# --------------------------------------------------------------------- #


def _classic_join(state: _Mirror, i, j, twice):
    """One agglomeration step on the mirror: join indices i < j.  i's twig
    is the mean of the halves of *twice*, one or two sums d_ij + d_ix -
    d_jx in the mirror's units (:meth:`_Mirror.twig`; two for triple NJ's
    mean).  On an exact mirror k = 2 len(twice), and the twigs of i and j
    are one value each, their units over k scales: sum(twice) and
    k d_ij - sum(twice).  A float twig keeps the dict loop's order: each
    half 0.5 * t, the mean of two halves, then d_ij - a_i.  The fresh label
    z = max + 1 takes the last slot with the row (-d_ij + d_iy + d_jy) / 2;
    rows i and j go, by one ``take`` per axis.

    Returns (z, [(label i, twig), (label j, twig)]).
    """
    arr, labels = state.arr, state.labels
    d_ij = arr.item(i, j)
    if state.kind == "float":
        a_i = 0.5 * twice[0] if len(twice) == 1 else 0.5 * (0.5 * twice[0] + 0.5 * twice[1])
        a_j = d_ij - a_i
    else:
        k, units = 2 * len(twice), sum(twice)
        a_i = unit_value(units, k * state.scale)
        a_j = unit_value(k * d_ij - units, k * state.scale)
    row = state.halve(-arr[i, j] + arr[i] + arr[j])  # may double state.arr
    # the survivors, then i, whose row and column (its diagonal zero kept,
    # in the mirror's element type) z's row overwrites
    keep = np.array([*range(i), *range(i + 1, j), *range(j + 1, len(arr)), i])
    new = state.arr.take(keep, axis=0).take(keep, axis=1)
    new[-1, :-1] = new[:-1, -1] = row.take(keep[:-1])
    z = labels[-1] + 1
    state.labels = labels[:i] + labels[i + 1 : j] + labels[j + 1 :] + [z]
    state._set(new)
    return z, [(labels[i], a_i), (labels[j], a_j)]


def _min_join(state: _Mirror, selection=None):
    """Join the global-minimum S pair; ties break lexicographically, and the
    twig uses the smallest third label.  *selection* is :func:`_selection`
    of the mirror as it stands, when a scan has already taken it."""
    iu, ju, S = selection or _selection(state)
    k = int(S.argmin())  # the first minimum, in combinations order
    i, j = int(iu[k]), int(ju[k])
    return _classic_join(state, i, j, (state.twig(i, j, int(_skip(0, i, j))),))


def _join_down(state: _Mirror, floor):
    """Classic joins until *floor* labels are left; returns the merges."""
    merges = []
    while state.n > floor:
        merges.append(_min_join(state))
    return merges


def _assemble(final_edges, merges) -> WeightedTree:
    edges = list(final_edges)
    for z, members in reversed(merges):
        edges.extend((z, m, tw) for m, tw in members)
    return contract_zero_internal_edges(WeightedTree(edges))


def nj_classic(d: DoubleWeights) -> WeightedTree:
    """Plain neighbor joining; exact on additive input, total otherwise."""
    state = _Mirror(d)
    merges = _join_down(state, 2)
    return _assemble([state.final_edge()], merges)


# --------------------------------------------------------------------- #
# Cherry scan (all bells in one round)                                   #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ScanRecord:
    """Per-column scan outcome: the minimum, its first row, and the
    star-condition spread of the candidate pair."""

    column: int
    row: int
    minimum: object
    spread: object
    confirmed: bool


@dataclass(frozen=True, eq=False)
class CherryScanResult:
    """A scan's confirmed pairs and its cost, with the per-column arrays
    they came from.  The records are built from those arrays when first
    read: the pruning driver reads only the pairs, and joins on the
    scan's S (``selection``) in a round where none confirms.  Results
    compare by identity, since arrays have no single truth value."""

    pairs: list  # confirmed unordered pairs, deduplicated, sorted
    entries_examined: int
    labels: tuple = field(repr=False)  # the columns' labels, ascending
    rows: np.ndarray = field(repr=False)  # per column: first row of the minimum
    minima: np.ndarray = field(repr=False)  # per column: S at that row
    spreads: np.ndarray = field(repr=False)  # per column: the pair's star spread
    confirmed: np.ndarray = field(repr=False)  # per column: spread within eps
    scale: object = field(repr=False)  # the mirror's unit denominator; None on floats
    selection: tuple = field(repr=False)  # _selection's (iu, ju, S)

    @cached_property
    def records(self):
        """One ScanRecord per column, in label order."""
        labels, scale = self.labels, self.scale
        return [
            ScanRecord(j, labels[i], unit_value(mn, scale), unit_value(w, scale), ok)
            for j, i, mn, w, ok in zip(
                labels,
                self.rows.tolist(),
                self.minima.tolist(),
                self.spreads.tolist(),
                self.confirmed.tolist(),
            )
        ]


def _scan_cost(m: int) -> int:
    # S entries + per-column minimum sweeps + candidate confirmations
    return m * (m - 1) // 2 + m * (m - 1) + m * (m - 2)


def cherry_scan(d, eps=0) -> CherryScanResult:
    """One quadratic round: column minima of S, candidates confirmed by
    the spread of the two distance columns (rows i, j excluded).

    *d* is a :class:`DoubleWeights`, or the pruning engine's carried mirror.
    """
    state = d if isinstance(d, _Mirror) else _Mirror(d)
    if state.n < 4:
        raise InstanceTooSmallError("cherry_scan needs n >= 4", required=4, got=state.n)
    selection = _, _, upper = _selection(state)
    arr = state.arr
    m = state.n
    cols = np.arange(m)
    # one value per pair, at both of its places
    (mask,) = upper_mask(m)
    S = np.empty_like(arr)
    S[mask] = upper
    S.T[mask] = upper
    # row j of `off` is column j of S without its diagonal entry
    off = S.T[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    first = off.argmin(axis=1)  # first minimal index per column
    rows = first + (first >= cols)
    mins = off[cols, first]
    # a window and its negation have the same spread, so the pair's order is free
    lo_i, hi_i = np.minimum(rows, cols), np.maximum(rows, cols)
    lo, hi = _star_windows(arr, (lo_i, hi_i))
    width = hi - lo
    confirmed = ~_over(width, eps, state.scale)
    # labels ascend with the index, so (labels[lo], labels[hi]) is a sorted pair
    labels = tuple(state.labels)
    pairs = sorted(
        {(labels[a], labels[b]) for a, b in zip(lo_i[confirmed].tolist(), hi_i[confirmed].tolist())}
    )
    return CherryScanResult(
        pairs=pairs,
        entries_examined=_scan_cost(m),
        labels=labels,
        rows=rows,
        minima=mins,
        spreads=width,
        confirmed=confirmed,
        scale=state.scale,
        selection=selection,
    )


def group_bells(pairs):
    """Union confirmed pairs that share members into full bells."""
    find = _min_roots(pairs)
    groups = {}
    for a, b in pairs:
        groups.setdefault(find(a), set()).update((a, b))
    return [tuple(sorted(g)) for g in sorted(groups.values(), key=min)]


# --------------------------------------------------------------------- #
# Pruning neighbor joining                                               #
# --------------------------------------------------------------------- #


def _merge_bells(state: _Mirror, bells):
    """Replace every bell by a fresh label; a reduced entry is the mean of
    the per-member reductions D[a, b] - twig[a] - twig[b] over the two
    labels' members (identical on exact data).

    The new labels' member groups are the survivors, one member of twig
    0 each, then the bells.  Ranked by size, largest first, the groups
    with a member at position p are the first cnt[p], so the sums take
    one array step ((acc + D[a, b]) - tw[a]) - tw[b] per pair of member
    positions (p, q), on the leading cnt[p] x cnt[q] block: top^2 steps
    for the largest bell of top members, and (sum of sizes)^2 = m^2
    element operations in all.  Each mean is summed in the order of the
    dict loop it replaces, so float entries are the same bit for bit.  An
    exact mean that is not a whole unit widens the scale by the count.
    Returns the merges.
    """
    labels = state.labels
    index = {lab: k for k, lab in enumerate(labels)}
    groups = [[index[lab] for lab in b] for b in bells]
    mem, units, values = _bell_twigs(state, groups)
    twigs = dict(zip(mem.tolist(), values))
    z0 = labels[-1] + 1
    merges = [
        (z0 + b, [(labels[k], twigs[k]) for k in g]) for b, g in enumerate(groups)
    ]
    owned = set(twigs)
    survivors = [k for k in range(len(labels)) if k not in owned]
    new_groups = [[k] for k in survivors] + groups
    sizes = np.array([len(g) for g in new_groups])
    top = int(sizes.max())
    rank = np.argsort(-sizes, kind="stable")
    ranked = [new_groups[g] for g in rank.tolist()]
    # at[p]: member p of each group that has one, largest groups first
    at = [
        np.array([g[p] for g in ranked[: int((sizes > p).sum())]], dtype=np.intp)
        for p in range(top)
    ]

    # a mean sums up to top^2 terms, each within 4 max|unit|
    state.widen(4 * top**2)
    arr = state.arr
    zero = arr[0, 0]
    tw = np.full(len(labels), zero, dtype=arr.dtype)
    tw[mem] = units
    m2 = len(new_groups)
    # 0 + D first: the loop's sum starts at 0, which turns a float -0.0 into 0.0
    acc = np.zeros((m2, m2), dtype=arr.dtype)
    for a in at:
        for b in at:
            block = acc[: len(a), : len(b)]
            block[...] = block + arr[a[:, None], b] - tw[a][:, None] - tw[b]
    # back to the new labels' order
    place = np.argsort(rank)
    sums = acc[place[:, None], place]
    # each key (x, y), x < y, as the loop sums it: x's members outermost
    (upper,) = upper_mask(m2)
    sums.T[upper] = sums[upper]
    np.fill_diagonal(sums, zero)
    counts = np.outer(sizes, sizes)
    if state.in_units():
        state.arr = sums
        state.rescale(math.lcm(*set(counts[sums % counts != 0].tolist())))
        new = state.arr // counts
    else:
        new = sums / (counts if state.kind == "float" else counts.astype(object))
    state.labels = [labels[k] for k in survivors] + [z for z, _ in merges]
    state._set(new)
    return merges


def _terminal_star(state: _Mirror, merges):
    """All remaining labels form one bell: attach them to a fresh center."""
    center = state.labels[-1] + 1
    _, _, twigs = _bell_twigs(state, [tuple(range(state.n))])
    edges = [(lab, center, tw) for lab, tw in zip(state.labels, twigs)]
    return _assemble(edges, merges)


def nj_pruning(d: DoubleWeights, eps=0) -> WeightedTree:
    """Per round merge *every* bell found by :func:`cherry_scan`; falls
    back to one classic join in rounds where nothing is confirmed."""
    tree, _ = nj_pruning_detailed(d, eps)
    return tree


def nj_pruning_detailed(d: DoubleWeights, eps=0):
    """nj_pruning plus per-round telemetry dicts."""
    state = _Mirror(d)
    merges = []
    rounds = []
    while state.n > 2:
        if state.n == 3:
            merges.append(_min_join(state))
            rounds.append({"size": 3, "bells": [], "fallback": True,
                           "entries_examined": 0})
            continue
        scan = cherry_scan(state, eps)
        bells = group_bells(scan.pairs)
        info = {
            "size": state.n,
            "bells": [list(b) for b in bells],
            "fallback": not bells,
            "entries_examined": scan.entries_examined,
        }
        rounds.append(info)
        if not bells:
            merges.append(_min_join(state, scan.selection))
            continue
        if len(bells) == 1 and len(bells[0]) == state.n:
            return _terminal_star(state, merges), rounds
        merges.extend(_merge_bells(state, bells))
    return _assemble([state.final_edge()], merges), rounds


# --------------------------------------------------------------------- #
# Neighbor joining from triple weights                                   #
# --------------------------------------------------------------------- #


def _confirmed_min_pair(state: _Mirror, eps):
    """The pair of least (S, pair) whose star spread is within eps, else
    the global minimum.  The first S-minimum, a cherry on tree data, is
    checked by its own O(m) window; only if it fails does one block kernel
    give the spreads of the pairs that may confirm, and the first minimum
    of S among the confirmed pairs is taken.  A pair's window holds its
    differences at the two least labels outside it, so their gap bounds its
    spread from below, in floats too: a pair whose gap is over eps cannot
    confirm, and at eps 0 on float data that rules out nearly every pair in
    O(m^2)."""
    iu, ju, S = _selection(state)
    arr = state.arr
    k = int(S.argmin())
    i, j = int(iu[k]), int(ju[k])
    diff = np.delete(arr[i] - arr[j], (i, j))
    if not _over(diff.max(keepdims=True) - diff.min(keepdims=True), eps, state.scale)[0]:
        return i, j
    g = _skip(np.zeros_like(iu), iu, ju)
    h = _skip(g + 1, iu, ju)
    gap = abs((arr[iu, g] - arr[ju, g]) - (arr[iu, h] - arr[ju, h]))
    maybe = np.flatnonzero(~_over(gap, eps, state.scale))
    if len(maybe):
        lo, hi = _star_windows(arr, (iu[maybe], ju[maybe]))
        ok = maybe[~_over(hi - lo, eps, state.scale)]
        if len(ok):
            k = int(ok[S[ok].argmin()])
    return int(iu[k]), int(ju[k])


def nj_from_triples(t: TripleWeights, eps=0) -> WeightedTree:
    """Neighbor joining on triple weights, run on condition 2's
    least-squares pairwise fit d of *t*.

    Down to five labels, the pair of least S_d (the order of the triple
    criterion S_T, see :func:`s_matrix_triples`) whose pairwise star
    spread on d is within eps is joined; if none is, the global minimum is
    joined anyway (the procedure is total).  Member i's twig is the mean of
    its pairwise twigs against the two smallest other labels x and y,
    which on a lift is (d_ij + D_ixy - D_jxy)/2.  Classic NJ finishes the
    last five labels.
    """
    if t.n < 5:
        raise InstanceTooSmallError(
            "triple neighbor joining needs n >= 5", required=5, got=t.n
        )
    d = pairwise_fit(t)
    state = _Mirror(d)
    merges = []
    while state.n > 5:
        i, j = _confirmed_min_pair(state, eps)
        x = int(_skip(0, i, j))
        y = int(_skip(x + 1, i, j))
        merges.append(_classic_join(state, i, j, (state.twig(i, j, x), state.twig(i, j, y))))
    merges += _join_down(state, 2)
    return _assemble([state.final_edge()], merges)
