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
fit d keeps every pair sum of the triples, so the triple criterion is an
affine image of d's, S_T = (n - 4)/4 * S_d - sum d, and the joins run on d.

The cherry scan runs on the container's dense mirror (int64, ``object``
Python ints past the int64 headroom or Fractions past the scale cap, or
float64), so exact data stays exact; the tests hold it to a pure-Python
reference loop on exact data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import InstanceTooSmallError
from .numeric import half
from .reconstruct import bell_twigs_doubles, twig_length_doubles
from .tree import WeightedTree, contract_zero_internal_edges
from .weights import (
    DoubleWeights,
    TripleWeights,
    derived_pairwise_consistent,
    exact_scalar,
    star_condition_doubles,
    upper_keys,
)

# Unused here, but perfbench's tracer wraps these two names in this module.
from .reconstruct import prune_triples  # noqa: F401
from .weights import star_condition_triples  # noqa: F401


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
    labels = d.labels
    row = {a: 0 for a in labels}
    for (a, b), v in d.items():
        row[a] = row[a] + v
        row[b] = row[b] + v
    m = d.n
    entries = {
        (a, b): (m - 2) * d.value(a, b) - row[a] - row[b]
        for a, b in combinations(labels, 2)
    }
    return SMatrix(labels=labels, entries=entries)


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
    _, d = derived_pairwise_consistent(t, math.inf)
    S = s_matrix(d)
    factor = Fraction(t.n - 4, 4)
    total = sum(v for _, v in d.items())
    return SMatrix(
        labels=S.labels, entries={p: factor * v - total for p, v in S.entries.items()}
    )


# --------------------------------------------------------------------- #
# Classic neighbor joining                                               #
# --------------------------------------------------------------------- #


def _classic_join(d: DoubleWeights, i, j, a_i):
    """One agglomeration step: join i and j, where i's twig is *a_i*.

    Returns (reduced container, (z, [(member, twig), (member, twig)])).
    """
    labels = d.labels
    a_j = d.value(i, j) - a_i
    z = max(labels) + 1
    survivors = [g for g in labels if g not in (i, j)]
    vals = {}
    for a, b in combinations(survivors, 2):
        vals[(a, b)] = d.value(a, b)
    for y in survivors:
        vals[(y, z)] = half(-d.value(i, j) + d.value(i, y) + d.value(j, y))
    reduced = DoubleWeights(vals, labels=survivors + [z])
    return reduced, (z, [(i, a_i), (j, a_j)])


def _min_join(d: DoubleWeights):
    """Join the global-minimum S pair; ties break lexicographically, and the
    twig uses the smallest third label."""
    i, j = s_matrix(d).argmin_pair()
    x = next(g for g in d.labels if g not in (i, j))
    return _classic_join(d, i, j, twig_length_doubles(d, i, j, x))


def _assemble(final_edges, merges) -> WeightedTree:
    edges = list(final_edges)
    for z, members in reversed(merges):
        edges.extend((z, m, tw) for m, tw in members)
    return contract_zero_internal_edges(WeightedTree(edges))


def nj_classic(d: DoubleWeights) -> WeightedTree:
    """Plain neighbor joining; exact on additive input, total otherwise."""
    if d.n == 2:
        a, b = d.labels
        return WeightedTree([(a, b, d.value(a, b))])
    current = d
    merges = []
    while current.n > 2:
        current, merge = _min_join(current)
        merges.append(merge)
    u, v = current.labels
    return _assemble([(u, v, current.value(u, v))], merges)


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


@dataclass(frozen=True)
class CherryScanResult:
    pairs: list  # confirmed unordered pairs, deduplicated, sorted
    records: list  # one ScanRecord per column, in label order
    entries_examined: int


def _scan_cost(m: int) -> int:
    # S entries + per-column minimum sweeps + candidate confirmations
    return m * (m - 1) // 2 + m * (m - 1) + m * (m - 2)


def cherry_scan(d: DoubleWeights, eps=0) -> CherryScanResult:
    """One quadratic round: column minima of S, candidates confirmed by
    the spread of the two distance columns (rows i, j excluded)."""
    if d.n < 4:
        raise InstanceTooSmallError("cherry_scan needs n >= 4", required=4, got=d.n)
    labels = d.labels
    m = d.n
    kind, arr, scale = d.dense()
    limit = np.iinfo(np.int64).max // (4 * m)
    if arr.dtype == np.int64 and int(np.abs(arr).max(initial=0)) >= limit:
        arr = arr.astype(object)  # the row sums and S would pass int64
    row_sum = arr.sum(axis=1)
    if kind == "int":
        # exact, so S is symmetric: one value per pair
        iu, ju = upper_keys(m, 2)
        S = np.empty_like(arr)
        S[iu, ju] = S[ju, iu] = (m - 2) * arr[iu, ju] - row_sum[iu] - row_sum[ju]
    else:
        S = (m - 2) * arr - row_sum[:, None] - row_sum[None, :]
    # row j of `off` is column j of S without its diagonal entry
    off = S.T[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    first = off.argmin(axis=1)  # first minimal index per column
    rows = first + (first >= np.arange(m))
    mins = off[np.arange(m), first]
    records = []
    for cj, j in enumerate(labels):
        ci = int(rows[cj])
        diff = arr[ci] - arr[cj]
        mask = np.ones(m, dtype=bool)
        mask[[ci, cj]] = False
        window = diff[mask]
        lo, hi = window.min(), window.max()
        if kind == "int":
            spread = Fraction(exact_scalar(hi - lo), scale)
            minimum = Fraction(exact_scalar(mins[cj]), scale)
        else:
            spread = float(hi - lo)
            minimum = float(mins[cj])
        records.append(
            ScanRecord(
                column=j,
                row=labels[ci],
                minimum=minimum,
                spread=spread,
                confirmed=spread <= eps,
            )
        )
    pairs = sorted(
        {
            (min(r.row, r.column), max(r.row, r.column))
            for r in records
            if r.confirmed
        }
    )
    return CherryScanResult(pairs=pairs, records=records, entries_examined=_scan_cost(m))


def group_bells(pairs):
    """Union confirmed pairs that share members into full bells."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for a, b in pairs:
        groups.setdefault(find(a), set()).update((a, b))
    return [tuple(sorted(g)) for g in sorted(groups.values(), key=min)]


# --------------------------------------------------------------------- #
# Pruning neighbor joining                                               #
# --------------------------------------------------------------------- #


def _merge_bells(d: DoubleWeights, bells):
    """Replace every bell by a fresh label; reduced entries average the
    per-member reductions D[m, y] - twig[m] (identical on exact data)."""
    labels = d.labels
    next_z = max(labels) + 1
    owner = {}
    merges = []
    twig_of = {}
    for members in bells:
        twigs = bell_twigs_doubles(d, members)
        z = next_z
        next_z += 1
        merges.append((z, [(m_, twigs[m_]) for m_ in members]))
        for m_ in members:
            owner[m_] = z
            twig_of[m_] = twigs[m_]
    survivors = [g for g in labels if g not in owner]
    bell_members = {z: [m_ for m_, _ in mem] for z, mem in merges}
    new_labels = sorted(survivors + list(bell_members))

    def reduced_value(x, y):
        xs = bell_members.get(x, [x])
        ys = bell_members.get(y, [y])
        total = 0
        count = 0
        for a in xs:
            for b in ys:
                total = total + d.value(a, b) - twig_of.get(a, 0) - twig_of.get(b, 0)
                count += 1
        return total / count if count > 1 else total

    vals = {
        (a, b): reduced_value(a, b) for a, b in combinations(new_labels, 2)
    }
    return DoubleWeights(vals, labels=new_labels), merges


def _terminal_star(d: DoubleWeights, merges):
    """All remaining labels form one bell: attach them to a fresh center."""
    center = max(d.labels) + 1
    twigs = bell_twigs_doubles(d, d.labels)
    edges = [(m_, center, twigs[m_]) for m_ in d.labels]
    return _assemble(edges, merges)


def nj_pruning(d: DoubleWeights, eps=0) -> WeightedTree:
    """Per round merge *every* bell found by :func:`cherry_scan`; falls
    back to one classic join in rounds where nothing is confirmed."""
    tree, _ = nj_pruning_detailed(d, eps)
    return tree


def nj_pruning_detailed(d: DoubleWeights, eps=0):
    """nj_pruning plus per-round telemetry dicts."""
    if d.n == 2:
        a, b = d.labels
        return WeightedTree([(a, b, d.value(a, b))]), []
    current = d
    merges = []
    rounds = []
    while current.n > 2:
        if current.n == 3:
            current, merge = _min_join(current)
            merges.append(merge)
            rounds.append({"size": 3, "bells": [], "fallback": True,
                           "entries_examined": 0})
            continue
        scan = cherry_scan(current, eps)
        bells = group_bells(scan.pairs)
        info = {
            "size": current.n,
            "bells": [list(b) for b in bells],
            "fallback": not bells,
            "entries_examined": scan.entries_examined,
        }
        rounds.append(info)
        if not bells:
            current, merge = _min_join(current)
            merges.append(merge)
            continue
        if len(bells) == 1 and len(bells[0]) == current.n:
            return _terminal_star(current, merges), rounds
        current, new_merges = _merge_bells(current, bells)
        merges.extend(new_merges)
    u, v = current.labels
    return _assemble([(u, v, current.value(u, v))], merges), rounds


# --------------------------------------------------------------------- #
# Neighbor joining from triple weights                                   #
# --------------------------------------------------------------------- #


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
            "nj_from_triples needs n >= 5", required=5, got=t.n
        )
    _, current = derived_pairwise_consistent(t, math.inf)
    merges = []
    while current.n > 5:
        candidates = sorted(s_matrix(current).entries.items(), key=lambda kv: (kv[1], kv[0]))
        i, j = next(
            (p for p, _ in candidates if star_condition_doubles(current, *p, tol=eps).holds),
            candidates[0][0],
        )
        x, y = [g for g in current.labels if g not in (i, j)][:2]
        a_i = half(twig_length_doubles(current, i, j, x) + twig_length_doubles(current, i, j, y))
        current, merge = _classic_join(current, i, j, a_i)
        merges.append(merge)
    finish = nj_classic(current)
    return _assemble(finish.edges, merges)
