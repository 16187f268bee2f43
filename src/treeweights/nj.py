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
from .reconstruct import (
    Pseudobell,
    bell_twigs_doubles,
    prune_triples,
    twig_length_doubles,
)
from .tree import WeightedTree, contract_zero_internal_edges
from .weights import (
    DoubleWeights,
    TripleWeights,
    derived_single,
    exact_scalar,
    star_condition_triples,
    upper_keys,
)


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
    """
    if t.n < 5:
        raise InstanceTooSmallError(
            "s_matrix_triples needs n >= 5", required=5, got=t.n
        )
    labels = t.labels
    pair_sum = {p: 0 for p in combinations(labels, 2)}
    label_sum = {a: 0 for a in labels}
    for (a, b, c), v in t.items():
        pair_sum[(a, b)] = pair_sum[(a, b)] + v
        pair_sum[(a, c)] = pair_sum[(a, c)] + v
        pair_sum[(b, c)] = pair_sum[(b, c)] + v
        label_sum[a] = label_sum[a] + v
        label_sum[b] = label_sum[b] + v
        label_sum[c] = label_sum[c] + v
    half_n2 = Fraction(t.n - 2, 2)
    entries = {
        p: half_n2 * pair_sum[p] - label_sum[p[0]] - label_sum[p[1]]
        for p in pair_sum
    }
    return SMatrix(labels=labels, entries=entries)


# --------------------------------------------------------------------- #
# Classic neighbor joining                                               #
# --------------------------------------------------------------------- #


def _classic_join(d: DoubleWeights):
    """One agglomeration step: join the global-minimum S pair.

    Ties break lexicographically; twigs use the smallest third label.
    Returns (reduced container, (z, [(member, twig), (member, twig)])).
    """
    labels = d.labels
    i, j = s_matrix(d).argmin_pair()
    x = next(g for g in labels if g not in (i, j))
    a_i = twig_length_doubles(d, i, j, x)
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
        current, merge = _classic_join(current)
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
            current, merge = _classic_join(current)
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
            current, merge = _classic_join(current)
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
    """Join S-matrix minima of the triple criterion down to five labels,
    then finish on the derived pairwise values with classic NJ.

    The minimum pair is confirmed by the star condition within eps;
    unconfirmed candidates are skipped in ascending S order, and if
    nothing confirms the global minimum is used anyway (the procedure is
    total).
    """
    if t.n < 5:
        raise InstanceTooSmallError(
            "nj_from_triples needs n >= 5", required=5, got=t.n
        )
    current = t
    merges = []
    while current.n > 5:
        S = s_matrix_triples(current)
        candidates = sorted(S.entries.items(), key=lambda kv: (kv[1], kv[0]))
        pick = None
        for pair, _ in candidates:
            if star_condition_triples(current, *pair, tol=eps).holds:
                pick = pair
                break
        if pick is None:
            pick = candidates[0][0]
        i, j = pick
        d_ij = derived_single(current, i, j)
        x, y = [g for g in current.labels if g not in (i, j)][:2]
        a_i = half(d_ij + current.value(i, x, y) - current.value(j, x, y))
        a_j = d_ij - a_i
        pb = Pseudobell(members=(i, j), twig_lengths={i: a_i, j: a_j})
        current, level = prune_triples(current, [pb], tol=math.inf)
        z = level.pseudobells[0].z
        merges.append((z, [(i, a_i), (j, a_j)]))

    labels = current.labels
    d5 = DoubleWeights(
        {
            (a, b): derived_single(current, a, b)
            for a, b in combinations(labels, 2)
        },
        labels=labels,
    )
    finish = nj_classic(d5)
    return _assemble(finish.edges, merges)
