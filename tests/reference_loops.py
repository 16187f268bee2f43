"""Pure-Python reference loops for the array kernels.

The package runs every heavy scan as numpy array operations on a
container's dense mirror (int64, ``object`` Python ints, or float64).
These loops compute the same results one entry at a time, straight from
the container's values, and define the semantics the kernels are held to:
result for result, bitwise for floats.  They are test oracles only.
"""

from fractions import Fraction
from itertools import combinations, product

from treeweights.numeric import THIRD, midrange
from treeweights.nj import ScanRecord, s_matrix
from treeweights.reconstruct import Pseudobell, _inconsistent
from treeweights.weights import (
    DoubleWeights,
    StarResult,
    _star_window_doubles,
    _star_window_triples,
)


def star_table_loop(w, tol):
    """Reference star table: one pure-Python window per label pair."""
    window = _star_window_doubles if w.order == 2 else _star_window_triples
    out = {}
    for a, b in combinations(w.labels, 2):
        lo, hi = window(w, a, b)
        spread = hi - lo
        out[(a, b)] = StarResult(spread <= tol, midrange(lo, hi), spread)
    return out


def reduce_loop(container, bells, new_labels, tol):
    """Reference reduction: every key, every choice of representatives."""
    by_new = {b.z: b for b in bells}

    def reps(x):
        b = by_new.get(x)
        if b is None:
            return ((x, 0),)
        return tuple((m, b.twig_lengths[m]) for m in b.members)

    reduced_vals = {}
    for key in combinations(new_labels, container.order):
        lo = hi = None
        for combo in product(*(reps(x) for x in key)):
            originals = tuple(m for m, _ in combo)
            drop = sum(tw for _, tw in combo)
            val = container.value(*originals) - drop
            if lo is None or val < lo:
                lo = val
            if hi is None or val > hi:
                hi = val
        if hi - lo > tol:
            raise _inconsistent(key, hi - lo)
        reduced_vals[key] = midrange(lo, hi)
    return reduced_vals


def reduce_groups_loop(container, groups, twigs, new_labels, tol):
    """:func:`reduce_loop` behind the signature of the block kernel
    ``reconstruct._reduce_dense``, so a test can put it in the kernel's place.

    ``groups[k]`` holds the representatives of ``new_labels[k]``; a group
    whose members carry twigs is a pruned bell.
    """
    bells = [
        Pseudobell(members=g, twig_lengths=twigs, z=z)
        for g, z in zip(groups, new_labels)
        if g[0] in twigs
    ]
    return reduce_loop(container, bells, new_labels, tol)


def _third(x):
    """``x / 3``: exact for ints and Fractions, ``x / 3.0`` for floats."""
    return x / 3.0 if isinstance(x, float) else THIRD * x


def derived_detail_loop(t, tol=0):
    """Condition 2 by its definition: per-pair (lo, hi) of the derived
    values over every {r, s, u} choice."""
    labels = t.labels
    windows = {}
    # three times the derived value, divided once at the end
    val = t.value
    for i, j in combinations(labels, 2):
        rest = [g for g in labels if g != i and g != j]
        lo = hi = None
        for r, s, u in combinations(rest, 3):
            v3 = 2 * (val(i, j, r) + val(i, j, s) + val(i, j, u) + val(r, s, u)) - (
                val(i, r, s)
                + val(i, r, u)
                + val(i, s, u)
                + val(j, r, s)
                + val(j, r, u)
                + val(j, s, u)
            )
            if lo is None or v3 < lo:
                lo = v3
            if hi is None or v3 > hi:
                hi = v3
        windows[(i, j)] = (_third(lo), _third(hi))
    return windows


def derived_common_values(t):
    """Condition 2 at tol 0 by :func:`derived_detail_loop`: (True, the
    common derived value of every pair) when no pair's value depends on
    {r, s, u}, else (False, None)."""
    windows = derived_detail_loop(t)
    if any(lo != hi for lo, hi in windows.values()):
        return False, None
    return True, {pair: lo for pair, (lo, hi) in windows.items()}


def condition2_values(result):
    """(verdict, {pair: value} or None) of a condition-2 result."""
    ok, d = result
    return ok, dict(d.items()) if ok else None


def lift_check_loop(t, tol=0):
    """Reference for ``weights.derived_pairwise_consistent``: the
    least-squares pairwise fit d and its lift residual, one entry at a time.

    Sums run in label order and every formula is evaluated as the kernel
    does (den * d_ij = part_ij + c), so float results agree bitwise.
    """
    labels = t.labels
    m = t.n

    def add(terms):
        total = 0
        for x in terms:
            total = total + x
        return total

    pair = {
        (i, j): add(t.value(i, j, r) for r in labels if r not in (i, j))
        for i, j in combinations(labels, 2)
    }
    row = {i: add(pair[min(i, j), max(i, j)] for j in labels if j != i) for i in labels}
    den = 3 * (m - 2) * (m - 3) * (m - 4)
    part = {
        (i, j): 6 * (m - 2) * (m - 3) * p - 3 * (m - 2) * (row[i] + row[j])
        for (i, j), p in pair.items()
    }
    c = 2 * add(row[i] for i in labels)
    gaps = [
        2 * den * t.value(i, j, k) - (part[i, j] + part[i, k] + part[j, k])
        for i, j, k in combinations(labels, 3)
    ]
    worst = max(max(gaps) - 3 * c, 3 * c - min(gaps))
    if isinstance(worst, float):
        worst, d = worst / (2 * den), {key: (v + c) / den for key, v in part.items()}
    else:
        worst, d = Fraction(worst, 2 * den), {key: Fraction(v + c, den) for key, v in part.items()}
    if not worst <= tol:
        return False, None
    return True, DoubleWeights(d, labels=labels)


def scan_pure(d, eps):
    """Reference cherry scan: the records of ``nj.cherry_scan``, from the
    S-matrix dict and the container's values."""
    labels = d.labels
    S = s_matrix(d)
    records = []
    for j in labels:
        m_j = None
        i_j = None
        for i in labels:
            if i == j:
                continue
            v = S.value(i, j)
            if m_j is None or v < m_j:
                m_j = v
                i_j = i
        lo = hi = None
        for g in labels:
            if g == i_j or g == j:
                continue
            diff = d.value(i_j, g) - d.value(j, g)
            if lo is None or diff < lo:
                lo = diff
            if hi is None or diff > hi:
                hi = diff
        spread = hi - lo
        records.append(
            ScanRecord(
                column=j, row=i_j, minimum=m_j, spread=spread, confirmed=spread <= eps
            )
        )
    return records
