"""Containers for double and triple weights, and the tests run on them.

A *double weight* is a value per unordered leaf pair, a *triple weight* a
value per unordered leaf triple.  The central predicate is the star
condition for a label pair (a, a'): the differences

    D[a, rest] - D[a', rest]        over all completions `rest`

are all equal (within a tolerance).  On data coming from a tree with
enough leaves it holds exactly for the pairs lying in a common bell.

Values are Fractions (exact mode) or floats.  Every container has a dense
numpy mirror, and every heavy scan runs on it as array operations: exact
values are scaled by the LCM of their denominators to integers, held as
int64 while the scaled magnitudes stay under ``_DENSE_MAG_CAP`` and as an
``object`` array of Python ints past it, so the integer results are exact
either way.  Past ``_DENSE_SCALE_BITS`` the common scale would make every
unit longer than the values themselves, so the mirror keeps the values'
own Fractions (on an ``object`` array, scale 1) and the same kernels run on
them.  Float containers use a float64 array.

The star table over all label pairs is one block kernel for both orders
(:func:`_star_windows`): pairs are taken in blocks of about
``BLOCK_ELEMS * 8`` bytes (see :func:`block_elems`), each block differences
the mirror rows of its pairs over every completion at once, and the
completions that contain a pair's own labels are neutralised by
overwriting them in place.  The pruning reduction in
:mod:`treeweights.reconstruct` uses the same mirror and block budget.  The
single-pair star queries keep their pure-Python windows; the tests hold
the kernels to reference loops result for result, bitwise for floats.

Condition 2 on triples (:func:`derived_pairwise_consistent`) asks whether
the triples are the half-sum lift T_ijk = (d_ij + d_ik + d_jk) / 2 of one
pairwise set d.  It fits d from three reductions of the mirror and checks
the lift residual, O(n^3) in all, the size of the input.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, islice

import numpy as np

from . import tree as tree_mod
from .errors import InstanceTooSmallError, LabelError, ParseError
from .numeric import (
    THIRD,
    TWO_THIRDS,
    format_number,
    half,
    is_exact,
    midrange,
    parse_number,
)

_DENSE_MAG_CAP = 2**55  # leaves headroom for the widest formula (14x terms)
# Exact data whose common scale is longer than this keeps its Fractions:
# data with a prime denominator per entry would otherwise make every unit
# about as long as all the denominators together.
_DENSE_SCALE_BITS = 4096


def _validate_labels(labels):
    for lab in labels:
        if not isinstance(lab, int) or lab <= 0:
            raise ValueError(f"labels must be positive ints, got {lab!r}")


def _check_keys(norm, labels, order, what):
    """Raise unless the sorted keys of *norm* are exactly the combinations
    of *labels*.

    The keys are distinct and sorted, so the ones over *labels* are counted
    rather than listed; the first missing keys lie within the first
    ``len(norm) + 3`` combinations, so a lazy scan names them.
    """
    have = sum(map(frozenset(labels).issuperset, norm))
    missing = math.comb(len(labels), order) - have
    extra = len(norm) - have
    if missing or extra:
        first = list(islice((k for k in combinations(labels, order) if k not in norm), 3))
        raise ValueError(
            f"incomplete {what} map: {missing} missing (e.g. {first}), {extra} unexpected"
        )


def int_dtype(magnitude):
    """int64 for scaled magnitudes under ``_DENSE_MAG_CAP``, else ``object``.

    An ``object`` array holds Python ints, so the same kernels stay exact
    however far the scale or the values grow.
    """
    return np.int64 if magnitude < _DENSE_MAG_CAP else object


def _dense_from_items(labels, items, order):
    """(kind, array, scale) mirror of a container.

    kind "int": ``array * 1/scale`` equals the exact values; the array is
    int64 or ``object`` (see :func:`int_dtype`), or, when the scale would
    pass ``_DENSE_SCALE_BITS``, an ``object`` array of the values' own
    Fractions with scale 1 (see :func:`holds_fractions`).
    kind "float": float64 values (the container is float-valued).
    """
    from itertools import permutations

    values = [v for _, v in items]
    index = {lab: i for i, lab in enumerate(labels)}
    m = len(labels)
    shape = (m,) * order
    zero = 0
    if all(is_exact(v) for v in values):
        scale = 1
        for v in values:
            scale = math.lcm(scale, v.denominator)
            if scale.bit_length() > _DENSE_SCALE_BITS:
                scale, zero = 1, Fraction(0)
                fill = np.empty(len(values), dtype=object)
                fill[:] = [Fraction(x) for x in values]
                break
        else:
            units = [int(v * scale) for v in values]
            fill = np.array(units, dtype=int_dtype(max(map(abs, units), default=0)))
        kind = "int"
    else:
        fill = np.array([float(v) for v in values], dtype=np.float64)
        kind = "float"
    arr = np.full(shape, zero, dtype=fill.dtype)
    cols = [
        np.fromiter((index[key[k]] for key, _ in items), dtype=np.intp, count=len(values))
        for k in range(order)
    ]
    for perm in permutations(range(order)):
        arr[tuple(cols[k] for k in perm)] = fill
    return kind, arr, (scale if kind == "int" else None)


def exact_scalar(x):
    """An element of an exact mirror or kernel result as a Python int or
    Fraction (a numpy int would carry int64 arithmetic into a Fraction)."""
    return x if isinstance(x, (int, Fraction)) else int(x)


def holds_fractions(arr):
    """True for a mirror of the values' own Fractions (scale 1), not of
    units; every element of such a mirror, the diagonal too, is a Fraction."""
    return arr.dtype == object and isinstance(arr.flat[0], Fraction)


class DoubleWeights:
    """All C(n, 2) values over unordered pairs of a label set.

    Lookup order does not matter: ``value(i, j) == value(j, i)``.  Standard
    instances use labels 1..n; reduced instances produced while pruning use
    arbitrary label sets.  Immutable after construction.
    """

    order = 2

    def __init__(self, values, labels=None):
        norm = {}
        for key, val in values.items():
            a, b = key
            if a == b:
                raise ValueError(f"pair key with equal labels: {key}")
            pair = (a, b) if a < b else (b, a)
            if pair in norm:
                raise ValueError(f"duplicate entry for pair {pair}")
            norm[pair] = val
        if labels is None:
            labels = {x for pair in norm for x in pair}
        labels = tuple(sorted(labels))
        _validate_labels(labels)
        if len(labels) < 2:
            raise ValueError("DoubleWeights needs at least 2 labels")
        _check_keys(norm, labels, 2, "pair")
        self.labels = labels
        self.n = len(labels)
        self._v = norm
        self._dense_cache = False  # not yet computed

    def value(self, i, j):
        if i == j:
            raise ValueError("pair lookup needs distinct labels")
        pair = (i, j) if i < j else (j, i)
        try:
            return self._v[pair]
        except KeyError:
            raise LabelError(f"pair {pair} not in container") from None

    def items(self):
        return sorted(self._v.items())

    def restrict(self, labels):
        labels = tuple(sorted(labels))
        sub = {p: v for p, v in self._v.items() if p[0] in labels and p[1] in labels}
        return DoubleWeights(sub, labels=labels)

    def relabel(self, mapping):
        new = {}
        for (a, b), v in self._v.items():
            new[(mapping[a], mapping[b])] = v
        return DoubleWeights(new)

    def dense(self):
        if self._dense_cache is False:
            self._dense_cache = _dense_from_items(self.labels, self.items(), 2)
        return self._dense_cache

    def __repr__(self):
        return f"DoubleWeights(n={self.n})"


class TripleWeights:
    """All C(n, 3) values over unordered triples of a label set."""

    order = 3

    def __init__(self, values, labels=None):
        norm = {}
        for key, val in values.items():
            a, b, c = key
            trip = tuple(sorted((a, b, c)))
            if len(set(trip)) != 3:
                raise ValueError(f"triple key with repeated labels: {key}")
            if trip in norm:
                raise ValueError(f"duplicate entry for triple {trip}")
            norm[trip] = val
        if labels is None:
            labels = {x for trip in norm for x in trip}
        labels = tuple(sorted(labels))
        _validate_labels(labels)
        if len(labels) < 3:
            raise ValueError("TripleWeights needs at least 3 labels")
        _check_keys(norm, labels, 3, "triple")
        self.labels = labels
        self.n = len(labels)
        self._v = norm
        self._dense_cache = False

    def value(self, i, j, k):
        trip = tuple(sorted((i, j, k)))
        if len(set(trip)) != 3:
            raise ValueError("triple lookup needs three distinct labels")
        try:
            return self._v[trip]
        except KeyError:
            raise LabelError(f"triple {trip} not in container") from None

    def items(self):
        return sorted(self._v.items())

    def restrict(self, labels):
        labels = tuple(sorted(labels))
        keep = set(labels)
        sub = {t: v for t, v in self._v.items() if set(t) <= keep}
        return TripleWeights(sub, labels=labels)

    def relabel(self, mapping):
        new = {}
        for (a, b, c), v in self._v.items():
            new[(mapping[a], mapping[b], mapping[c])] = v
        return TripleWeights(new)

    def dense(self):
        if self._dense_cache is False:
            self._dense_cache = _dense_from_items(self.labels, self.items(), 3)
        return self._dense_cache

    def __repr__(self):
        return f"TripleWeights(n={self.n})"


# --------------------------------------------------------------------- #
# Builders from trees                                                    #
# --------------------------------------------------------------------- #


def doubles_of_tree(tree) -> DoubleWeights:
    """Pairwise path weights of a tree as a container."""
    return DoubleWeights(tree_mod.all_pairwise_weights(tree), labels=tree.leaves)


def triples_of_tree(tree) -> TripleWeights:
    """Triple subtree weights of a tree; uses the half-sum identity."""
    pairs = tree_mod.all_pairwise_weights(tree)

    def d(a, b):
        return pairs[(a, b) if a < b else (b, a)]

    vals = {
        (i, j, k): half(d(i, j) + d(i, k) + d(j, k))
        for i, j, k in combinations(tree.leaves, 3)
    }
    return TripleWeights(vals, labels=tree.leaves)


# --------------------------------------------------------------------- #
# Star condition                                                         #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StarResult:
    """Outcome of a star-condition query for one label pair.

    ``common_difference`` is the midrange of the observed differences
    (exactly the common value when they are all equal), ``max_spread``
    their max minus min.  ``holds`` iff the spread is within the queried
    tolerance.
    """

    holds: bool
    common_difference: object
    max_spread: object


def _star_window_doubles(w: DoubleWeights, a, b):
    lo = hi = None
    for g in w.labels:
        if g == a or g == b:
            continue
        diff = w.value(a, g) - w.value(b, g)
        if lo is None or diff < lo:
            lo = diff
        if hi is None or diff > hi:
            hi = diff
    return lo, hi


def _star_window_triples(t: TripleWeights, a, b):
    rest = [g for g in t.labels if g != a and g != b]
    lo = hi = None
    for g1, g2 in combinations(rest, 2):
        diff = t.value(a, g1, g2) - t.value(b, g1, g2)
        if lo is None or diff < lo:
            lo = diff
        if hi is None or diff > hi:
            hi = diff
    return lo, hi


def star_condition_doubles(w: DoubleWeights, alpha, alpha2, tol=0) -> StarResult:
    """Is D[alpha, g] - D[alpha2, g] the same for every other label g?"""
    if alpha == alpha2:
        raise ValueError("star condition needs two distinct labels")
    if w.n < 3:
        raise InstanceTooSmallError(
            "star condition on doubles needs n >= 3", required=3, got=w.n
        )
    lo, hi = _star_window_doubles(w, alpha, alpha2)
    spread = hi - lo
    return StarResult(spread <= tol, midrange(lo, hi), spread)


def star_condition_triples(t: TripleWeights, alpha, alpha2, tol=0) -> StarResult:
    """Same test over D[alpha, g1, g2] - D[alpha2, g1, g2]."""
    if alpha == alpha2:
        raise ValueError("star condition needs two distinct labels")
    if t.n < 4:
        raise InstanceTooSmallError(
            "star condition on triples needs n >= 4", required=4, got=t.n
        )
    lo, hi = _star_window_triples(t, alpha, alpha2)
    spread = hi - lo
    return StarResult(spread <= tol, midrange(lo, hi), spread)


@lru_cache(maxsize=64)
def _upper_pairs(m):
    return np.triu_indices(m, 1)  # row-major, i.e. combinations order


@lru_cache(maxsize=64)
def _upper_triples(m):
    idx = np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)
    return idx[:, 0], idx[:, 1], idx[:, 2]


def upper_keys(m, order):
    """Index arrays of every sorted key over range(m), in combinations order."""
    return _upper_pairs(m) if order == 2 else _upper_triples(m)


# Largest temporary the block kernels build, in array elements (8 MB of
# int64 or float64); a block always holds at least one pair or label.
BLOCK_ELEMS = 1 << 20


def _object_bytes(x):
    """Bytes held by one Python int or Fraction, its parts included."""
    if isinstance(x, Fraction):
        return sys.getsizeof(x) + sys.getsizeof(x.numerator) + sys.getsizeof(x.denominator)
    return sys.getsizeof(x)


def block_elems(arr, factor=1):
    """Elements per block temporary, so that a block takes about
    ``BLOCK_ELEMS * 8`` bytes.

    int64 and float64 elements take 8 bytes.  Each element of an ``object``
    block is a Python number of its own, a difference or sum of mirror
    elements (times *factor*): it is counted as a pointer plus twice the
    largest distinct mirror element and the bytes of *factor*.
    """
    if arr.dtype != object:
        return BLOCK_ELEMS
    entries = arr[upper_keys(arr.shape[0], arr.ndim)].tolist()
    item = 8 + 2 * max(map(_object_bytes, entries), default=0)
    item += 2 * (factor.bit_length() // 8)
    return max(1, BLOCK_ELEMS * 8 // item)


@lru_cache(maxsize=64)
def _completion_layout(m):
    """Completions g1 < g2 of a triple star window over range(m).

    Returns (cols, touch, rank): ``cols`` are the flat positions g1*m + g2
    in the (m, m*m) view of a mirror, in combinations order; ``touch[g]``
    the indices into ``cols`` of the m - 1 completions containing g; and
    ``rank[g1, g2]`` the index of completion (g1, g2).
    """
    g1, g2 = _upper_pairs(m)
    rank = np.zeros((m, m), dtype=np.intp)
    rank[g1, g2] = rank[g2, g1] = np.arange(len(g1))
    touch = rank[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    return g1 * m + g2, touch, rank


def _skip(g, ia, ib):
    """Smallest index >= g outside {ia, ib}, elementwise; needs ia < ib."""
    g = g + (g == ia)
    return g + (g == ib)


def _star_windows(arr, order):
    """(lo, hi) of every label pair's star window, in combinations order.

    One block kernel for both orders: a pair (a, b) differences row a
    against row b of the mirror over every completion (a label g, or a
    pair g1 < g2).  The completions that contain a or b are overwritten
    with the difference at a completion free of both, which leaves the
    window's min and max unchanged without a per-pair index list.
    """
    m = arr.shape[0]
    ia, ib = _upper_pairs(m)
    flat = arr.reshape(m, -1)
    free = _skip(np.zeros_like(ia), ia, ib)
    if order == 2:
        width = m
        touch = np.arange(m)[:, None]
    else:
        cols, touch, rank = _completion_layout(m)
        width = len(cols)
        free = rank[free, _skip(free + 1, ia, ib)]
    lo = np.empty(len(ia), dtype=arr.dtype)
    hi = np.empty(len(ia), dtype=arr.dtype)
    step = max(1, block_elems(arr) // width)
    for s in range(0, len(ia), step):
        a, b = ia[s : s + step], ib[s : s + step]
        if order == 2:
            diff = flat[a] - flat[b]
        else:
            diff = flat[a[:, None], cols] - flat[b[:, None], cols]
        rows = np.arange(len(a))
        keep = diff[rows, free[s : s + step]][:, None]
        diff[rows[:, None], touch[a]] = keep
        diff[rows[:, None], touch[b]] = keep
        lo[s : s + step] = diff.min(axis=1)
        hi[s : s + step] = diff.max(axis=1)
    return lo, hi


def star_table(w, tol=0):
    """StarResult for every label pair at once.

    Semantically identical to looping the single-pair queries.  The block
    kernel runs on the dense mirror; the results are built in bulk (int
    windows become Fractions over the mirror's scale).
    """
    labels = w.labels
    order = w.order
    if w.n < order + 1:
        raise InstanceTooSmallError(
            f"star table needs n >= {order + 1} for order {order}",
            required=order + 1,
            got=w.n,
        )
    kind, arr, scale = w.dense()
    lo, hi = _star_windows(arr, order)
    if kind == "int":
        spreads = [Fraction(x, scale) for x in (hi - lo).tolist()]
        mids = [Fraction(x, 2 * scale) for x in (lo + hi).tolist()]
    else:
        spreads = (hi - lo).tolist()
        mids = (0.5 * (lo + hi)).tolist()
    return {
        key: StarResult(spread <= tol, mid, spread)
        for key, spread, mid in zip(combinations(labels, 2), spreads, mids)
    }


def neighbor_pairs(w, tol=0):
    """All pairs satisfying the star condition, sorted lexicographically.

    Requires n >= 3 for doubles and n >= 5 for triples: below those sizes
    the condition no longer characterises bells, so the query refuses.
    """
    required = 3 if isinstance(w, DoubleWeights) else 5
    if w.n < required:
        raise InstanceTooSmallError(
            f"neighbor_pairs needs n >= {required} for order {w.order}",
            required=required,
            got=w.n,
        )
    table = star_table(w, tol)
    return sorted(pair for pair, res in table.items() if res.holds)


# --------------------------------------------------------------------- #
# Derived pairwise values from triples                                   #
# --------------------------------------------------------------------- #


def derived_pairwise(t: TripleWeights, i, j, r, s, u):
    """Pairwise value for (i, j) recovered from six surrounding triples:

        2/3 (D_ijr + D_ijs + D_iju + D_rsu)
      - 1/3 (D_irs + D_iru + D_isu + D_jrs + D_jru + D_jsu)

    Independent of the choice of {r, s, u} exactly when the data is
    tree-realisable.
    """
    if len({i, j, r, s, u}) != 5:
        raise ValueError("derived_pairwise needs five distinct labels")
    plus = t.value(i, j, r) + t.value(i, j, s) + t.value(i, j, u) + t.value(r, s, u)
    minus = (
        t.value(i, r, s)
        + t.value(i, r, u)
        + t.value(i, s, u)
        + t.value(j, r, s)
        + t.value(j, r, u)
        + t.value(j, s, u)
    )
    return TWO_THIRDS * plus - THIRD * minus


def derived_pairwise_consistent(t: TripleWeights, tol=0):
    """Condition 2: is *t*, within tol, the half-sum lift of one pairwise set d?

    d is the least-squares fit from the pair sums P_ij = sum_r T_ijr, the
    label sums L_i = sum_{j<k} T_ijk and the total S = sum T:

        D = 2S/(n-2),  R_i = (2 L_i - D)/(n-3),  d_ij = (2 P_ij - R_i - R_j)/(n-4)

    On a lift d is the lifted set exactly; it equals :func:`derived_pairwise`
    for every {r, s, u}.  The check, max |T_ijk - (d_ij + d_ik + d_jk)/2| <=
    tol, is O(n^3) on the mirror.  At tol 0 it holds exactly when no derived
    value depends on {r, s, u}; for tol > 0 it bounds the lift residual, not
    the spread of the derived values.  Every triple set on 5 labels is a lift.

    Returns (True, d as DoubleWeights) or (False, None).
    """
    if t.n < 5:
        raise InstanceTooSmallError(
            "derived pairwise consistency needs n >= 5", required=5, got=t.n
        )
    kind, arr, scale = t.dense()
    m = t.n
    if kind == "int" and not holds_fractions(arr):
        # every term below stays within 48 n^3 max|unit|
        arr = arr.astype(int_dtype(int(np.abs(arr).max(initial=0)) * 48 * m**3), copy=False)
    # the sums add in index order, so a loop over the values rounds alike;
    # the mirror's repeated-index entries are zero
    pair = reduce(operator.add, arr.transpose(2, 0, 1))  # P_ij
    row = reduce(operator.add, pair.T)  # 2 L_i
    # den * d_ij = part_ij + c; c = 12 S, the one term summing every entry
    # (on a mirror of Fractions the longest), is added once per extreme
    den = 3 * (m - 2) * (m - 3) * (m - 4)
    part = 6 * (m - 2) * (m - 3) * pair - 3 * (m - 2) * np.add.outer(row, row)
    c = 2 * reduce(operator.add, row)
    i, j, k = _upper_triples(m)
    gap = 2 * den * arr[i, j, k] - (part[i, j] + part[i, k] + part[j, k])
    worst = max(gap.max() - 3 * c, 3 * c - gap.min())  # 2 den max |T - lift(d)|
    iu = _upper_pairs(m)
    if kind == "int":
        if not Fraction(exact_scalar(worst), 2 * den * scale) <= tol:
            return False, None
        values = [Fraction(x, den * scale) for x in (part[iu] + c).tolist()]
    else:
        if not worst / (2 * den) <= tol:
            return False, None
        values = ((part[iu] + c) / den).tolist()
    return True, DoubleWeights(dict(zip(combinations(t.labels, 2), values)), labels=t.labels)


def triples_from_doubles(d: DoubleWeights) -> TripleWeights:
    """Triple values induced by pairwise values via the half-sum identity."""
    if d.n < 3:
        raise InstanceTooSmallError(
            "triples_from_doubles needs n >= 3", required=3, got=d.n
        )
    vals = {
        (i, j, k): half(d.value(i, j) + d.value(i, k) + d.value(j, k))
        for i, j, k in combinations(d.labels, 3)
    }
    return TripleWeights(vals, labels=d.labels)


# --------------------------------------------------------------------- #
# Four-point validator                                                   #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BunemanVerdict:
    passed: bool
    witness: tuple | None  # first offending quadruple, lexicographic
    gap: object  # by how much the two largest sums differ at the witness


def buneman_check(d: DoubleWeights, tol=0) -> BunemanVerdict:
    """Four-point test: per quadruple the two largest pair sums must agree.

    Vacuously passes for n < 4.  Metric axioms are deliberately not
    required here; see :func:`metric_warnings` for those.
    """
    for i, j, k, h in combinations(d.labels, 4):
        sums = sorted(
            (
                d.value(i, j) + d.value(k, h),
                d.value(i, k) + d.value(j, h),
                d.value(i, h) + d.value(j, k),
            )
        )
        gap = sums[2] - sums[1]
        if gap > tol:
            return BunemanVerdict(False, (i, j, k, h), gap)
    return BunemanVerdict(True, None, 0)


def metric_warnings(d: DoubleWeights):
    """Non-fatal metric violations: non-positive entries, triangle breaches."""
    warnings = []
    for (a, b), v in d.items():
        if v <= 0:
            warnings.append(f"non-positive distance for pair ({a}, {b}): {v}")
    for i, j, k in combinations(d.labels, 3):
        dij, dik, djk = d.value(i, j), d.value(i, k), d.value(j, k)
        for (x, y, z, lhs, rhs) in (
            (i, j, k, dik, dij + djk),
            (i, k, j, dij, dik + djk),
            (j, k, i, djk, dij + dik),
        ):
            if lhs > rhs:
                warnings.append(
                    f"triangle violation: D({x},{y}) > D({x},{z}) + D({z},{y})"
                )
    return warnings


# --------------------------------------------------------------------- #
# File format                                                            #
# --------------------------------------------------------------------- #


def _parse_weight_lines(text, order, mode):
    n = None
    entries = {}
    entry_lines = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(f"expected the label count, got {line!r}", lineno)
            if n < order:
                raise ParseError(f"label count {n} too small for order {order}", lineno)
            continue
        tokens = line.split()
        if len(tokens) != order + 1:
            raise ParseError(
                f"expected {order + 1} fields (labels then value), got {len(tokens)}",
                lineno,
            )
        try:
            labs = tuple(int(x) for x in tokens[:order])
        except ValueError:
            raise ParseError(f"bad label in {tokens[:order]}", lineno)
        if list(labs) != sorted(set(labs)):
            raise ParseError(f"labels must be strictly increasing: {labs}", lineno)
        if labs[0] < 1 or labs[-1] > n:
            raise ParseError(f"label out of range 1..{n}: {labs}", lineno)
        if labs in entries:
            raise ParseError(
                f"duplicate entry for {labs} (first at line {entry_lines[labs]})",
                lineno,
            )
        try:
            entries[labs] = parse_number(tokens[order], mode)
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
        entry_lines[labs] = lineno
    if n is None:
        raise ParseError("empty input: no label count found")
    # every entry is in range and unique, so the count is the difference,
    # and the first gap lies within the first len(entries) + 1 keys
    missing = math.comb(n, order) - len(entries)
    if missing:
        first = next(k for k in combinations(range(1, n + 1), order) if k not in entries)
        raise ParseError(f"{missing} entries missing (first: {' '.join(map(str, first))})")
    return n, entries


def parse_doubles(text: str, mode: str = "rational") -> DoubleWeights:
    n, entries = _parse_weight_lines(text, 2, mode)
    return DoubleWeights(entries, labels=range(1, n + 1))


def parse_triples(text: str, mode: str = "rational") -> TripleWeights:
    n, entries = _parse_weight_lines(text, 3, mode)
    return TripleWeights(entries, labels=range(1, n + 1))


def _emit(container) -> str:
    if container.labels != tuple(range(1, container.n + 1)):
        raise ValueError("only containers labelled 1..n can be written to file")
    lines = [str(container.n)]
    for key, val in container.items():
        lines.append(" ".join(map(str, key)) + " " + format_number(val))
    return "\n".join(lines) + "\n"


def emit_doubles(d: DoubleWeights) -> str:
    return _emit(d)


def emit_triples(t: TripleWeights) -> str:
    return _emit(t)
