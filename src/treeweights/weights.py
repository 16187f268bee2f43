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
them.  Float containers use a float64 array.  A container read from a
well-formed file, or handed over by a carried mirror, starts from the
mirror alone (:meth:`DoubleWeights.from_mirror`) and builds its dict of
values only when a lookup first needs it.

The star table over all label pairs is one block kernel for both orders
(:func:`_star_windows`): pairs are taken in blocks of about
``BLOCK_ELEMS * 8`` bytes (see :func:`block_elems`), each block differences
the mirror rows of its pairs over every completion at once, and the
completions that contain a pair's own labels are neutralised by
overwriting them in place.  A single-pair star query is one window of
the same kernel; the tests hold the kernels to reference loops result
for result, bitwise for floats.

Neighbor joining and the reconstruction's pruning carry one mirror from
step to step (:class:`_Mirror`).  An exact step that leaves the units
rescales units and scale by a factor (moving int64 to ``object`` when the
headroom requires it); a pruned mirror divides them by their gcd again, so
it stays what ``dense()`` gives the container of its values.

Condition 2 on triples (:func:`derived_pairwise_consistent`) asks whether
the triples are the half-sum lift T_ijk = (d_ij + d_ik + d_jk) / 2 of one
pairwise set d.  It fits d from three reductions of the mirror and checks
the lift residual, O(n^3) in all, the size of the input.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce, wraps
from itertools import combinations, islice, permutations, repeat

import numpy as np

from . import tree as tree_mod
from .errors import InstanceTooSmallError, LabelError, ParseError
from .numeric import (
    MODES,
    THIRD,
    TWO_THIRDS,
    _exact_type,
    format_number,
    half,
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


def _exact_units(values):
    """(fill, scale, zero) of exact values: units over the LCM of their
    denominators (see :func:`int_dtype`), or, when that scale would pass
    ``_DENSE_SCALE_BITS``, their own Fractions with scale 1."""
    scale = 1
    for v in values:
        scale = math.lcm(scale, v.denominator)
        if scale.bit_length() > _DENSE_SCALE_BITS:
            fill = np.empty(len(values), dtype=object)
            fill[:] = [Fraction(x) for x in values]
            return fill, 1, Fraction(0)
    units = [v.numerator * (scale // v.denominator) for v in values]
    return np.array(units, dtype=int_dtype(max(map(abs, units), default=0))), scale, 0


def _symmetric(fill, m, order, zero):
    """The (m,) * order array holding *fill*, one value per sorted key in
    combinations order, at every permutation of its key; *zero* elsewhere."""
    arr = np.full((m,) * order, zero, dtype=fill.dtype)
    keys = upper_keys(m, order)
    for perm in permutations(range(order)):
        arr[tuple(keys[k] for k in perm)] = fill
    return arr


def _dense_from_items(labels, items, order):
    """(kind, array, scale) mirror of a container, from its sorted items:
    kind "int", ``array * 1/scale`` equals the exact values (see
    :func:`_exact_units`); kind "float", float64 values and scale None."""
    values = [v for _, v in items]
    if all(map(_exact_type, set(map(type, values)))):
        fill, scale, zero = _exact_units(values)
        kind = "int"
    else:
        fill, scale, zero = np.array([float(v) for v in values], dtype=np.float64), None, 0
        kind = "float"
    return kind, _symmetric(fill, len(labels), order, zero), scale


def exact_scalar(x):
    """An element of an exact mirror or kernel result as a Python int or
    Fraction (a numpy int would carry int64 arithmetic into a Fraction)."""
    return x if isinstance(x, (int, Fraction)) else int(x)


def holds_fractions(arr):
    """True for a mirror of the values' own Fractions (scale 1), not of
    units; every element of such a mirror, the diagonal too, is a Fraction."""
    return arr.dtype == object and isinstance(arr.flat[0], Fraction)


class _WeightSet:
    """What the pair and triple containers share.

    The values over every sorted key of ``labels`` are held as a dict, as
    the dense mirror :meth:`dense` gives, or both.  A container built from
    its mirror (:meth:`from_mirror`) builds the dict when a lookup first
    needs it, with the values the mirror stands for: Fractions for kind
    "int", floats for kind "float".
    """

    @classmethod
    def from_mirror(cls, labels, kind, arr, scale):
        """The container of a mirror in :meth:`dense`'s form over sorted
        *labels*, with no dict and no key scan.  *arr* is kept, not copied."""
        w = cls.__new__(cls)
        w.labels = tuple(labels)
        w.n = len(w.labels)
        w._dict = None
        w._dense_cache = (kind, arr, scale)
        return w

    def _setup(self, norm, labels):
        self.labels = labels
        self.n = len(labels)
        self._dict = norm
        self._dense_cache = None  # not yet computed

    @property
    def _v(self):
        if self._dict is None:
            kind, arr, scale = self._dense_cache
            values = arr[upper_keys(self.n, self.order)].tolist()
            if kind == "int":
                values = [Fraction(x, scale) for x in values]
            self._dict = dict(zip(combinations(self.labels, self.order), values))
        return self._dict

    def items(self):
        return sorted(self._v.items())

    def restrict(self, labels):
        labels = tuple(sorted(labels))
        keep = set(labels)
        sub = {key: v for key, v in self._v.items() if keep.issuperset(key)}
        return type(self)(sub, labels=labels)

    def relabel(self, mapping):
        return type(self)({tuple(map(mapping.__getitem__, key)): v for key, v in self._v.items()})

    def dense(self):
        if self._dense_cache is None:
            self._dense_cache = _dense_from_items(self.labels, self.items(), self.order)
        return self._dense_cache

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class DoubleWeights(_WeightSet):
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
        self._setup(norm, labels)

    dense = _WeightSet.dense  # in the class's own namespace, where perfbench wraps it

    def value(self, i, j):
        if i == j:
            raise ValueError("pair lookup needs distinct labels")
        pair = (i, j) if i < j else (j, i)
        try:
            return self._v[pair]
        except KeyError:
            raise LabelError(f"pair {pair} not in container") from None


class TripleWeights(_WeightSet):
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
        self._setup(norm, labels)

    dense = _WeightSet.dense  # in the class's own namespace, where perfbench wraps it

    def value(self, i, j, k):
        trip = tuple(sorted((i, j, k)))
        if len(set(trip)) != 3:
            raise ValueError("triple lookup needs three distinct labels")
        try:
            return self._v[trip]
        except KeyError:
            raise LabelError(f"triple {trip} not in container") from None


# --------------------------------------------------------------------- #
# Builders from trees                                                    #
# --------------------------------------------------------------------- #


def doubles_of_tree(tree) -> DoubleWeights:
    """Pairwise path weights of a tree as a container."""
    return DoubleWeights(tree_mod.all_pairwise_weights(tree), labels=tree.leaves)


def triples_of_tree(tree) -> TripleWeights:
    """Triple subtree weights of a tree: the half-sum lift of its path
    weights (:func:`triples_from_doubles`)."""
    return triples_from_doubles(doubles_of_tree(tree))


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


def _star_condition(w, alpha, alpha2, tol=0) -> StarResult:
    """Is D[alpha, rest] - D[alpha2, rest] the same for every completion
    rest of the pair: every other label g (doubles), every other label
    pair g1 < g2 (triples)?

    One window of :func:`_star_windows` on the container's mirror, taken
    for the labels in index order and negated when *alpha* sorts after
    *alpha2*.  Bound as :func:`star_condition_doubles` and
    :func:`star_condition_triples`.
    """
    if alpha == alpha2:
        raise ValueError("star condition needs two distinct labels")
    order = w.order
    if w.n < order + 1:
        raise InstanceTooSmallError(
            f"star condition on {'doubles' if order == 2 else 'triples'} needs n >= {order + 1}",
            required=order + 1,
            got=w.n,
        )
    for x in (alpha, alpha2):
        if x not in w.labels:
            raise LabelError(f"label {x} not in container")
    state = _Mirror(w)
    ia, ib = sorted(map(w.labels.index, (alpha, alpha2)))
    window = _star_windows(state.arr, order, (np.array([ia]), np.array([ib])))
    lo, hi = (state.value(x[0]) for x in window)
    if alpha > alpha2:
        # 0 - x, not -x: a float window of +0.0 stays +0.0, as the
        # differences taken in this order give it
        lo, hi = 0 - hi, 0 - lo
    spread = hi - lo
    return StarResult(spread <= tol, midrange(lo, hi), spread)


star_condition_doubles = star_condition_triples = _star_condition


# Bytes of index arrays the caches below keep between calls, all three
# together.  Classic NJ asks for every size from n down, once each, so a
# count bound would hold about n of them (440 MB at n = 1000).
_INDEX_CACHE_BYTES = 32 << 20
_index_cache = OrderedDict()  # (builder, m) -> arrays, least recently used first


def _index_arrays(build):
    """Cache *build*(m), a tuple of index arrays, least recently used out
    first once the cache would hold more than ``_INDEX_CACHE_BYTES``."""

    @wraps(build)
    def cached(m):
        key = (build, m)
        out = _index_cache.get(key)
        if out is not None:
            _index_cache.move_to_end(key)
            return out
        out = build(m)
        _index_cache[key] = out
        held = sum(a.nbytes for arrays in _index_cache.values() for a in arrays)
        while held > _INDEX_CACHE_BYTES and _index_cache:
            held -= sum(a.nbytes for a in _index_cache.popitem(last=False)[1])
        return out

    return cached


@_index_arrays
def _upper_pairs(m):
    return np.triu_indices(m, 1)  # row-major, i.e. combinations order


@_index_arrays
def _upper_triples(m):
    idx = np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)
    return idx[:, 0], idx[:, 1], idx[:, 2]


def upper_keys(m, order):
    """Index arrays of every sorted key over range(m), in combinations order."""
    return _upper_pairs(m) if order == 2 else _upper_triples(m)


# Largest temporary the block kernels build, in array elements (8 MB of
# int64 or float64); a block always holds at least one pair or label.
BLOCK_ELEMS = 1 << 20


def block_elems(arr):
    """Elements per block temporary, so that a block takes about
    ``BLOCK_ELEMS * 8`` bytes.

    int64 and float64 elements take 8 bytes.  Each element of an ``object``
    block is a Python number of its own, a difference or sum of mirror
    elements: it is counted as a pointer plus twice the largest mirror
    element, by its bytes.  For ints that is the element of largest
    magnitude; a Fraction counts its own bytes and those of its numerator
    and denominator, so a mirror of Fractions is measured entry by entry.
    """
    if arr.dtype != object:
        return BLOCK_ELEMS
    entries = arr[upper_keys(arr.shape[0], arr.ndim)]
    if not entries.size:
        return BLOCK_ELEMS
    if holds_fractions(arr):
        parts = [entries] + [map(operator.attrgetter(p), entries) for p in ("numerator", "denominator")]
        top = max(map(sum, zip(*(map(sys.getsizeof, p) for p in parts))))
    else:
        top = sys.getsizeof(max(entries.max(), -entries.min()))
    return max(1, BLOCK_ELEMS * 8 // (8 + 2 * top))


@_index_arrays
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


def _star_windows(arr, order, pairs=None):
    """(lo, hi) of every label pair's star window, in combinations order,
    or of the index *pairs* (ia, ib), ia < ib elementwise, when given.

    One block kernel for both orders: a pair (a, b) differences row a
    against row b of the mirror over every completion (a label g, or a
    pair g1 < g2).  The completions that contain a or b are overwritten
    with the difference at a completion free of both, which leaves the
    window's min and max unchanged without a per-pair index list.
    """
    m = arr.shape[0]
    ia, ib = _upper_pairs(m) if pairs is None else pairs
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
# The carried mirror                                                     #
# --------------------------------------------------------------------- #


def _over(spread, tol, scale):
    """Where spread / scale > tol, for a kernel's spreads in a mirror's
    units (*scale* None: floats); exact for int, Fraction, float and
    infinite tolerances alike."""
    if scale is None:
        if isinstance(tol, float):
            return spread > tol
        return np.array([x > tol for x in spread.tolist()], dtype=bool)
    if isinstance(tol, float) and not math.isfinite(tol):
        return spread > tol
    limit = Fraction(tol) * scale
    if spread.dtype != object:
        # an int spread passes the limit iff it passes its floor; int64
        # spreads stay far below 2**62, and so can the limit
        limit = min(max(math.floor(limit), -(2**62)), 2**62)
    elif limit.denominator == 1:
        limit = limit.numerator  # int against int skips Fraction's Python-level compare
    return spread > limit


class _Mirror:
    """A weight set carried as its dense mirror from step to step: labels
    in index order (ascending, so a fresh label max + 1 takes the last
    slot), array, scale and kind as :meth:`DoubleWeights.dense` gives them.

    kind "int": ``arr / scale`` are the exact values; kind "float":
    float64, scale None.  An int64 mirror keeps its largest unit under
    ``_DENSE_MAG_CAP``, the container's own rule; a step whose formula
    sums more terms (NJ's row sums, a bell mean) widens for them first.
    Every step builds new arrays; the container's own mirror is never
    written.
    """

    __slots__ = ("labels", "arr", "scale", "kind")

    def __init__(self, w):
        self.kind, arr, self.scale = w.dense()
        self.labels = list(w.labels)
        self._set(arr)

    @property
    def n(self):
        return len(self.labels)

    @property
    def order(self):
        return self.arr.ndim

    def widen(self, factor, top=0):
        """Move an int64 mirror to ``object`` ints when factor * max|unit|,
        or *top*, would pass the int64 headroom (see :func:`int_dtype`)."""
        arr = self.arr
        if arr.dtype == np.int64 and int_dtype(
            max(int(np.abs(arr).max(initial=0)) * factor, top)
        ) is object:
            self.arr = arr.astype(object)

    def _set(self, arr):
        """Carry *arr*, widened for the mirror's headroom."""
        self.arr = arr
        self.widen(1)

    def rescale(self, factor):
        """Multiply the units and the scale by *factor*, the one way an
        exact mirror leaves its units."""
        if factor != 1:
            self.widen(factor)
            self._set(self.arr * factor)
            self.scale *= factor

    def in_units(self):
        return self.kind == "int" and not holds_fractions(self.arr)

    def value(self, x):
        """A mirror element (or a sum of them) as a Python Fraction or float."""
        if self.kind == "float":
            return float(x)
        return Fraction(exact_scalar(x), self.scale)

    def units(self, values):
        """Python numbers in the mirror's arithmetic; exact ones whose
        denominators leave the units rescale the mirror first."""
        if self.kind == "float":
            return np.array([float(v) for v in values], dtype=np.float64)
        exact = [Fraction(v) for v in values]
        if self.in_units():
            self.rescale(math.lcm(self.scale, *(v.denominator for v in exact)) // self.scale)
            exact = [v.numerator * (self.scale // v.denominator) for v in exact]
            self.widen(1, max(map(abs, exact), default=0))
        out = np.empty(len(exact), dtype=object)
        out[:] = exact
        return out.astype(self.arr.dtype)

    def halve(self, twice):
        """*twice* / 2 in the mirror's units; an odd unit doubles the
        mirror and the scale first, so *twice* itself is the half."""
        if self.kind == "float":
            return 0.5 * twice
        if not self.in_units():
            return twice / 2
        if (twice % 2 != 0).any():
            self.rescale(2)
            return twice
        return twice // 2

    def settle(self):
        """Give an exact mirror the form ``dense()`` gives the container of
        its values: the least scale, the dtype its units need, or the
        values' own Fractions past ``_DENSE_SCALE_BITS``."""
        if self.kind == "float":
            return
        if not holds_fractions(self.arr):
            g = math.gcd(self.scale, int(np.gcd.reduce(self.arr, axis=None)))
            if g > 1:
                self.arr, self.scale = self.arr // g, self.scale // g
            if self.scale.bit_length() <= _DENSE_SCALE_BITS:
                top = int(np.abs(self.arr).max(initial=0))
                self.arr = self.arr.astype(int_dtype(top), copy=False)
                return
        keys = upper_keys(self.n, self.order)
        fill, self.scale, zero = _exact_units([self.value(x) for x in self.arr[keys].tolist()])
        self.arr = _symmetric(fill, self.n, self.order, zero)

    def container(self):
        cls = DoubleWeights if self.order == 2 else TripleWeights
        return cls.from_mirror(self.labels, self.kind, self.arr, self.scale)

    def twig(self, i, j, x):
        """(d_ij + d_ix - d_jx) / 2, i's twig against j, as a Python value."""
        a = self.arr
        return half(self.value(a[i, j]) + self.value(a[i, x]) - self.value(a[j, x]))

    def final_edge(self):
        u, v = self.labels
        return (u, v, self.value(self.arr[0, 1]))


def _bell_twigs(state: _Mirror, groups):
    """Twig of every member of every bell (groups of indices) of a pairwise
    mirror, against the bell's smallest other member, with the smallest
    index outside the pair as third label.  Returns (members, twigs in the
    mirror's units, twigs as Python values)."""
    mem = np.array([k for g in groups for k in g], dtype=np.intp)
    partner = np.array([g[1] if k == g[0] else g[0] for g in groups for k in g], dtype=np.intp)
    x = _skip(np.zeros_like(mem), np.minimum(mem, partner), np.maximum(mem, partner))
    arr = state.arr
    units = state.halve(arr[mem, partner] + arr[mem, x] - arr[partner, x])
    return mem, units, [state.value(u) for u in units.tolist()]


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


def _lex_keys(lo, n, order):
    """``combinations(range(lo, n + 1), order)``, without building the
    range first: a header may name far more labels than the file holds."""
    if order == 0:
        yield ()
        return
    for a in range(lo, n + 1):
        for rest in _lex_keys(a + 1, n, order - 1):
            yield (a, *rest)


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
        first = next(k for k in _lex_keys(1, n, order) if k not in entries)
        raise ParseError(f"{missing} entries missing (first: {' '.join(map(str, first))})")
    return n, entries


# a rational-mode token that int() reads as parse_number does; longer
# integers go through parse_number and its exponent limit
_PLAIN_INT = re.compile(r"[+-]?[0-9]{1,18}").fullmatch


def _read_bulk(text, order, mode):
    """(n, kind, mirror, scale) of a well-formed weight file, or None for
    the line parser to read.

    Well-formed means: no comment, a header line, then C(n, order) lines
    of order + 1 tokens with one space between tokens and no other
    whitespace, labels written as the plain numbers 1..n, strictly
    increasing within a line, every key once in any line order, and values
    read without error.  Such a file gives the line parser's values
    exactly; every other file, malformed ones included, is left to the
    line parser, so its errors and line numbers are the only ones.
    """
    if "#" in text or mode not in MODES:
        return None
    lines = text.splitlines()
    try:
        n = int(lines[0])
    except (IndexError, ValueError):
        return None
    if n < order:
        return None
    count = math.comb(n, order)
    # nothing is sized by n before its keys are known to be in the file
    if len(lines) != count + 1 or not all(map(str.isprintable, lines)):
        return None
    if set(map(str.count, islice(lines, 1, None), repeat(" "))) != {order}:
        return None
    del lines
    # a printable line with `order` spaces holds at most order + 1 tokens,
    # so the total count says that each holds exactly that many
    tokens = text.split()
    if len(tokens) != 1 + count * (order + 1):
        return None
    number = {str(x): x for x in range(1, n + 1)}
    try:
        keys = np.array(
            [np.fromiter(map(number.__getitem__, tokens[1 + c :: order + 1]), np.int64, count)
             for c in range(order)]
        )
    except KeyError:
        return None
    values = tokens[1 + order :: order + 1]
    del tokens
    if not (keys[1:] > keys[:-1]).all():
        return None
    flat = reduce(lambda acc, col: acc * n + col, keys - 1)
    if not (flat[1:] > flat[:-1]).all():
        rank = np.argsort(flat)
        flat = flat[rank]
        if not (flat[1:] > flat[:-1]).all():
            return None  # a key twice, so another one missing
        values = [values[k] for k in rank.tolist()]
    try:
        if mode == "float":
            fill = np.fromiter(map(float, values), np.float64, count)
            # parse_number's own rules for zeros (no sign), NaN and infinities
            for k in np.flatnonzero(~np.isfinite(fill) | (fill == 0)).tolist():
                fill[k] = parse_number(values[k], mode)
            return n, "float", _symmetric(fill, n, order, 0), None
        exact = [int(v) if _PLAIN_INT(v) else parse_number(v, mode) for v in values]
    except ValueError:
        return None
    fill, scale, zero = _exact_units(exact)
    return n, "int", _symmetric(fill, n, order, zero), scale


def _parse(text, mode, cls):
    bulk = _read_bulk(text, cls.order, mode)
    if bulk is not None:
        n, kind, arr, scale = bulk
        return cls.from_mirror(range(1, n + 1), kind, arr, scale)
    n, entries = _parse_weight_lines(text, cls.order, mode)
    return cls(entries, labels=range(1, n + 1))


def parse_doubles(text: str, mode: str = "rational") -> DoubleWeights:
    return _parse(text, mode, DoubleWeights)


def parse_triples(text: str, mode: str = "rational") -> TripleWeights:
    return _parse(text, mode, TripleWeights)


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
