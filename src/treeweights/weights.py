"""Containers for double and triple weights, and the tests run on them.

A *double weight* is a value per unordered leaf pair, a *triple weight* a
value per unordered leaf triple.  The central predicate is the star
condition for a label pair (a, a'): the differences

    D[a, rest] - D[a', rest]        over all completions `rest`

are all equal (within a tolerance).  On data coming from a tree with
enough leaves it holds exactly for the pairs lying in a common bell.

Values are Fractions (exact mode) or floats.  Every container has a dense
numpy mirror (a pair set's symmetric n x n array; a triple set's C(n, 3)
values in combinations order), and every heavy scan runs on it: exact
values are scaled by the LCM of their denominators to integers, held as
int64 while the scaled magnitudes stay under ``_DENSE_MAG_CAP`` and as an
``object`` array of Python ints past it, so the integer results are exact
either way.  Past ``_DENSE_SCALE_BITS`` the common scale would make every
unit longer than the values themselves, so the mirror keeps the values'
own Fractions (on an ``object`` array, scale 1) and the same kernels run on
them.  Float containers use a float64 array.  A container read from a
well-formed file, or handed over by a carried mirror, starts from the
mirror alone (:meth:`DoubleWeights.from_mirror`) and builds its dict of
values only when a lookup first needs it.  A well-formed file is read as
bytes in chunks of bounded size (:func:`_read_bulk`), with no Python object
per label or plain value; exact ``p/q`` tokens are read to integer units,
and written from them, by array passes with no Fraction per value.  A file
of fewer than ``_FEW_BYTES`` characters, and every file the bulk path
refuses, is read line by line (:func:`_parse_weight_lines`), whose checked
dict becomes the container as it is.

The star table over all label pairs is one block kernel on a pairwise
mirror (:func:`_star_windows`): pairs are taken in blocks of about
``BLOCK_ELEMS * 8`` bytes (see :func:`block_elems`), each block differences
the mirror rows of its pairs over every other label at once, and the
entries at a pair's own labels are neutralised by overwriting them in
place.  A single-pair star query is one window of the same kernel; the
tests hold the kernels to reference loops result for result, bitwise for
floats.  A triple set is queried on its pairwise fit (:func:`pairwise_fit`).

The scans over keys of three and four labels share one walker
(:func:`key_blocks`): the triples of the lift, condition 2 and the
triangle warnings, and the quadruples of the four-point test
(:func:`buneman_check`), come in combinations order, in runs of heads (a
first label, or a first pair (i, j)) whose tails (k, h) are suffixes of
the cached pair index, about ``BLOCK_ELEMS // _KEY_ARRAYS`` keys a block.
The four-point scan stops at the first block that holds a quadruple over
the tolerance.

Neighbor joining and the reconstruction's pruning carry one mirror from
step to step (:class:`_Mirror`).  An exact step that leaves the units
rescales units and scale by a factor (moving int64 to ``object`` when the
headroom requires it); a pruned mirror divides them by their gcd again, so
it stays what ``dense()`` gives the container of its values.

A tree's path sums are one kernel (:func:`path_sums`), O(n^2) work in
O(n) numpy calls; :func:`doubles_of_tree` and :func:`triples_of_tree`
hand its mirror, or its half-sum lift, to ``from_mirror``.

Condition 2 on triples (:func:`derived_pairwise_consistent`) asks whether
the triples are the half-sum lift T_ijk = (d_ij + d_ik + d_jk) / 2 of one
pairwise set d.  It fits d from three reductions of the values and checks
the lift residual, O(n^3) in all, the size of the input.  Every star query
on a triple set runs on that fit d: on a lift, the triple window of a pair
at completion {g, h} is the mean of d's windows at g and at h, so with
n >= 5 one holds at tol 0 exactly when the other does, with the same common
difference.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce, wraps
from itertools import accumulate, combinations, islice, repeat

import numpy as np

from .errors import InstanceTooSmallError, LabelError, ParseError
from .numeric import (
    MODES,
    THIRD,
    TWO_THIRDS,
    _exact_type,
    _int_text,
    format_number,
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
        if type(lab) is not int or lab <= 0:
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


def _int_array(xs):
    """Python ints as an int64 array when they all fit, else an ``object`` one."""
    try:
        return np.array(xs, dtype=np.int64)
    except OverflowError:
        return np.array(xs, dtype=object)


def _exact_units(values):
    """(fill, scale, zero) of exact values (ints and Fractions): see
    :func:`_units_of`."""
    return _units_of(
        _int_array([v.numerator for v in values]), _int_array([v.denominator for v in values])
    )


def _units_of(num, den):
    """(fill, scale, zero) of the exact values num / den, arrays of reduced
    numerators and positive denominators: units over the LCM of the
    distinct denominators (see :func:`int_dtype`), or, when that scale
    would pass ``_DENSE_SCALE_BITS``, the values' own Fractions with scale 1.

    The units are num * (scale // den), taken on int64 when max |num| times
    the largest factor stays under 2**63, else on Python ints.
    """
    dens = set()
    for s in range(0, len(den), 1 << 16):  # a bounded list of Python ints at a time
        dens.update(den[s : s + (1 << 16)].tolist())
    scale = 1
    for q in dens:
        scale = math.lcm(scale, q)
        if scale.bit_length() > _DENSE_SCALE_BITS:
            fill = np.empty(len(num), dtype=object)
            fill[:] = list(map(Fraction, num.tolist(), den.tolist()))
            return fill, 1, Fraction(0)
    if num.dtype == den.dtype == np.int64 and scale < 2**63:
        top = max(int(num.max(initial=0)), -int(num.min(initial=0))) * (scale // min(dens, default=1))
        if top < 2**63:  # no product can wrap
            units = num * (scale // den)
            if top >= _DENSE_MAG_CAP:
                top = int(np.abs(units).max())
            return units.astype(int_dtype(top), copy=False), scale, 0
    units = num.astype(object) * (scale // den.astype(object))
    return units.astype(int_dtype(np.abs(units).max(initial=0)), copy=False), scale, 0


def _least_units(units, scale):
    """(units, scale) of the exact values units / scale, an int array of
    any shape, at the least scale: both divided by their gcd, the units
    int64 or ``object`` by magnitude.  None when that scale still passes
    ``_DENSE_SCALE_BITS``."""
    g = math.gcd(scale, int(np.gcd.reduce(units, axis=None)))
    if g > 1:
        units, scale = units // g, scale // g
    if scale.bit_length() > _DENSE_SCALE_BITS:
        return None
    return units.astype(int_dtype(int(np.abs(units).max(initial=0))), copy=False), scale


def _settled(fill, scale):
    """(fill, scale, zero) of exact values in :meth:`_WeightSet.dense`'s
    form, an array of any shape: *fill* / *scale* are units, or (scale 1)
    the values' own Fractions."""
    if not holds_fractions(fill):
        least = _least_units(fill, scale)
        if least is not None:
            return (*least, 0)
    units, scale, zero = _exact_units([unit_value(x, scale) for x in fill.ravel().tolist()])
    return units.reshape(fill.shape), scale, zero


def _symmetric(fill, m, zero):
    """The m x m array holding *fill*, one value per sorted pair in
    combinations order, at (i, j) and (j, i); *zero* on the diagonal."""
    arr = np.full((m, m), zero, dtype=fill.dtype)
    i, j = _upper_pairs(m)
    arr[i, j] = arr[j, i] = fill
    return arr


def _condensed(arr):
    """The values of a mirror, one per sorted key in combinations order."""
    return arr[_upper_pairs(len(arr))] if arr.ndim == 2 else arr


def _dense_from_items(labels, items, order):
    """:meth:`_WeightSet.dense` of a container, from its sorted items."""
    values = [v for _, v in items]
    if all(map(_exact_type, set(map(type, values)))):
        kind, (fill, scale, zero) = "int", _exact_units(values)
    else:
        kind, scale, zero = "float", None, 0
        fill = np.array([float(v) for v in values], dtype=np.float64)
    return kind, _symmetric(fill, len(labels), zero) if order == 2 else fill, scale


def mirror_values(kind, arr, scale):
    """The values of a mirror in :meth:`_WeightSet.dense`'s form, one
    per sorted key in combinations order, as an iterator: Fractions for
    kind "int", floats for kind "float"."""
    values = _condensed(arr).tolist()
    return map(unit_value, values, repeat(scale)) if kind == "int" else iter(values)


def unit_value(x, scale):
    """An element of a mirror or kernel result in units over *scale* (or a
    sum of them) as a Python Fraction; scale None (float) as a float.  A
    numpy int is taken as a Python int first, so that no int64 arithmetic
    reaches the Fraction."""
    if scale is None:
        return float(x)
    return Fraction(x if isinstance(x, (int, Fraction)) else int(x), scale)


def holds_fractions(arr):
    """True for a mirror of the values' own Fractions (scale 1), not of
    units; every element of such a mirror, the diagonal too, is a Fraction."""
    return arr.dtype == object and isinstance(arr.flat[0], Fraction)


class _WeightSet:
    """What the pair and triple containers share.

    The values over every sorted key of ``labels`` are held as a dict, as
    the dense mirror :meth:`dense` gives (for triples, the values in
    combinations order), or both.  A container built from
    its mirror (:meth:`from_mirror`) builds the dict when a lookup first
    needs it, with the values the mirror stands for: Fractions for kind
    "int", floats for kind "float".  Keys and lookups take ``order``
    distinct labels in any order; errors name the key by ``noun``.
    """

    def __init__(self, values, labels=None):
        order, noun = self.order, self.noun
        norm = {}
        for key, val in values.items():
            if len(key) != order:
                raise ValueError(f"{noun} key needs {order} labels: {key}")
            k = tuple(sorted(key))
            if len(set(k)) != order:
                raise ValueError(f"{noun} key with repeated labels: {key}")
            if type(k[0]) is bool:  # a bool sorts first, and True passes for label 1
                raise ValueError(f"labels must be positive ints, got {k[0]!r}")
            if k in norm:
                raise ValueError(f"duplicate entry for {noun} {k}")
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"non-finite value {val!r} for {noun} {k}")
            norm[k] = val
        if labels is None:
            labels = {x for k in norm for x in k}
        labels = tuple(sorted(labels))
        _validate_labels(labels)
        if len(labels) < order:
            raise ValueError(f"{type(self).__name__} needs at least {order} labels")
        _check_keys(norm, labels, order, noun)
        self.labels = labels
        self.n = len(labels)
        self._dict = norm
        self._dense_cache = None  # not yet computed

    @classmethod
    def from_mirror(cls, labels, kind, arr, scale):
        """The container of a mirror in :meth:`dense`'s form (a triple set's
        values in combinations order) over sorted *labels*, with no dict and
        no key scan.  *arr* is kept, not copied."""
        return cls._from_checked(labels, None, (kind, arr, scale))

    @classmethod
    def _from_checked(cls, labels, values, dense=None):
        """The container over sorted *labels*, with no check: of *values*, a
        dict holding every sorted key of the labels once and no other key,
        each with a Fraction or a finite float (the line parser's dict), or,
        with *values* None, of a mirror *dense* in :meth:`dense`'s form.
        Neither is copied."""
        w = cls.__new__(cls)
        w.labels = tuple(labels)
        w.n = len(w.labels)
        w._dict = values
        w._dense_cache = dense
        return w

    @property
    def _v(self):
        if self._dict is None:
            values = mirror_values(*self._dense_cache)
            self._dict = dict(zip(combinations(self.labels, self.order), values))
        return self._dict

    def value(self, *labels):
        """The value at *labels*, ``order`` distinct labels in any order."""
        v = self._v.get(labels)  # labels given sorted skip the sort
        if v is None:
            key = tuple(sorted(labels))
            v = self._v.get(key)
            if v is None:
                if len(key) != self.order or len(set(key)) != self.order:
                    raise ValueError(f"{self.noun} lookup needs {self.order} distinct labels: {labels}")
                raise LabelError(f"{self.noun} {key} not in container")
        return v

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
        """(kind, mirror, scale): kind "int", the exact values as units
        ``mirror / scale`` (see :func:`_exact_units`), or kind "float",
        float64 values and scale None.  A pair set's mirror is its symmetric
        n x n array with a zero diagonal; a triple set's is the 1-D array
        of its values in combinations order."""
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

    order, noun = 2, "pair"
    # in the class's own namespace, where perfbench wraps them
    __init__ = _WeightSet.__init__
    dense = _WeightSet.dense


class TripleWeights(_WeightSet):
    """All C(n, 3) values over unordered triples of a label set.  Immutable,
    so condition 2 (:func:`derived_pairwise_consistent`) runs once, when first used."""

    order, noun = 3, "triple"
    __init__ = _WeightSet.__init__
    dense = _WeightSet.dense

    @cached_property
    def _condition2(self):
        return _lift_fit(self)


# --------------------------------------------------------------------- #
# Builders from trees                                                    #
# --------------------------------------------------------------------- #


def _preorder(adj, root):
    """(nodes, parent) of one iterative walk from *root* over *adj*, a map
    node -> iterable of (neighbour, edge weight).

    ``nodes`` lists every node reached in the order the stack pops it, a
    preorder in which each node's descendants follow it contiguously;
    ``parent`` maps each node to (its parent, the weight of the edge
    between them), and *root* to (None, None).
    """
    parent = {root: (None, None)}
    pre = []
    stack = [root]
    while stack:
        x = stack.pop()
        pre.append(x)
        for y, w in adj[x]:
            if y not in parent:
                parent[y] = (x, w)
                stack.append(y)
    return pre, parent


def path_sums(tree) -> _Mirror:
    """Every leaf-to-leaf path sum of *tree*, as a pairwise mirror over its
    sorted leaves.

    Exact edge weights become units over the LCM of their denominators:
    int64 while the sum of all |units|, which bounds every path, stays
    under the headroom of :func:`int_dtype`, else ``object``.  When that
    scale would pass ``_DENSE_SCALE_BITS`` the weights' own Fractions are
    summed (scale 1).  If any weight is a float, all are taken as float64.
    The mirror keeps the edges' scale; :meth:`_Mirror.settle` gives the
    least one.

    One walk from the smallest leaf (:func:`_preorder`) lists the nodes in
    preorder, so the leaves below every node take a contiguous range of
    sources.  On the (node, source) table P, each edge x - y, y the child,
    is one step per direction: P[x, below y] = P[y, below y] + w on the way
    up, then P[y, rest] = P[x, rest] + w on the way down.  Every path is
    thus summed outward from its source leaf, in the order the per-leaf
    reference walk (``distances_from`` in ``tests/reference_loops.py``)
    adds it, so float sums keep their bits; pair (a, b), a < b, is read
    from source a and mirrored to (b, a).  O(n^2) work in O(n) numpy calls.
    """
    adj, leaves = tree._adj, tree.leaves
    pre, parent = _preorder(adj, leaves[0])
    pos = {v: k for k, v in enumerate(pre)}
    up = [pos[parent[v][0]] for v in pre[1:]]
    weights = [parent[v][1] for v in pre[1:]]
    is_leaf = [len(adj[v]) == 1 for v in pre]
    first = list(accumulate(is_leaf, initial=0))  # leaves before each node
    below = list(map(int, is_leaf))
    for k in range(len(pre) - 1, 0, -1):
        below[up[k - 1]] += below[k]

    if all(map(_exact_type, set(map(type, weights)))):
        kind = "int"
        fill, scale, zero = _exact_units(weights)
        if fill.dtype != object and int_dtype(sum(map(abs, fill.tolist()))) is object:
            fill = fill.astype(object)
    else:
        kind, scale, zero = "float", None, 0.0
        fill = np.array([float(w) for w in weights], dtype=np.float64)
    steps = fill.tolist()
    table = np.full((len(pre), len(leaves)), zero, dtype=fill.dtype)
    for k in range(len(pre) - 1, 0, -1):
        x, a, b = up[k - 1], first[k], first[k] + below[k]
        table[x, a:b] = table[k, a:b] + steps[k - 1]
    for k in range(1, len(pre)):
        x, a, b = up[k - 1], first[k], first[k] + below[k]
        table[k, :a] = table[x, :a] + steps[k - 1]
        table[k, b:] = table[x, b:] + steps[k - 1]

    rows = [pos[v] for v in leaves]  # each leaf's node row, in label order
    arr = table.T[np.ix_([first[k] for k in rows], rows)]  # [source, leaf]
    i, j = _upper_pairs(len(leaves))
    arr[j, i] = arr[i, j]
    return _Mirror.of(leaves, kind, arr, scale)


def doubles_of_tree(tree) -> DoubleWeights:
    """Pairwise path weights of a tree (:func:`path_sums`) as a container,
    its mirror in :meth:`DoubleWeights.dense`'s form."""
    state = path_sums(tree)
    state.settle()
    return state.container()


def triples_of_tree(tree) -> TripleWeights:
    """Triple subtree weights of a tree: the half-sum lift of its path
    weights, as :func:`triples_from_doubles` takes it."""
    return _lifted(path_sums(tree))


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
    """Is d[alpha, g] - d[alpha2, g] the same for every other label g of
    the pairwise set d, *w* itself or a triple set's :func:`pairwise_fit`?

    One window of :func:`_star_windows` on d's mirror, taken for the
    labels in index order and negated when *alpha* sorts after *alpha2*.
    Bound as :func:`star_condition_doubles` and
    :func:`star_condition_triples`.
    """
    if alpha == alpha2:
        raise ValueError("star condition needs two distinct labels")
    w = pairwise_fit(w)
    if w.n < 3:
        raise InstanceTooSmallError("star condition on doubles needs n >= 3", required=3, got=w.n)
    for x in (alpha, alpha2):
        if x not in w.labels:
            raise LabelError(f"label {x} not in container")
    state = _Mirror(w)
    ia, ib = sorted(map(w.labels.index, (alpha, alpha2)))
    window = _star_windows(state.arr, (np.array([ia]), np.array([ib])))
    lo, hi = (state.value(x[0]) for x in window)
    if alpha > alpha2:
        # 0 - x, not -x: a float window of +0.0 stays +0.0, as the
        # differences taken in this order give it
        lo, hi = 0 - hi, 0 - lo
    spread = hi - lo
    return StarResult(spread <= tol, midrange(lo, hi), spread)


star_condition_doubles = star_condition_triples = _star_condition


# Bytes of index arrays the caches below keep between calls, all of them
# together.  Classic NJ asks for every size from n down, once each, so a
# count bound would hold about n of them (440 MB at n = 1000).
_INDEX_CACHE_BYTES = 32 << 20
_index_cache = OrderedDict()  # (builder, *args) -> arrays, least recently used first


def _index_arrays(build):
    """Cache *build*(*args), a tuple of index arrays, least recently used
    out first once the cache would hold more than ``_INDEX_CACHE_BYTES``."""

    @wraps(build)
    def cached(*args):
        key = (build, *args)
        out = _index_cache.get(key)
        if out is not None:
            _index_cache.move_to_end(key)
            return out
        out = build(*args)
        _index_cache[key] = out
        held = sum(a.nbytes for arrays in _index_cache.values() for a in arrays)
        while held > _INDEX_CACHE_BYTES and _index_cache:
            held -= sum(a.nbytes for a in _index_cache.popitem(last=False)[1])
        return out

    return cached


@_index_arrays
def _upper_pairs(m):
    return np.triu_indices(m, 1)  # row-major, i.e. combinations order


def _heads(m, order, a=0, b=None):
    """Index arrays of heads a to b - 1 of the keys of *order* (3 or 4)
    labels over range(m), their first order - 2 labels, in combinations
    order, and how many keys each head has: the tails of a head ending at
    label l are the pairs over range(l + 1, m), C(m - l - 1, 2) of them."""
    heads = [x[a:b] for x in ((np.arange(m),) if order == 3 else _upper_pairs(m))]
    after = m - 1 - heads[-1]
    return heads, after * (after - 1) // 2


def _keys_from(m, order, a, b):
    """Index arrays of the keys whose head is one of heads a to b - 1 of
    :func:`_heads`, in combinations order: a head's tails are the last
    pairs of :func:`_upper_pairs`."""
    pk, ph = _upper_pairs(m)
    heads, count = _heads(m, order, a, b)
    ends = np.cumsum(count)
    at = np.repeat(len(pk) - ends, count) + np.arange(int(count.sum()))
    return (*(np.repeat(x, count) for x in heads), pk[at], ph[at])


@_index_arrays
def _upper_keys(m, order):
    return _keys_from(m, order, 0, None)


@_index_arrays
def upper_mask(m):
    """(mask,): True at i < j of an m x m array.  Indexing with it reads
    and writes the upper triangle row-major, i.e. in combinations order."""
    return (~np.tri(m, dtype=bool),)


# Largest temporary the block kernels build, in array elements (8 MB of
# int64 or float64); a block always holds at least one pair, label or head.
BLOCK_ELEMS = 1 << 20

# Arrays of a key block's length alive at once, with room to spare: its
# index arrays, those of the block before it and the kernel's temporaries
# (about 13 in the four-point scan, measured), so that together they stay
# within ``block_elems`` elements.
_KEY_ARRAYS = 16


def key_blocks(m, order, size):
    """(offset, index arrays) of every key of *order* (3 or 4) labels over
    range(m), in combinations order, over runs of whole heads of at most
    *size* keys each (at least one head with keys each, so no block is
    empty); offset is the number of keys before the block.  Keys that fit
    one block come as the cached :func:`_upper_keys`, so that no index
    over every key is built past it."""
    if math.comb(m, order) <= size:
        yield 0, _upper_keys(m, order)
        return
    ends = np.cumsum(_heads(m, order)[1])
    a = done = 0
    while done < ends[-1]:
        # past the first head with keys, and past every head within size
        first, within = np.searchsorted(ends, [done, done + size], side="right")
        b = max(int(first) + 1, int(within))
        yield done, _keys_from(m, order, a, b)
        a, done = b, int(ends[b - 1])


def block_elems(arr):
    """Elements per block temporary of a kernel on the mirror *arr*, of
    pairs or of a triple set's values, so that a block takes about
    ``BLOCK_ELEMS * 8`` bytes.

    int64 and float64 elements take 8 bytes.  Each element of an ``object``
    block is a Python number of its own, a difference or sum of mirror
    elements: it is counted as a pointer plus twice the largest mirror
    element, by its bytes.  For ints that is the element of largest
    magnitude; a Fraction counts its own bytes and those of its numerator
    and denominator, so a mirror of Fractions is measured entry by entry.
    """
    if arr.dtype != object or len(arr) < 2:
        return BLOCK_ELEMS
    entries = _condensed(arr)
    if holds_fractions(arr):
        parts = [entries] + [map(operator.attrgetter(p), entries) for p in ("numerator", "denominator")]
        top = max(map(sum, zip(*(map(sys.getsizeof, p) for p in parts))))
    else:
        top = sys.getsizeof(max(entries.max(), -entries.min()))
    return max(1, BLOCK_ELEMS * 8 // (8 + 2 * top))


def _skip(g, ia, ib):
    """Smallest index >= g outside {ia, ib}, elementwise; needs ia < ib."""
    g = g + (g == ia)
    return g + (g == ib)


def _star_windows(arr, pairs=None):
    """(lo, hi) of every label pair's star window on a pairwise mirror, in
    combinations order, or of the index *pairs* (ia, ib), ia < ib
    elementwise, when given.

    A pair (a, b) differences row a against row b of the mirror over every
    label g.  The entries at g = a and g = b are overwritten with the
    difference at a label free of both, which leaves the window's min and
    max unchanged without a per-pair index list.
    """
    m = arr.shape[0]
    ia, ib = _upper_pairs(m) if pairs is None else pairs
    free = _skip(np.zeros_like(ia), ia, ib)
    lo = np.empty(len(ia), dtype=arr.dtype)
    hi = np.empty(len(ia), dtype=arr.dtype)
    step = max(1, block_elems(arr) // m)
    for s in range(0, len(ia), step):
        a, b = ia[s : s + step], ib[s : s + step]
        diff = arr[a] - arr[b]
        rows = np.arange(len(a))
        keep = diff[rows, free[s : s + step]]
        diff[rows, a] = keep
        diff[rows, b] = keep
        lo[s : s + step] = diff.min(axis=1)
        hi[s : s + step] = diff.max(axis=1)
    return lo, hi


def star_table(w, tol=0):
    """StarResult for every label pair at once, on *w* or, for a triple
    set, on its :func:`pairwise_fit`.

    Semantically identical to looping the single-pair queries.  The block
    kernel runs on the dense mirror; the results are built in bulk (int
    windows become Fractions over the mirror's scale).
    """
    w = pairwise_fit(w)
    if w.n < 3:
        raise InstanceTooSmallError("star table needs n >= 3", required=3, got=w.n)
    kind, arr, scale = w.dense()
    lo, hi = _star_windows(arr)
    if kind == "int":
        spreads = [unit_value(x, scale) for x in (hi - lo).tolist()]
        mids = [unit_value(x, 2 * scale) for x in (lo + hi).tolist()]
    else:
        spreads = (hi - lo).tolist()
        mids = (0.5 * (lo + hi)).tolist()
    return {
        key: StarResult(spread <= tol, mid, spread)
        for key, spread, mid in zip(combinations(w.labels, 2), spreads, mids)
    }


def neighbor_pairs(w, tol=0):
    """All pairs satisfying the star condition, sorted lexicographically.

    Requires n >= 3 for doubles and n >= 5 for triples (see
    :func:`star_table`): below those sizes the condition no longer
    characterises bells, so the query refuses.
    """
    return sorted(pair for pair, res in star_table(w, tol).items() if res.holds)


# --------------------------------------------------------------------- #
# The carried mirror                                                     #
# --------------------------------------------------------------------- #


def _float_floor(x):
    """The largest float <= the exact number *x*; -inf below every float."""
    try:
        f = float(x)
    except OverflowError:
        return sys.float_info.max if x > 0 else -math.inf
    return math.nextafter(f, -math.inf) if f > x else f


def _over(spread, tol, scale):
    """Where spread / scale > tol, for a kernel's spreads in a mirror's
    units (*scale* None: floats); exact for int, Fraction, float and
    infinite tolerances alike."""
    if scale is None:
        # a float passes an exact tol iff it passes the largest float <= tol
        return spread > (tol if isinstance(tol, float) else _float_floor(tol))
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
    """A pairwise set carried as its dense mirror from step to step: labels
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
    order = 2  # what a container's ``order`` says; perfbench's tracer reads it

    def __init__(self, w):
        self.kind, arr, self.scale = w.dense()
        self.labels = list(w.labels)
        self._set(arr)

    @classmethod
    def of(cls, labels, kind, arr, scale):
        """The mirror *arr* over *labels* with its kind and scale, not
        taken from a container (not yet settled)."""
        state = cls.__new__(cls)
        state.labels, state.kind, state.scale = list(labels), kind, scale
        state._set(arr)
        return state

    @property
    def n(self):
        return len(self.labels)

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
        return unit_value(x, self.scale)

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
        if (twice & 1).any():
            self.rescale(2)
            return twice
        return twice >> 1

    def settle(self):
        """Give an exact mirror the form ``dense()`` gives the container of
        its values: the least scale, the dtype its units need, or the
        values' own Fractions past ``_DENSE_SCALE_BITS``."""
        if self.kind != "float":
            self.arr, self.scale, _ = _settled(self.arr, self.scale)

    def container(self):
        return DoubleWeights.from_mirror(self.labels, self.kind, self.arr, self.scale)

    def twig(self, i, j, x):
        """d_ij + d_ix - d_jx, twice i's twig against j, in the mirror's
        units as a Python number (a float on a float mirror)."""
        a = self.arr
        return a.item(i, j) + a.item(i, x) - a.item(j, x)

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
    tol, is O(n^3) on the values, made once per triple set and kept with
    the fit.  At tol 0 it holds exactly when no derived value depends on
    {r, s, u}; for tol > 0 it bounds the lift residual, not the spread of
    the derived values.  Every triple set on 5 labels is a lift.

    Returns (True, d as DoubleWeights) or (False, None).
    """
    residual, fit = t._condition2
    return (True, fit) if residual <= tol else (False, None)


def _lift_fit(t: TripleWeights):
    """(max |T - lift(d)|, d) of :func:`derived_pairwise_consistent`, on
    the values over :func:`key_blocks`, runs of whole first labels: pair
    (a, b) adds its third labels r < a (as (j, k)) in the blocks up to a's,
    then in a's block a < r < b (as (i, k)) and r > b, each in order, so
    P_ij adds r in ascending order as a loop does."""
    if t.n < 5:
        raise InstanceTooSmallError(
            "derived pairwise consistency needs n >= 5", required=5, got=t.n
        )
    kind, vals, scale = t.dense()
    m = t.n
    if kind == "int" and not holds_fractions(vals):
        # every term below stays within 48 n^3 max|unit|
        vals = vals.astype(int_dtype(max(int(vals.max()), -int(vals.min())) * 48 * m**3), copy=False)
    size = block_elems(vals) // _KEY_ARRAYS
    pair = np.zeros(m * m, dtype=vals.dtype)  # P_ij at i * m + j, i < j
    for s, (i, j, k) in key_blocks(m, 3, size):
        block = vals[s : s + len(i)]
        for a, b in ((j, k), (i, k), (i, j)):
            np.add.at(pair, a * m + b, block)
    pair = pair.reshape(m, m)
    iu, ju = _upper_pairs(m)
    pair[ju, iu] = pair[iu, ju]
    row = reduce(operator.add, pair.T)  # 2 L_i
    # den * d_ij = part_ij + c; c = 12 S, the one term summing every entry
    # (on a mirror of Fractions the longest), is added once per block extreme
    den = 3 * (m - 2) * (m - 3) * (m - 4)
    part = 6 * (m - 2) * (m - 3) * pair - 3 * (m - 2) * np.add.outer(row, row)
    c = 2 * reduce(operator.add, row)
    worst = 0  # 2 den max |T - lift(d)|, block by block
    for s, (i, j, k) in key_blocks(m, 3, size):
        gap = 2 * den * vals[s : s + len(i)] - (part[i, j] + part[i, k] + part[j, k])
        worst = max(worst, gap.max() - 3 * c, 3 * c - gap.min())
    fit = part[iu, ju] + c
    if kind == "int":
        residual = unit_value(worst, 2 * den * scale)
        fit, scale, zero = _settled(fit, scale * den)
    else:
        residual = worst / (2 * den)
        fit, zero = fit / den, 0
    return residual, DoubleWeights.from_mirror(t.labels, kind, _symmetric(fit, m, zero), scale)


def pairwise_fit(w) -> DoubleWeights:
    """The pairwise set d a star query or prune runs on: a
    :class:`DoubleWeights` itself, or a triple set's condition-2
    least-squares fit (kept with the triple set), which on a lift is the
    lifted set.  Triples need n >= 5."""
    return w if w.order == 2 else w._condition2[1]


def triples_from_doubles(d: DoubleWeights) -> TripleWeights:
    """Triple values induced by pairwise values via the half-sum identity."""
    return _lifted(_Mirror(d))


def _lifted(state: _Mirror) -> TripleWeights:
    """The half-sum lift T_ijk = ((d_ij + d_ik) + d_jk) / 2 of a pairwise
    mirror, added in that order, as a container at the least scale: the
    C(n, 3) values, summed over :func:`key_blocks` and settled, are its
    mirror."""
    n = state.n
    if n < 3:
        raise InstanceTooSmallError("triple weights need n >= 3", required=3, got=n)
    arr = state.arr
    total = np.empty(math.comb(n, 3), dtype=arr.dtype)
    for s, (i, j, k) in key_blocks(n, 3, block_elems(arr) // _KEY_ARRAYS):
        total[s : s + len(i)] = (arr[i, j] + arr[i, k]) + arr[j, k]
    if state.kind == "float":
        fill, scale = 0.5 * total, None
    else:
        fill, scale, _ = _settled(total, 2 * state.scale)
    return TripleWeights.from_mirror(state.labels, state.kind, fill, scale)


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

    One block kernel on the mirror, in combinations order: blocks of
    consecutive heads (i, j) (:func:`key_blocks`) take about
    ``block_elems(arr) // _KEY_ARRAYS`` quadruples each.  Per quadruple
    i < j < k < h the sums d_ij + d_kh, d_ik + d_jh and d_ih + d_jk are
    added in that order, and the gap is the largest minus the middle one,
    picked by maximum and minimum: the values ``sorted`` picks, so float
    gaps keep their bits.  The first quadruple whose gap passes *tol* is
    the witness, and no later block is built.  The gap of an exact mirror
    is a Fraction, of a float one a float.
    """
    if d.n < 4:
        return BunemanVerdict(True, None, 0)
    _, arr, scale = d.dense()
    for _, (i, j, k, h) in key_blocks(d.n, 4, block_elems(arr) // _KEY_ARRAYS):
        one = arr[i, j] + arr[k, h]
        two = arr[i, k] + arr[j, h]
        three = arr[i, h] + arr[j, k]
        big = np.maximum(one, two)
        small = np.minimum(one, two, out=one)
        top = np.maximum(big, three, out=two)
        mid = np.maximum(small, np.minimum(big, three, out=three), out=three)
        gap = np.subtract(top, mid, out=top)
        over = _over(gap, tol, scale)
        if over.any():
            p = int(over.argmax())
            witness = tuple(d.labels[x[p]] for x in (i, j, k, h))
            return BunemanVerdict(False, witness, unit_value(gap[p], scale))
    return BunemanVerdict(True, None, 0)


# The three triangle inequalities of a triple i < j < k, in the order
# they are checked: (x, y, z) positions in (i, j, k) of a breach
# D(x,y) > D(x,z) + D(z,y).
_TRIANGLE_ROWS = ((0, 2, 1), (0, 1, 2), (1, 2, 0))


def metric_warnings(d: DoubleWeights):
    """Non-fatal metric violations: non-positive entries in key order, then
    triangle breaches, per triple i < j < k in combinations order the rows
    d_ik > d_ij + d_jk, d_ij > d_ik + d_jk and d_jk > d_ij + d_ik.

    One block kernel on the mirror, O(n^3) work in all: the triples of a
    block of first labels (:func:`key_blocks`, about
    ``block_elems(arr) // _KEY_ARRAYS`` triples) are compared at once.  The
    container's dict is not built.
    """
    state = _Mirror(d)
    labels, arr, m = state.labels, state.arr, state.n
    i, j = _upper_pairs(m)
    upper = arr[i, j]
    bad = np.flatnonzero(upper <= 0).tolist()
    warnings = [
        f"non-positive distance for pair ({labels[a]}, {labels[b]}): {format_number(state.value(v))}"
        for a, b, v in zip(i[bad].tolist(), j[bad].tolist(), upper[bad].tolist())
    ]
    for _, (ia, ib, ic) in key_blocks(m, 3, block_elems(arr) // _KEY_ARRAYS):
        dij, dik, djk = arr[ia, ib], arr[ia, ic], arr[ib, ic]
        breach = np.stack([dik > dij + djk, dij > dik + djk, djk > dij + dik], axis=1)
        at, row = np.nonzero(breach)
        for triple, k in zip(zip(ia[at].tolist(), ib[at].tolist(), ic[at].tolist()), row.tolist()):
            x, y, z = (labels[triple[p]] for p in _TRIANGLE_ROWS[k])
            warnings.append(f"triangle violation: D({x},{y}) > D({x},{z}) + D({z},{y})")
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


# Characters of whole lines (bytes, in an ASCII file) that the bulk reader
# takes at a time: every array it builds is sized by a chunk, not the file.
_READ_CHUNK = 1 << 24

# Files shorter than this many characters (bytes, in an ASCII file) go to
# the line parser: the array pass costs about 60 numpy calls whatever the
# size, which on a few lines outweighs the work.
_FEW_BYTES = 1 << 9

# Chunks longer than this many bytes hold token positions as int32.
_INT32_POSITIONS = 1 << 20

# A digit byte's value (a label holds no other byte).
_DIGIT = np.zeros(256, np.int32)
_DIGIT[48:58] = range(10)


# Each byte's class for the value shapes: 0 a digit, 1 a space, 2 a sign,
# 3 ".", 4 "e" or "E", 5 "/", 6 any other byte.
_CLASS = np.full(256, 6, np.int16)
_CLASS[48:58] = 0
_CLASS[32] = 1
_CLASS[[43, 45]] = 2
_CLASS[46] = 3
_CLASS[[69, 101]] = 4
_CLASS[47] = 5


def _mark_table(marks):
    """Which (byte before, mark, byte after) classes a value may hold."""
    table = np.zeros((7, 7, 7), bool)
    table[tuple(zip(*marks))] = True
    return table


# A plain value has a leading sign and one "/" between digits; in a float
# chunk with decimals, "." between digits and "e" between a digit and a
# digit or the exponent's sign as well.
_PLAIN_MARKS = [(1, 2, 0), (0, 5, 0)]
_SHAPES = {
    False: _mark_table(_PLAIN_MARKS),
    True: _mark_table(_PLAIN_MARKS + [(0, 3, 0), (0, 4, 0), (0, 4, 2), (4, 2, 0)]),
}


def _tokens(a, order):
    """The separators of the file lines in the bytes *a*, or None.

    The bytes other than digits are found once.  The separators among them
    (the bytes up to the space) must read `order` spaces, then a line end,
    on every line, with no empty token; their positions come back as a
    (lines, order + 1) array, the line's tokens ending at them.  So do the
    position, byte and line of every other non-digit, which must lie in a
    value.  Positions are int32 past ``_INT32_POSITIONS`` bytes, which
    halves the arrays that bound the reader's memory; a shorter chunk keeps
    intp positions, which index without a conversion.
    """
    marks = np.flatnonzero(a - 48 > 9)
    if len(a) > _INT32_POSITIONS:
        marks = marks.astype(np.int32)
    byte = a[marks]
    is_sep = byte <= 32
    sep = marks[is_sep]
    w = order + 1
    lines, rest = divmod(len(sep), w)
    if rest or byte[is_sep].tobytes() != (b" " * order + b"\n") * lines:
        return None
    if sep[0] == 0 or (sep[1:] - sep[:-1]).min(initial=2) < 2:
        return None  # an empty token
    other = np.flatnonzero(~is_sep)
    token = other - np.arange(len(other))  # the separators before each
    if (token % w != order).any():
        return None  # a label with a byte other than a digit
    return sep.reshape(-1, w), marks[other], byte[other], token // w


def _label_keys(a, grid, n, order, work):
    """Each line's key, its labels as digits in base n + 1 (so keys sort as
    the label tuples do), from the labels that end at the
    separators *grid*[:, :order] in the bytes *a*, or None unless every
    label is at most as many digits as n has, with no leading zero, within
    1..n and strictly increasing on its line.  The digits are combined by
    array steps, one per digit position from the right, and blanked in
    *work*."""
    width = len(str(n))
    stop = np.empty((len(grid), order), grid.dtype)  # the separator before
    stop[0, 0], stop[1:, 0], stop[:, 1:] = -1, grid[:-1, order], grid[:, : order - 1]
    at = grid[:, :order] - 1  # each label's last digit
    if (at - stop > width).any() or (a[stop + 1] == 48).any():
        return None
    labels = _DIGIT[a[at]]
    work[at] = 32
    for k in range(1, width):
        at -= 1
        np.maximum(at, stop, out=at)  # the separator, once past the label
        labels += _DIGIT[a[at]] * 10**k
        work[at] = 32
    # digits with no leading zero are at least 1
    if not ((labels[:, -1] <= n).all() and (labels[:, 1:] > labels[:, :-1]).all()):
        return None
    return labels @ np.array([(n + 1) ** (order - 1 - c) for c in range(order)], np.int64)


def _value_shapes(a, sp, ch, line, vs, ends, mode, work):
    """(odd, has, decimal) of the value tokens [vs, ends) in the bytes *a*,
    whose non-digits are *ch* at *sp* on the lines *line*; each "/" is
    blanked in *work*.

    A plain value's marks fit ``_SHAPES``, with at most one "/" (*has*)
    and, in float mode once the chunk holds a "." or an "e" (*decimal*),
    at most one "." before at most one "e"; its parts are at most 18 digits
    unless *decimal*.  *odd* marks the lines of every other value.
    """
    mark = _CLASS[ch]
    sign, slash = mark == 2, mark == 5
    decimal = mode == "float" and ((mark == 3) | (mark == 4)).any()
    ok = _SHAPES[decimal][_CLASS[a[sp - 1]], mark, _CLASS[a[sp + 1]]]
    odd = np.zeros(len(vs), bool)
    odd[line[~ok]] = True
    l2 = line[~sign]
    same = l2[1:] == l2[:-1]
    if same.any():  # two marks other than signs on one line: only "." then "e"
        m2 = mark[~sign]
        odd[l2[1:][same & ((m2[:-1] != 3) | (m2[1:] != 4))]] = True
    has = np.zeros(len(vs), bool)
    has[line[slash]] = True
    work[sp[slash]] = 32
    if not decimal and (ends - vs).max(initial=0) > 18:  # a part may be longer
        cut = ends.copy()
        cut[line[slash]] = sp[slash]
        odd |= (cut - vs - (_CLASS[a[vs]] == 2) > 18) | (ends - cut > 19)
    return odd, has & ~odd, decimal


def _read_chunk(buf, order, n, mode):
    """(keys, values, odd) of the lines of *buf*, the UTF-8 bytes of whole
    file lines, or None for the line parser to read the file.

    *keys* ranks each line's labels lexicographically (:func:`_label_keys`),
    and the plain values (:func:`_value_shapes`) are read by one
    ``np.fromstring`` over the chunk with its labels blanked and each "/" a
    space, as int64, or as float64 for a float chunk with decimals.  Any
    other value is read by parse_number: in exact mode *odd* maps its line to the Fraction; in
    float mode it is set in place, as are zeros, non-finite values and
    ``p/q`` with a part of 2^53 or more, past which ``p / q`` in floats may
    not be the correctly rounded value.  *values* is a float64 array, or
    int64 reduced numerators and positive denominators.
    """
    if b"\r" in buf:  # "\r\n" line ends; the last line may end in "\r"
        buf = buf.replace(b"\r\n", b"\n").removesuffix(b"\r")
        if b"\r" in buf:
            return None
    if not buf.endswith(b"\n"):
        buf += b"\n"
    if len(buf) >= 2**31:
        return None  # a line of gigabytes
    a = np.frombuffer(buf, np.uint8)
    tokens = _tokens(a, order)
    if tokens is None:
        return None
    grid, sp, ch, line = tokens
    work = a.copy()
    keys = _label_keys(a, grid, n, order, work)
    if keys is None:
        return None
    vs, ends = grid[:, order - 1] + 1, grid[:, order].copy()
    del tokens, grid
    odd, has, decimal = _value_shapes(a, sp, ch, line, vs, ends, mode, work)
    odd_at = np.flatnonzero(odd).tolist()
    for k in odd_at:
        work[vs[k]], work[vs[k] + 1 : ends[k]] = 48, 32
    try:
        nums = np.fromstring(work.tobytes(), np.float64 if decimal else np.int64, sep=" ")
    except ValueError:
        return None
    del work
    if len(nums) != len(vs) + has.sum():
        return None
    slashes = has.any()
    if not slashes:
        p, q = nums, np.ones(1, nums.dtype)
    elif has.all():
        p, q = nums[0::2], nums[1::2]
    else:
        first = np.arange(len(vs)) + np.cumsum(has) - has
        p, q = nums[first], np.where(has, nums.take(first + 1, mode="clip"), 1)
    try:
        if mode == "float":
            with np.errstate(divide="ignore", invalid="ignore"):
                values = p / q
            fix = odd | (values == 0) | ~np.isfinite(values)
            if slashes:
                fix |= has & ((np.abs(p) >= 2**53) | (q >= 2**53))
            for k in np.flatnonzero(fix).tolist():
                values[k] = parse_number(buf[vs[k] : ends[k]].decode(), mode)
            return keys, (values,), {}
        if not q.all():
            return None  # a zero denominator
        g = np.gcd(p, q)
        odd = {k: parse_number(buf[vs[k] : ends[k]].decode(), mode) for k in odd_at}
        return keys, (p // g, q // g), odd
    except ValueError:
        return None


def _read_bulk(text, order, mode):
    """(n, kind, mirror, scale) of a well-formed weight file, in
    :meth:`_WeightSet.dense`'s form, or None for the line parser to read.

    Well-formed means: no comment, a header line, then C(n, order) lines
    of order + 1 tokens with one space between tokens and no other
    whitespace, each ended by "\\n" or "\\r\\n" (the last one by "\\r" or
    nothing as well), labels written as the plain numbers 1..n, strictly
    increasing within a line, every key once in any line order, and values
    read without error.  The body is read as UTF-8 bytes in chunks of whole
    lines, about ``_READ_CHUNK`` characters each (:func:`_read_chunk`), with
    no Python object per label or plain value.  Such a file gives the line
    parser's values exactly; every other file, malformed ones included, is
    left to the line parser, so its errors and line numbers are the only
    ones.  So is a file of fewer than ``_FEW_BYTES`` characters, which the
    line parser reads as fast.
    """
    if mode not in MODES or len(text) < _FEW_BYTES or "#" in text:
        return None
    body = text.find("\n") + 1
    head = text[: body - 1].removesuffix("\r")
    if not body or not head.isprintable():
        return None
    try:
        n = int(head)
    except ValueError:
        return None
    if n < order:
        return None
    count = math.comb(n, order)
    # nothing is sized by n before the file can hold its keys: a line takes
    # at least 2 * order + 1 characters besides its line end
    if count * (2 * order + 2) > len(text) - body + 1:
        return None
    keys = np.empty(count, np.int64)
    if mode == "float":
        cols = [np.empty(count, np.float64)]
    else:  # numerators and denominators
        cols = [np.empty(count, np.int64), np.empty(count, np.int64)]
    odd, done = {}, 0
    while body < len(text):
        end = text.find("\n", body + _READ_CHUNK - 1) + 1 or len(text)
        piece = text[body:end]
        # past ASCII, whitespace other than " " and line ends is unprintable
        if not piece.isascii() and not piece.replace("\r\n", "").replace("\n", "").isprintable():
            return None
        buf = piece.encode()
        del piece
        got = _read_chunk(buf, order, n, mode)
        del buf
        if got is None or done + len(got[0]) > count:
            return None
        chunk_keys, values, chunk_odd = got
        span = slice(done, done + len(chunk_keys))
        keys[span] = chunk_keys
        for col, v in zip(cols, values):
            col[span] = v
        odd.update({done + at: v for at, v in chunk_odd.items()})
        done, body = span.stop, end
    if done != count:
        return None
    if odd:
        parts = [_int_array([v.numerator for v in odd.values()]),
                 _int_array([v.denominator for v in odd.values()])]
        if any(part.dtype == object for part in parts):
            cols = [col.astype(object) for col in cols]
        for col, part in zip(cols, parts):
            col[list(odd)] = part
    if not (keys[1:] > keys[:-1]).all():
        rank = np.argsort(keys)
        keys = keys[rank]
        if not (keys[1:] > keys[:-1]).all():
            return None  # a key twice, so another one missing
        cols = [col[rank] for col in cols]
    if mode == "float":
        kind, (fill, scale, zero) = "float", (cols[0], None, 0)
    else:
        kind, (fill, scale, zero) = "int", _units_of(*cols)
    return n, kind, _symmetric(fill, n, zero) if order == 2 else fill, scale


def _parse(text, mode, cls):
    bulk = _read_bulk(text, cls.order, mode)
    if bulk is not None:
        n, kind, arr, scale = bulk
        return cls.from_mirror(range(1, n + 1), kind, arr, scale)
    n, entries = _parse_weight_lines(text, cls.order, mode)
    return cls._from_checked(range(1, n + 1), entries)


def parse_doubles(text: str, mode: str = "rational") -> DoubleWeights:
    return _parse(text, mode, DoubleWeights)


def parse_triples(text: str, mode: str = "rational") -> TripleWeights:
    return _parse(text, mode, TripleWeights)


# Lines per chunk of a written weight file.
_EMIT_LINES = 1 << 16


def _value_texts(kind, vals, scale):
    """The file text of mirror values *vals*, a 1-D slice of units (kind
    "int"), of the values' own Fractions, or of floats: :func:`format_number`
    of each value, but written from the units directly.  A unit u over the
    scale s is p/q, with p = u / g, q = s / g and g = gcd(u, s), or p alone
    when q is 1: one ``np.gcd`` on int64, ``math.gcd`` on Python ints."""
    if kind == "float" or holds_fractions(vals):
        return list(map(format_number, vals.tolist()))
    if vals.dtype == np.int64 and scale < 2**63:
        g = np.gcd(vals, scale)
        p, q, text = (vals // g).tolist(), (scale // g).tolist(), str
    else:
        units = vals.tolist()
        g = list(map(math.gcd, units, repeat(scale)))
        p = list(map(operator.floordiv, units, g))
        q = list(map(operator.floordiv, repeat(scale), g))
        text = _int_text
    return [text(a) if b == 1 else f"{text(a)}/{text(b)}" for a, b in zip(p, q)]


def emit_chunks(container):
    """The file form of a container, one line per sorted key, written from
    its mirror's values in combinations order, as an iterator of text
    chunks of at most ``_EMIT_LINES`` lines each."""
    if container.labels != tuple(range(1, container.n + 1)):
        raise ValueError("only containers labelled 1..n can be written to file")
    return _chunks(container)


def _chunks(container):
    kind, arr, scale = container.dense()
    vals = _condensed(arr)
    keys = map(" ".join, combinations(map(str, container.labels), container.order))
    yield f"{container.n}\n"
    for s in range(0, len(vals), _EMIT_LINES):
        texts = _value_texts(kind, vals[s : s + _EMIT_LINES], scale)
        yield "".join(map("{} {}\n".format, islice(keys, len(texts)), texts))


def emit_doubles(d: DoubleWeights) -> str:
    return "".join(emit_chunks(d))


def emit_triples(t: TripleWeights) -> str:
    return "".join(emit_chunks(t))
