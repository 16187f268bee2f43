"""The dense mirror's dtype switch, and the kernels on both sides of it.

Exact data is mirrored as int64 while its scaled magnitudes stay under
``_DENSE_MAG_CAP`` and as ``object`` Python ints past it; the cherry scan
moves an int64 mirror to ``object`` when its row sums could pass int64.
Random trees are scaled by a prime denominator and a multiplier that puts
the largest scaled magnitude near either bound, and every kernel is held
to its reference loop on both sides.  Exact data whose common scale passes
``_DENSE_SCALE_BITS`` (a distinct prime denominator per entry) keeps its
Fractions; there the kernels are held to the loops too, and their memory
to a few times the data's own.
"""

import math
import random
import sys
import time
import tracemalloc
from collections import OrderedDict
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    DoubleWeights,
    Pseudobell,
    ReconstructionError,
    TripleWeights,
    cherry_scan,
    derived_pairwise_consistent,
    doubles_of_tree,
    prune_doubles,
    prune_triples,
    random_tree,
    reconstruct_from_triples,
    s_matrix,
    star_table,
    triples_of_tree,
)
from treeweights import reconstruct as reconstruct_mod
from treeweights import weights as weights_mod
from treeweights.weights import (
    _DENSE_MAG_CAP,
    _DENSE_SCALE_BITS,
    BLOCK_ELEMS,
    block_elems,
    holds_fractions,
    pairwise_fit,
)
from conftest import QUARTET_DOUBLES, exact_or_float
from reference_loops import (
    condition2_values,
    derived_common_values,
    lift_check_loop,
    prune_fit_loop,
    prune_loop,
    scan_pure,
    star_table_loop,
)

PRIMES = (3, 7, 1009, 3989, 65537, 2**31 - 1, 2**61 - 1)
ROW_SUM_BOUND = np.iinfo(np.int64).max  # cherry_scan needs 4 * n * max|unit| under it


def _units(vals):
    """(scale, largest scaled magnitude) of exact values, from the definition."""
    scale = 1
    for v in vals.values():
        scale = math.lcm(scale, Fraction(v).denominator)
    return scale, max(abs(v) * scale for v in vals.values())


@st.composite
def scaled_data(draw, order, sizes, bound=_DENSE_MAG_CAP):
    """Tree values times c/p, with the largest scaled magnitude near *bound*."""
    n = draw(sizes)
    tree = random_tree(n, draw(st.integers(0, 10**6)), binary_only=draw(st.booleans()))
    vals = dict((doubles_of_tree if order == 2 else triples_of_tree)(tree).items())
    p = draw(st.sampled_from(PRIMES))
    _, top = _units(vals)
    target = bound + draw(st.integers(-(bound >> 3), bound >> 3))
    c = max(1, int(target // top)) | 1  # odd, so no factor 2 of a denominator cancels
    if c % 5 == 0:
        c += 2
    vals = {k: v * Fraction(c, p) for k, v in vals.items()}
    for key in draw(st.lists(st.sampled_from(sorted(vals)), max_size=2, unique=True)):
        vals[key] += Fraction(draw(st.integers(-9, 9)), p)
    cls = DoubleWeights if order == 2 else TripleWeights
    return cls(vals, labels=range(1, n + 1))


def _trial_bells(w, draw):
    labels = list(w.labels)
    size = draw(st.integers(2, 3))
    start = draw(st.integers(0, len(labels) - size - w.order))
    members = tuple(labels[start : start + size])
    den = draw(st.sampled_from(PRIMES))
    return [(members, {m: Fraction(draw(st.integers(-10**6, 10**6)), den) for m in members})]


def _prune(w, bells, tol, prune=None):
    prune = prune or (prune_doubles if w.order == 2 else prune_triples)
    pbs = [Pseudobell(members=m, twig_lengths=dict(t)) for m, t in bells]
    try:
        reduced, level = prune(w, pbs, tol)
    except ReconstructionError as err:
        key, spread = err.witness
        return ("fail", key, exact_or_float(spread), str(err))
    return [(k, Fraction(v)) for k, v in reduced.items()]


def _loop_prune(w, bells, tol):
    """:func:`_prune` on the reference prune (a triple set's on its
    pairwise fit, lifted back)."""
    if w.order == 3:
        return _prune(w, bells, tol, prune_fit_loop)
    return _prune(w, bells, tol, lambda w, bells, tol: prune_loop(w, bells, tol, 4))


def _loop_table(w, tol):
    """The reference star table of *w*, a triple set's on its pairwise fit."""
    return star_table_loop(pairwise_fit(w), tol)


class TestDtypeSwitch:
    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_switches_exactly_at_the_cap(self, offset, sign):
        unit = sign * (_DENSE_MAG_CAP + offset)
        vals = {k: Fraction(v, 3) for k, v in QUARTET_DOUBLES.items()}
        vals[(1, 2)] = Fraction(unit, 3)
        kind, arr, scale = DoubleWeights(vals).dense()
        assert kind == "int" and scale == 3
        assert arr.dtype == (np.int64 if abs(unit) < _DENSE_MAG_CAP else object)
        assert arr[0, 1] == arr[1, 0] == unit and type(int(arr[0, 1])) is int

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_dtype_follows_the_scaled_magnitude(self, data):
        order = data.draw(st.sampled_from((2, 3)))
        w = data.draw(scaled_data(order, st.integers(5, 9 if order == 2 else 7)))
        scale, top = _units(dict(w.items()))
        kind, arr, got_scale = w.dense()
        assert kind == "int" and got_scale == scale
        assert arr.dtype == (np.int64 if top < _DENSE_MAG_CAP else object)
        for pos, (key, v) in enumerate(w.items()):
            # a triple set's mirror holds its values in key order
            idx = tuple(w.labels.index(x) for x in key) if order == 2 else pos
            assert arr[idx] == v * scale


class TestKernelsAcrossTheSwitch:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_star_table(self, data):
        order = data.draw(st.sampled_from((2, 3)))
        w = data.draw(scaled_data(order, st.integers(5, 9 if order == 2 else 7)))
        tol = Fraction(data.draw(st.integers(0, 20)), data.draw(st.sampled_from(PRIMES)))
        fast, slow = star_table(w, tol), _loop_table(w, tol)
        assert list(fast) == list(slow)
        for pair, res in fast.items():
            assert (res.holds, res.max_spread, res.common_difference) == (
                slow[pair].holds,
                slow[pair].max_spread,
                slow[pair].common_difference,
            )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_prune(self, data):
        order = data.draw(st.sampled_from((2, 3)))
        w = data.draw(scaled_data(order, st.integers(6, 9 if order == 2 else 7)))
        bells = _trial_bells(w, data.draw)
        for tol in (0, Fraction(data.draw(st.integers(0, 10**7)), 7), math.inf):
            assert _prune(w, bells, tol) == _loop_prune(w, bells, tol)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_derived_pairwise_consistent(self, data):
        t = data.draw(scaled_data(3, st.integers(5, 7)))
        tol = Fraction(data.draw(st.integers(0, 20)), data.draw(st.sampled_from(PRIMES)))
        assert condition2_values(derived_pairwise_consistent(t, tol)) == condition2_values(
            lift_check_loop(t, tol)
        )
        assert condition2_values(derived_pairwise_consistent(t)) == derived_common_values(t)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_cherry_scan_row_sums(self, data):
        # past 64 labels the row-sum bound lies under the magnitude cap, so
        # an int64 mirror moves to object arrays for the scan
        n = data.draw(st.integers(65, 70))
        d = data.draw(scaled_data(2, st.just(n), bound=ROW_SUM_BOUND // (4 * n)))
        eps = Fraction(data.draw(st.integers(0, 3)), 2)
        fast = cherry_scan(d, eps).records
        slow = scan_pure(d, eps)
        assert [(r.column, r.row, r.minimum, r.spread, r.confirmed) for r in fast] == [
            (r.column, r.row, r.minimum, r.spread, r.confirmed) for r in slow
        ]

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_cherry_scan_at_the_row_sum_bound(self, offset):
        n = 66
        bound = ROW_SUM_BOUND // (4 * n)
        vals = dict(doubles_of_tree(random_tree(n, 4)).items())
        scale, top = _units(vals)
        c = bound // top
        while math.gcd(c, scale) != 1:  # keep every denominator
            c -= 1
        vals = {k: v * c for k, v in vals.items()}
        vals[(1, 2)] = Fraction(bound + offset, scale)
        d = DoubleWeights(vals)
        assert d.dense()[1].dtype == np.int64 and d.dense()[2] == scale
        fast = cherry_scan(d, 0).records
        slow = scan_pure(d, 0)
        assert [(r.column, r.row, r.minimum, r.spread, r.confirmed) for r in fast] == [
            (r.column, r.row, r.minimum, r.spread, r.confirmed) for r in slow
        ]

    def test_cherry_scan_where_int64_row_sums_would_wrap(self):
        # labels 1 and 2 are close to each other and far (negatively) from
        # the rest, so S(1, 2) = 88 D(1, 2) - 2 * (-87 D(1, 2)) passes 2**63
        n, top = 90, _DENSE_MAG_CAP - 1
        vals = {(a, b): Fraction(a * b % 7) for a in range(1, n) for b in range(a + 1, n + 1)}
        vals[(1, 2)] = top
        for k in range(3, n + 1):
            vals[(1, k)] = vals[(2, k)] = -top
        d = DoubleWeights(vals)
        assert d.dense()[1].dtype == np.int64
        fast = cherry_scan(d, 0)
        slow = scan_pure(d, 0)
        assert s_matrix(d).value(1, 2) == 262 * top > 2**63
        assert [(r.column, r.row, r.minimum, r.spread, r.confirmed) for r in fast.records] == [
            (r.column, r.row, r.minimum, r.spread, r.confirmed) for r in slow
        ]


class TestToleranceBeyondInt64:
    """Spreads on an object mirror may pass 2**62 units, and so may tol."""

    K = 2**70

    def _bumped(self):
        return DoubleWeights({k: v * self.K for k, v in QUARTET_DOUBLES.items()})

    @pytest.mark.parametrize("tol", [K, Fraction(K), float(K), 2 * K])
    def test_tolerance_at_the_spread_is_not_exceeded(self, tol):
        w = self._bumped()
        assert w.dense()[1].dtype == object
        # zero twigs: D(1,3) - D(2,3) = K units of spread at key (3, 5)
        pb = Pseudobell(members=(1, 2), twig_lengths={1: 0, 2: 0})
        reduced, _ = prune_doubles(w, [pb], tol=tol)
        assert reduced.value(3, 5) == Fraction(9 * self.K + 10 * self.K, 2)

    def test_tolerance_below_the_spread_is_exceeded(self):
        pb = Pseudobell(members=(1, 2), twig_lengths={1: 0, 2: 0})
        with pytest.raises(ReconstructionError) as exc:
            prune_doubles(self._bumped(), [pb], tol=self.K - 1)
        assert exc.value.kind == "prune-inconsistent"
        assert exc.value.witness == ((3, 5), self.K)


def _coprime_denominators(count, bits):
    """*count* pairwise coprime denominators of about *bits* bits or more:
    powers of distinct odd primes."""
    out, p = [], 3
    while len(out) < count:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            out.append(p ** (bits // p.bit_length() + 1))
        p += 2
    return out


def _own_denominators(order, n, seed, bits, tree=True):
    """A distinct denominator q per entry: tree values plus or minus 1/q,
    or (not a tree) label sums plus or minus 1/q."""
    cls = DoubleWeights if order == 2 else TripleWeights
    keys = list(combinations(range(1, n + 1), order))
    if tree:
        of_tree = doubles_of_tree if order == 2 else triples_of_tree
        base = dict(of_tree(random_tree(n, seed)).items())
    else:
        base = {k: sum(k) for k in keys}
    dens = _coprime_denominators(len(keys), bits)
    rng = random.Random(seed)
    vals = {k: base[k] + Fraction(rng.choice((-1, 1)), q) for k, q in zip(keys, dens)}
    return cls(vals, labels=range(1, n + 1))


class TestFractionMirror:
    @pytest.mark.parametrize("bits", [_DENSE_SCALE_BITS - 1, _DENSE_SCALE_BITS, _DENSE_SCALE_BITS + 1])
    def test_switches_exactly_at_the_scale_cap(self, bits):
        den = 2 ** (bits - 1) + 1
        vals = dict(QUARTET_DOUBLES)
        vals[(1, 2)] = Fraction(1, den)
        kind, arr, scale = DoubleWeights(vals).dense()
        assert kind == "int" and arr.dtype == object
        if bits <= _DENSE_SCALE_BITS:
            assert scale == den and not holds_fractions(arr)
            assert arr[0, 1] == 1 and arr[2, 3] == QUARTET_DOUBLES[(3, 4)] * den
        else:
            assert scale == 1 and holds_fractions(arr)
            assert all(type(x) is Fraction for x in arr.flat)
            assert arr[0, 1] == arr[1, 0] == Fraction(1, den)
            assert arr[2, 3] == QUARTET_DOUBLES[(3, 4)]

    @pytest.mark.parametrize("tree", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("order", [2, 3])
    def test_kernels_match_the_loops(self, order, seed, tree):
        n = 9 if order == 2 else 7
        w = _own_denominators(order, n, seed, bits=130, tree=tree)
        assert holds_fractions(w.dense()[1]) and w.dense()[2] == 1
        tol = Fraction(2, 3**90)
        fast, slow = star_table(w, tol), _loop_table(w, tol)
        assert [(k, r.holds, r.max_spread, r.common_difference) for k, r in fast.items()] == [
            (k, r.holds, r.max_spread, r.common_difference) for k, r in slow.items()
        ]
        for t in (0, tol, Fraction(1, 1000), math.inf):
            members = (2, 3) if seed % 2 else (1, 4, 5)
            twigs = {m: Fraction(m + seed, 7) for m in members}
            bells = [(members, twigs)]
            assert _prune(w, bells, t) == _loop_prune(w, bells, t)
        if order == 2:
            for eps in (0, tol):
                assert [
                    (r.column, r.row, r.minimum, r.spread, r.confirmed)
                    for r in cherry_scan(w, eps).records
                ] == [(r.column, r.row, r.minimum, r.spread, r.confirmed) for r in scan_pure(w, eps)]
        else:
            assert condition2_values(derived_pairwise_consistent(w, tol)) == condition2_values(
                lift_check_loop(w, tol)
            )
            assert condition2_values(derived_pairwise_consistent(w)) == derived_common_values(w)

    @pytest.mark.parametrize("order, n", [(2, 60), (3, 20)])
    def test_memory_stays_near_the_datas_own(self, order, n):
        # 1770 (pairs) or 1140 (triples) pairwise coprime denominators of
        # 10 bits or more: scaled to their LCM, every unit would take 1.5 to
        # 2.5 KB, and the star table's blocks over 100 MB
        w = _own_denominators(order, n, 0, bits=10, tree=False)
        assert holds_fractions(w.dense()[1])
        table, reduced, peak = self._star_and_prune(w)
        assert not any(r.holds for r in table.values())
        assert reduced.n == n - 1
        assert peak < 40 * 2**20

    def test_condition2_rejects_before_any_star_window(self):
        # 20 labels, a coprime denominator per triple, not a lift: the
        # O(n^3) lift check rejects at level 0 without a star table; the
        # O(n^5) scan over every {r, s, u} it replaced took about 4 s here
        w = _own_denominators(3, 20, 0, bits=10, tree=False)
        w.dense()
        start = time.process_time()
        with mock.patch.object(reconstruct_mod, "star_table", side_effect=AssertionError):
            with pytest.raises(ReconstructionError) as exc:
                reconstruct_from_triples(w)
        assert (exc.value.kind, exc.value.level) == ("condition2", 0)
        assert time.process_time() - start < 2.0

    def test_blocks_of_long_units_stay_small(self):
        # one denominator of 4001 bits: every unit takes about 500 bytes, so
        # 1M-element blocks would pass 1 GB; the byte budget keeps them near 8 MB
        n, den = 60, 2**4000 + 1
        w = DoubleWeights(
            {k: Fraction(sum(k) * den + k[0] * k[1], den) for k in combinations(range(1, n + 1), 2)}
        )
        assert w.dense()[1].dtype == object and w.dense()[2] == den
        table, reduced, peak = self._star_and_prune(w)
        assert not any(r.holds for r in table.values())
        assert reduced.n == n - 1
        assert peak < 40 * 2**20

    @staticmethod
    def _star_and_prune(w):
        """Star table and one prune, with the peak of traced memory."""
        w.dense()
        prune = prune_doubles if w.order == 2 else prune_triples
        twigs = {1: Fraction(1, 3), 2: Fraction(-1, 5)}
        tracemalloc.start()
        try:
            table = star_table(w)
            reduced, _ = prune(w, [Pseudobell(members=(1, 2), twig_lengths=twigs)], math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return table, reduced, peak

    def test_block_budget_counts_bytes(self):
        ints = np.array([[0, 3**20000], [3**20000, 0]], dtype=object)
        assert block_elems(ints) == BLOCK_ELEMS * 8 // (8 + 2 * sys.getsizeof(3**20000))
        assert block_elems(np.zeros((2, 2), dtype=np.int64)) == BLOCK_ELEMS
        assert block_elems(np.zeros((2, 2, 2))) == BLOCK_ELEMS


def _block_elems_by_entry(arr):
    """block_elems from its definition: the largest entry over the sorted
    pairs by its bytes, a Fraction's parts included."""
    if arr.dtype != object:
        return BLOCK_ELEMS
    entries = [arr[k] for k in combinations(range(len(arr)), 2)]

    def size(x):
        if isinstance(x, Fraction):
            return sys.getsizeof(x) + sys.getsizeof(x.numerator) + sys.getsizeof(x.denominator)
        return sys.getsizeof(x)

    return max(1, BLOCK_ELEMS * 8 // (8 + 2 * max(map(size, entries), default=0)))


def test_block_elems_pinned_on_every_mirror_kind():
    """int64, ``object`` ints (of either sign, the largest magnitude
    negative too) and Fraction pair mirrors give the block size of the
    per-entry definition."""
    n = 9
    base = doubles_of_tree(random_tree(n, 3))
    wide = Fraction(2**61 + 1, 2**61 - 1)
    mirrors = {
        "int64": base.dense()[1],
        "object ints": DoubleWeights({k: v * wide for k, v in base.items()}).dense()[1],
        "object ints, negative": DoubleWeights({k: -v * wide for k, v in base.items()}).dense()[1],
        "fractions": _own_denominators(2, n, 1, _DENSE_SCALE_BITS // 8 + 40).dense()[1],
    }
    assert mirrors["int64"].dtype == np.int64
    assert mirrors["object ints"].dtype == object and not holds_fractions(mirrors["object ints"])
    assert holds_fractions(mirrors["fractions"])
    # mixed signs, the largest magnitude negative
    mixed = np.array([[0, 5, -(3**300)], [5, 0, 2**40], [-(3**300), 2**40, 0]], dtype=object)
    mirrors["mixed signs"] = mixed
    for name, arr in mirrors.items():
        assert block_elems(arr) == _block_elems_by_entry(arr), name
    assert block_elems(mirrors["int64"]) == BLOCK_ELEMS
    assert block_elems(mirrors["object ints"]) < BLOCK_ELEMS


class TestIndexCache:
    def test_small_sizes_stay_cached(self):
        """Every size a benchmark-sized run asks for is built once."""
        firsts = {(weights_mod._upper_pairs, (m,)): weights_mod._upper_pairs(m) for m in range(2, 81)}
        firsts.update({(weights_mod._upper_keys, (m, 3)): weights_mod._upper_keys(m, 3)
                       for m in range(3, 17)})
        for (build, args), arrays in firsts.items():
            assert build(*args) is arrays

    def test_held_bytes_are_bounded(self, monkeypatch):
        monkeypatch.setattr(weights_mod, "_INDEX_CACHE_BYTES", 1 << 20)
        monkeypatch.setattr(weights_mod, "_index_cache", OrderedDict())
        for m in range(300, 100, -1):
            got = weights_mod._upper_pairs(m)
            assert np.array_equal(np.stack(got), np.stack(np.triu_indices(m, 1)))
            held = sum(a.nbytes for arrays in weights_mod._index_cache.values() for a in arrays)
            assert held <= 1 << 20
        # the most recently used sizes are the ones kept
        assert weights_mod._upper_pairs(101) is weights_mod._upper_pairs(101)
        assert (weights_mod._upper_pairs.__wrapped__, 101) in weights_mod._index_cache
        assert (weights_mod._upper_pairs.__wrapped__, 300) not in weights_mod._index_cache
        # an array set past the budget is returned, not kept
        big = weights_mod._upper_pairs(600)
        assert len(big[0]) == 600 * 599 // 2
        assert (weights_mod._upper_pairs.__wrapped__, 600) not in weights_mod._index_cache
