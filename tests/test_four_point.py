"""The four-point block kernel against the reference loop over quadruples.

``weights.buneman_check`` runs on the dense mirror in blocks of heads
(i, j); ``reference_loops.buneman_check_loop`` sorts the three pair sums
of every quadruple in combinations order.  They must give the same
verdict, the same witness and the same gap (bitwise for floats), on every
mirror kind, at every tolerance, and the kernel must stop at the block
that holds the witness.
"""

import math
import random
import struct
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import DoubleWeights, doubles_of_tree, random_tree
from treeweights import weights as weights_mod
from treeweights.weights import _over, buneman_check, holds_fractions, key_blocks
from conftest import cross_path_cases, late_failing_caterpillar
from reference_loops import buneman_check_loop

# the mirror kinds of conftest.cross_path_cases, made from exact values
KINDS = {
    "int64": lambda v: v,
    "object": lambda v: v * Fraction(2**61 + 1, 2**61 - 1),
    "fractions": lambda v: v * Fraction(3**2600 + 1, 3**2600),
    "float64": float,
}
TOLS = [0, Fraction(1, 50), 0.02, math.inf]


def mirror_kind(d):
    arr = d.dense()[1]
    if arr.dtype != object:
        return str(arr.dtype)
    return "fractions" if holds_fractions(arr) else "object"


def in_kind(values, n, kind):
    """The container of exact *values* over labels 1..n as mirror *kind*;
    below 2 labels, an empty one from its mirror."""
    if n < 2:
        dtype = np.float64 if kind == "float64" else np.int64
        return DoubleWeights.from_mirror(range(1, n + 1), "float" if kind == "float64" else "int",
                                         np.zeros((n, n), dtype=dtype), None if kind == "float64" else 1)
    return DoubleWeights({k: KINDS[kind](v) for k, v in values.items()}, labels=range(1, n + 1))


def verdict_key(v):
    """passed, witness, then the gap by value and kind: floats bitwise."""
    gap = v.gap
    exact = not isinstance(gap, float)
    return v.passed, v.witness, exact, Fraction(gap) if exact else struct.pack("<d", gap)


def assert_same(d, tol):
    want = buneman_check_loop(d, tol)
    got = buneman_check(d, tol)
    assert verdict_key(got) == verdict_key(want)
    # the kernel's exact gap is a Fraction, also where the loop adds ints
    assert type(got.gap) is (float if isinstance(want.gap, float) else Fraction) or got.passed
    return got


@st.composite
def instances(draw):
    """(container, shape) over 0-14 labels in one mirror kind: tree data,
    tree data with a few entries bumped, or the late-failing caterpillar."""
    n = draw(st.integers(0, 14))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(sorted(KINDS)))
    shape = draw(st.sampled_from(["tree", "bumped", "late"]))
    rng = random.Random(seed)
    values = {}
    if n >= 2:
        values = dict(doubles_of_tree(random_tree(n, seed, binary_only=seed % 3 != 0)).items())
    if shape == "bumped" and values:
        for key in rng.sample(sorted(values), min(len(values), draw(st.integers(1, 3)))):
            values[key] += Fraction(rng.choice((-2, -1, 1, 2)), 3)
    if shape == "late" and n >= 5:
        values = late_failing_caterpillar(n, rng)
    return in_kind(values, n, kind), shape


class TestKernelAgainstLoop:
    @given(instances(), st.sampled_from(TOLS))
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_witness_and_gap(self, case, tol):
        d, shape = case
        got = assert_same(d, tol)
        n = d.n
        if shape == "late" and n >= 5 and tol != math.inf:
            assert got.witness == (1, n - 2, n - 1, n)

    @pytest.mark.parametrize("seed", range(6))
    def test_cross_path_cases(self, seed):
        seen = set()
        for name, d, case_tol in cross_path_cases(seed, 2):
            seen.add(mirror_kind(d))
            for tol in TOLS + [case_tol]:
                assert_same(d, tol)
        assert seen == {"int64", "object", "fractions", "float64"}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_late_witness_in_every_kind(self, kind):
        n = 14
        d = in_kind(late_failing_caterpillar(n, random.Random(3)), n, kind)
        assert mirror_kind(d) == kind
        got = assert_same(d, 0)
        assert got.witness == (1, 12, 13, 14)
        assert list(combinations(range(1, 15), 4)).index(got.witness) == math.comb(13, 3) - 1

    def test_int_container_reports_a_fraction_gap(self):
        d = DoubleWeights({(1, 2): 30, (1, 3): 9, (1, 4): 10, (2, 3): 10, (2, 4): 11, (3, 4): 7})
        want, got = buneman_check_loop(d), buneman_check(d)
        assert (type(want.gap), type(got.gap)) == (int, Fraction)
        assert got.witness == want.witness == (1, 2, 3, 4)
        assert got.gap == want.gap == 17


class TestBlocks:
    @pytest.mark.parametrize("size", [0, 1, 7, 40, 200, 10**6])
    @pytest.mark.parametrize("order", [3, 4])
    def test_blocks_concatenate_to_every_key(self, order, size):
        """The one walker over triples and quadruples: its blocks are runs of
        whole heads, the first order - 2 labels, in combinations order."""
        for m in range(13):
            blocks = list(key_blocks(m, order, size))
            keys = [list(zip(*(x.tolist() for x in b))) for _, b in blocks]
            assert sum(keys, []) == list(combinations(range(m), order))
            assert [s for s, _ in blocks] == [sum(map(len, keys[:k])) for k in range(len(blocks))]
            heads = [{q[: order - 2] for q in b} for b in keys]
            # no head is split between blocks; over size only where one head is
            assert sum(map(len, heads)) == len(set().union(*heads))
            assert all(len(b) <= size or len(h) == 1 for b, h in zip(keys, heads))
            assert len(blocks) == 1 or all(keys)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_witness_in_a_later_block_stops_there(self, kind, monkeypatch):
        n = 14
        d = in_kind(late_failing_caterpillar(n, random.Random(5)), n, kind)
        want = buneman_check_loop(d)
        monkeypatch.setattr(weights_mod, "BLOCK_ELEMS", weights_mod._KEY_ARRAYS * 40)
        built = []
        keys_from = weights_mod._keys_from

        def recording(m, order, a, b):
            out = keys_from(m, order, a, b)
            built.append(out)
            return out

        monkeypatch.setattr(weights_mod, "_keys_from", recording)
        got = buneman_check(d)
        assert verdict_key(got) == verdict_key(want)
        # blocks are consecutive runs in combinations order: the witness
        # lies past the first, and the last one built holds it
        assert len(built) > 1
        assert tuple(x - 1 for x in want.witness) in zip(*(x.tolist() for x in built[-1]))

    def test_passing_scan_builds_every_block_once(self, monkeypatch):
        d = doubles_of_tree(random_tree(14, 2, mode="float"))
        monkeypatch.setattr(weights_mod, "BLOCK_ELEMS", weights_mod._KEY_ARRAYS * 40)
        built = []
        keys_from = weights_mod._keys_from
        monkeypatch.setattr(weights_mod, "_keys_from",
                            lambda m, order, a, b: built.append((a, b)) or keys_from(m, order, a, b))
        assert buneman_check(d, 1e-9) == buneman_check_loop(d, 1e-9)
        assert built[0][0] == 0 and built[-1][1] == math.comb(14, 2)
        assert all(x[1] == y[0] for x, y in zip(built, built[1:]))

    def test_small_scans_share_one_cached_index(self, monkeypatch):
        d = doubles_of_tree(random_tree(12, 4))
        buneman_check(d)

        def refuse(m, order, a, b):
            raise AssertionError("index rebuilt")

        monkeypatch.setattr(weights_mod, "_keys_from", refuse)
        assert buneman_check(d).passed


class TestMemory:
    @pytest.mark.parametrize("budget", [None, 1 << 16])
    def test_full_float_scan_stays_within_its_blocks(self, budget, monkeypatch):
        # C(60, 4) = 487,635 quadruples: built at once, their indices and
        # sums would take about 47 MB; in blocks, about one block
        if budget is not None:
            monkeypatch.setattr(weights_mod, "BLOCK_ELEMS", budget)
        block = weights_mod.BLOCK_ELEMS * 8
        d = doubles_of_tree(random_tree(60, 1, mode="float"))
        d.dense()
        tracemalloc.start()
        try:
            verdict = buneman_check(d, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.passed
        assert peak < 2 * block


class TestFloatCompareOnExactTolerances:
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20),
           st.one_of(st.fractions(), st.integers(), st.integers(-10**400, 10**400)))
    @settings(max_examples=300, deadline=None)
    def test_over_is_the_exact_compare(self, xs, tol):
        # the floats next to tol and to the first few drawn ones
        near = [float(tol)] if abs(tol) < 2**1000 else []
        xs = xs + near + [math.nextafter(x, d) for x in near + xs[:3] for d in (-math.inf, math.inf)]
        assert _over(np.array(xs), tol, None).tolist() == [x > tol for x in xs]
