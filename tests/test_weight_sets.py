"""Weight containers, star condition, derived values, four-point check, IO."""

import math
import random
import struct
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    DoubleWeights,
    InstanceTooSmallError,
    LabelError,
    ParseError,
    TripleWeights,
    buneman_check,
    cherry_pair_set,
    derived_pairwise,
    derived_pairwise_consistent,
    doubles_of_tree,
    emit_doubles,
    emit_triples,
    metric_warnings,
    neighbor_pairs,
    parse_doubles,
    parse_triples,
    random_tree,
    star_condition_doubles,
    star_condition_triples,
    star_table,
    triples_from_doubles,
    triples_of_tree,
)
from treeweights.numeric import EXPONENT_LIMIT, is_exact, parse_number
from treeweights.weights import holds_fractions, pairwise_fit
from conftest import (
    CATERPILLAR_TRIPLES,
    CROSS_PATH_SEEDS,
    QUARTET_DOUBLES,
    cross_path_cases,
    exact_or_float,
)
from reference_loops import (
    condition2_values,
    derived_common_values,
    lift_check_loop,
    star_condition_loop,
    star_table_loop,
)


def test_reference_values(cat_triples, quartet_doubles):
    assert dict(cat_triples.items()) == CATERPILLAR_TRIPLES
    assert dict(quartet_doubles.items()) == QUARTET_DOUBLES


class TestContainers:
    def test_order_independent_lookup(self, quartet_doubles, cat_triples):
        assert quartet_doubles.value(3, 1) == quartet_doubles.value(1, 3) == 9
        assert cat_triples.value(5, 3, 1) == cat_triples.value(1, 3, 5) == 22

    def test_missing_entry_rejected(self):
        vals = dict(QUARTET_DOUBLES)
        del vals[(2, 4)]
        with pytest.raises(ValueError, match="missing"):
            DoubleWeights(vals, labels=range(1, 5))

    def test_missing_keys_counted_not_listed(self):
        # C(1500, 2) expected pairs: counting them and scanning lazily for
        # the first gaps keeps the check within the data's own size
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                DoubleWeights({(1, 2): 1}, labels=range(1, 1501))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"incomplete pair map: {math.comb(1500, 2) - 1} missing "
            "(e.g. [(1, 3), (1, 4), (1, 5)]), 0 unexpected"
        )
        assert peak < 2**20

    def test_unexpected_keys_counted(self):
        vals = {k: 1 for k in combinations(range(1, 6), 3) if k != (3, 4, 5)}
        vals[(1, 2, 9)] = vals[(4, 6, 7)] = 1
        with pytest.raises(ValueError) as exc:
            TripleWeights(vals, labels=range(1, 6))
        assert str(exc.value) == "incomplete triple map: 1 missing (e.g. [(3, 4, 5)]), 2 unexpected"

    def test_duplicate_orientation_rejected(self):
        vals = dict(QUARTET_DOUBLES)
        vals[(2, 1)] = 3
        with pytest.raises(ValueError, match="duplicate"):
            DoubleWeights(vals)

    def test_unknown_pair(self, quartet_doubles):
        with pytest.raises(LabelError):
            quartet_doubles.value(1, 9)

    def test_restrict_and_relabel(self, quartet_doubles):
        sub = quartet_doubles.restrict([1, 2, 3])
        assert sub.labels == (1, 2, 3) and sub.value(2, 3) == 10
        moved = quartet_doubles.relabel({1: 11, 2: 12, 3: 13, 4: 14})
        assert moved.value(11, 13) == 9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_float_rejected(self, bad):
        vals = dict(QUARTET_DOUBLES)
        vals[(2, 4)] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DoubleWeights(vals)
        trip = {k: 1.0 for k in combinations(range(1, 6), 3)}
        trip[(1, 3, 5)] = bad
        with pytest.raises(ValueError, match="non-finite"):
            TripleWeights(trip)

    def test_huge_fraction_accepted(self):
        # finiteness is checked on floats only: a Fraction past the float
        # range is a finite exact value
        vals = dict(QUARTET_DOUBLES)
        vals[(2, 4)] = Fraction(10**400, 3)
        assert DoubleWeights(vals).value(2, 4) == Fraction(10**400, 3)

    def test_bool_labels_refused(self):
        # emit_doubles would write the label as "True", which no parser reads;
        # True == 1, so in the second set the label set alone would not show it
        for values in ({(True, 2): 1, (True, 3): 2, (2, 3): 3}, {(1, 2): 1, (True, 3): 2, (2, 3): 3}):
            with pytest.raises(ValueError, match="labels must be positive ints, got True"):
                DoubleWeights(values)
        with pytest.raises(ValueError, match="labels must be positive ints, got True"):
            DoubleWeights({(1, 2): 1, (1, 3): 2, (2, 3): 3}, labels=(True, 2, 3))
        with pytest.raises(ValueError, match="labels must be positive ints, got True"):
            TripleWeights({(True, 2, 3): 1})

    def test_min_sizes(self):
        with pytest.raises(ValueError):
            DoubleWeights({}, labels=[1])
        with pytest.raises(ValueError):
            TripleWeights({}, labels=[1, 2])

    @pytest.mark.parametrize("cls,noun,key", [
        (DoubleWeights, "pair", (1, 2)),
        (TripleWeights, "triple", (1, 2, 3)),
    ])
    def test_wrong_key_length_names_the_order(self, cls, noun, key):
        for bad in (key[:-1], key + (9,)):
            with pytest.raises(ValueError, match=f"^{noun} key needs {len(key)} labels"):
                cls({key: 1, bad: 1})
        with pytest.raises(ValueError, match=f"^{noun} key with repeated labels"):
            cls({key[:-1] + key[:1]: 1})
        w = cls({key: 1})
        assert w.value(*reversed(key)) == 1
        for bad in (key[:-1], key + (9,), key[:-1] + key[:1], ()):
            with pytest.raises(ValueError, match=f"^{noun} lookup needs {len(key)} distinct"):
                w.value(*bad)
        with pytest.raises(LabelError, match=f"^{noun} "):
            w.value(*key[:-1], 9)


class TestStarCondition:
    def test_quartet_cherry_pair(self, quartet_doubles):
        res = star_condition_doubles(quartet_doubles, 1, 2)
        assert res.holds and res.common_difference == -1 and res.max_spread == 0

    def test_quartet_cross_pair(self, quartet_doubles):
        res = star_condition_doubles(quartet_doubles, 1, 3)
        assert not res.holds
        assert res.max_spread == 10  # differences 3 and -7

    def test_three_labels_vacuous(self):
        d = DoubleWeights({(1, 2): 3, (1, 3): 4, (2, 3): 5})
        assert star_condition_doubles(d, 1, 2).holds

    def test_doubles_size_gate(self):
        d = DoubleWeights({(1, 2): 3})
        with pytest.raises(InstanceTooSmallError):
            star_condition_doubles(d, 1, 2)

    def test_caterpillar_triples(self, cat_triples):
        assert star_condition_triples(cat_triples, 1, 2).common_difference == -1
        assert star_condition_triples(cat_triples, 4, 5).common_difference == -1
        # the window is the pairwise fit's: d(1, g) - d(3, g) = -8, 4, 4 for
        # g = 2, 4, 5 (the triple differences -2, -2, 4 are their pair means)
        res = star_condition_triples(cat_triples, 1, 3)
        assert not res.holds and res.max_spread == 12 and res.common_difference == -2

    def test_star_table_matches_single_queries(self, cat_triples):
        table = star_table(cat_triples)
        for a, b in combinations(cat_triples.labels, 2):
            single = star_condition_triples(cat_triples, a, b)
            assert table[(a, b)].holds == single.holds
            assert table[(a, b)].common_difference == single.common_difference
            assert table[(a, b)].max_spread == single.max_spread

    def test_star_table_pure_path_agrees(self, cat_triples):
        # a denominator of 10**9 stays on an int64 mirror
        vals = {k: v + Fraction(0, 1) for k, v in cat_triples.items()}
        vals[(1, 2, 3)] = Fraction(12 * 10**9 + 1, 10**9)
        bumpy = TripleWeights(vals)
        assert bumpy.dense()[1].dtype == np.int64 and bumpy.dense()[2] == 10**9
        table = star_table(bumpy)
        for pair, res in table.items():
            single = star_condition_triples(bumpy, *pair)
            assert res.max_spread == single.max_spread
        # the block kernel on int64, float64 and object mirrors (of ints and
        # of Fractions) against the reference loops, entry by entry, bitwise
        # for floats; a triple set's table is its pairwise fit's
        for order, seed in product((2, 3), CROSS_PATH_SEEDS):
            single = star_condition_doubles if order == 2 else star_condition_triples
            for name, w, tol in cross_path_cases(seed, order):
                prefix = name.rsplit("-", 1)[0]
                dtype = {"wide-scale": "int64", "fractions": "object"}.get(prefix, prefix)
                assert w.dense()[1].dtype == np.dtype(dtype), name
                assert holds_fractions(w.dense()[1]) == (prefix == "fractions"), name
                fast, slow = star_table(w, tol), star_table_loop(pairwise_fit(w), tol)
                assert list(fast) == list(slow) == list(combinations(w.labels, 2))
                for pair, res in fast.items():
                    ref = slow[pair]
                    assert res.holds == ref.holds == single(w, *pair, tol=tol).holds
                    assert exact_or_float(res.max_spread) == exact_or_float(
                        ref.max_spread
                    ), (name, seed, pair)
                    assert exact_or_float(res.common_difference) == exact_or_float(
                        ref.common_difference
                    ), (name, seed, pair)


    def test_single_pair_queries_match_the_loop_windows(self):
        # one kernel window per query, in both argument orders, against the
        # pure-Python window on every mirror (a triple set's on its pairwise
        # fit); bitwise for floats
        for order, seed in product((2, 3), CROSS_PATH_SEEDS):
            query = star_condition_doubles if order == 2 else star_condition_triples
            for name, w, tol in cross_path_cases(seed, order):
                d = pairwise_fit(w)
                for a, b in permutations(w.labels, 2):
                    got, ref = query(w, a, b, tol=tol), star_condition_loop(d, a, b, tol)
                    assert got.holds == ref.holds, (name, seed, a, b)
                    for x, y in (
                        (got.max_spread, ref.max_spread),
                        (got.common_difference, ref.common_difference),
                    ):
                        assert exact_or_float(x) == exact_or_float(y), (name, seed, a, b)

    def test_reversed_pair_of_a_zero_window(self):
        # every difference is +0.0 whichever label comes first
        flat = DoubleWeights({pair: 2.0 for pair in combinations(range(1, 5), 2)})
        for a, b in ((1, 2), (2, 1)):
            res = star_condition_doubles(flat, a, b)
            assert repr(res.common_difference) == repr(res.max_spread) == "0.0"

    def test_unknown_label(self, quartet_doubles, cat_triples):
        for w, query in ((quartet_doubles, star_condition_doubles),
                         (cat_triples, star_condition_triples)):
            for pair in ((1, 99), (99, 1)):
                with pytest.raises(LabelError):
                    query(w, *pair)


class TestDenseKind:
    def test_kind_is_is_exact_over_the_values(self):
        # the mirror's kind applies is_exact once per value type; it must
        # agree with applying it per value on every mix of types
        class Exact(Fraction):
            pass

        samples = [3, Fraction(1, 3), Exact(2, 3), 0.5, True,
                   np.int64(4), np.float64(0.25), np.bool_(True)]
        keys = list(combinations(range(1, 4), 2))
        for mix in product(samples, repeat=len(keys)):
            kind = DoubleWeights(dict(zip(keys, mix))).dense()[0]
            assert kind == ("int" if all(map(is_exact, mix)) else "float"), mix


class TestNeighborPairs:
    def test_caterpillar(self, cat_triples):
        assert neighbor_pairs(cat_triples) == [(1, 2), (4, 5)]

    def test_quartet(self, quartet_doubles):
        assert neighbor_pairs(quartet_doubles) == [(1, 2), (3, 4)]

    def test_star_all_pairs(self):
        star = random_tree(5, 0, 1, 1)  # not a star; build one explicitly
        from treeweights import WeightedTree

        star = WeightedTree([(i, 9, 1) for i in range(1, 6)])
        assert len(neighbor_pairs(triples_of_tree(star))) == 10

    def test_size_gates_carry_required_n(self, quartet_doubles):
        with pytest.raises(InstanceTooSmallError) as exc:
            neighbor_pairs(triples_of_tree(random_tree(4, 1)))
        assert exc.value.required == 5
        with pytest.raises(InstanceTooSmallError) as exc:
            neighbor_pairs(DoubleWeights({(1, 2): 1}))
        assert exc.value.required == 3

    @given(st.integers(0, 10**6), st.integers(3, 7), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_bells_doubles(self, seed, n, multi):
        t = random_tree(n, seed, binary_only=not multi)
        assert set(neighbor_pairs(doubles_of_tree(t))) == cherry_pair_set(t)

    @given(st.integers(0, 10**6), st.integers(5, 7), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_bells_triples(self, seed, n, multi):
        t = random_tree(n, seed, binary_only=not multi)
        assert set(neighbor_pairs(triples_of_tree(t))) == cherry_pair_set(t)

    def test_common_difference_is_twig_gap(self, cat_triples, quartet_doubles):
        assert star_condition_triples(cat_triples, 1, 2).common_difference == 1 - 2
        assert star_condition_doubles(quartet_doubles, 3, 4).common_difference == 3 - 4


class TestDerivedPairwise:
    def test_caterpillar_value(self, cat_triples):
        assert derived_pairwise(cat_triples, 1, 2, 3, 4, 5) == 3

    def test_all_zero(self):
        zero = TripleWeights(
            {t: 0 for t in combinations(range(1, 6), 3)}, labels=range(1, 6)
        )
        assert derived_pairwise(zero, 1, 2, 3, 4, 5) == 0

    def test_distinct_labels_required(self, cat_triples):
        with pytest.raises(ValueError):
            derived_pairwise(cat_triples, 1, 2, 3, 4, 4)

    @given(st.integers(0, 10**6), st.integers(5, 8))
    @settings(max_examples=40, deadline=None)
    def test_inverts_lift_exactly(self, seed, n):
        t = random_tree(n, seed)
        d = doubles_of_tree(t)
        lifted = triples_from_doubles(d)
        labels = d.labels
        for i, j in combinations(labels, 2):
            rest = [g for g in labels if g not in (i, j)]
            for r, s, u in combinations(rest, 3):
                assert derived_pairwise(lifted, i, j, r, s, u) == d.value(i, j)

    def test_consistency_on_tree_data(self, cat_triples, cat_doubles):
        ok, derived = derived_pairwise_consistent(cat_triples)
        assert ok
        assert dict(derived.items()) == dict(cat_doubles.items())

    def test_vacuous_at_five_labels(self, cat_triples):
        # with 5 labels each pair has exactly one {r, s, u} completion, so
        # consistency cannot fail; rejection there is the base case's job
        vals = dict(cat_triples.items())
        vals[(1, 2, 3)] = vals[(1, 2, 3)] + 1
        ok, _ = derived_pairwise_consistent(TripleWeights(vals))
        assert ok

    def test_consistency_breaks_on_perturbation(self):
        t = triples_of_tree(random_tree(6, 3))
        vals = dict(t.items())
        vals[(1, 2, 3)] = vals[(1, 2, 3)] + 1
        ok, derived = derived_pairwise_consistent(TripleWeights(vals))
        assert not ok and derived is None

    def test_pure_and_dense_agree(self, cat_triples):
        ok_fast, fast = derived_pairwise_consistent(cat_triples)
        vals = {k: Fraction(v * 10**9 + 1, 10**9) for k, v in cat_triples.items()}
        slow_container = TripleWeights(vals)
        assert slow_container.dense()[1].dtype == np.int64
        ok_slow, slow = derived_pairwise_consistent(slow_container, tol=Fraction(1))
        assert ok_fast and ok_slow
        assert condition2_values(derived_pairwise_consistent(slow_container)) == (
            derived_common_values(slow_container)
        )
        assert dict(slow.items()) == condition2_values(lift_check_loop(slow_container, 1))[1]

    def test_size_gate(self):
        small = triples_of_tree(random_tree(4, 0))
        with pytest.raises(InstanceTooSmallError):
            derived_pairwise_consistent(small)


class TestTriplesFromDoubles:
    def test_quartet(self, quartet_doubles):
        lifted = triples_from_doubles(quartet_doubles)
        assert lifted.value(1, 2, 3) == 11

    def test_zero(self):
        zero = DoubleWeights(
            {p: 0 for p in combinations(range(1, 5), 2)}, labels=range(1, 5)
        )
        assert all(v == 0 for _, v in triples_from_doubles(zero).items())

    def test_matches_tree_triples(self, cat_doubles, cat_triples):
        assert dict(triples_from_doubles(cat_doubles).items()) == dict(
            cat_triples.items()
        )


class TestBuneman:
    def test_quartet_passes(self, quartet_doubles):
        verdict = buneman_check(quartet_doubles)
        assert verdict.passed and verdict.witness is None

    def test_caterpillar_quadruple_sums(self, cat_doubles):
        # quadruple (1,2,3,4): sums 17, 29, 29
        d = cat_doubles
        sums = sorted(
            [
                d.value(1, 2) + d.value(3, 4),
                d.value(1, 3) + d.value(2, 4),
                d.value(1, 4) + d.value(2, 3),
            ]
        )
        assert sums == [17, 29, 29]
        assert buneman_check(cat_doubles).passed

    def test_failure_witness(self, quartet_doubles):
        vals = dict(quartet_doubles.items())
        vals[(1, 2)] = 30  # sums 37, 20, 20: max attained once
        verdict = buneman_check(DoubleWeights(vals))
        assert not verdict.passed
        assert verdict.witness == (1, 2, 3, 4)
        assert verdict.gap == 17

    def test_small_instances_vacuous(self):
        d = DoubleWeights({(1, 2): 3, (1, 3): 4, (2, 3): 5})
        assert buneman_check(d).passed

    def test_tolerance(self, quartet_doubles):
        vals = {k: float(v) for k, v in quartet_doubles.items()}
        vals[(1, 3)] += 0.01
        assert not buneman_check(DoubleWeights(vals)).passed
        assert buneman_check(DoubleWeights(vals), tol=0.02).passed

    @given(st.integers(0, 10**6), st.integers(4, 12))
    @settings(max_examples=60, deadline=None)
    def test_passes_on_positive_tree_data(self, seed, n):
        t = random_tree(n, seed, Fraction(1, 10), 10, binary_only=seed % 2 == 0)
        assert buneman_check(doubles_of_tree(t)).passed

    def test_metric_warnings(self):
        d = DoubleWeights({(1, 2): -1, (1, 3): 1, (2, 3): 10})
        warnings = metric_warnings(d)
        assert any("non-positive" in w for w in warnings)
        assert any("triangle" in w for w in warnings)


class TestFiles:
    def test_minimal_doubles(self):
        d = parse_doubles("3\n1 2 3.0\n1 3 4.0\n2 3 5.0\n")
        assert d.n == 3 and d.value(1, 2) == 3

    def test_comments_and_blank_lines(self):
        text = "# comment\n\n3\n1 2 3 # inline\n1 3 4\n2 3 5\n"
        assert parse_doubles(text).value(2, 3) == 5

    def test_round_trip_rational(self, quartet_doubles):
        assert dict(parse_doubles(emit_doubles(quartet_doubles)).items()) == dict(
            quartet_doubles.items()
        )

    def test_round_trip_fractions(self):
        d = DoubleWeights(
            {(1, 2): Fraction(1, 3), (1, 3): Fraction(2, 7), (2, 3): Fraction(5)}
        )
        assert dict(parse_doubles(emit_doubles(d)).items()) == dict(d.items())

    def test_round_trip_float(self):
        vals = {(1, 2): 0.1 + 0.2, (1, 3): 1e-17, (2, 3): 3.0}
        d = DoubleWeights(vals)
        back = parse_doubles(emit_doubles(d), mode="float")
        assert dict(back.items()) == vals

    def test_triples_round_trip(self, cat_triples):
        assert dict(parse_triples(emit_triples(cat_triples)).items()) == dict(
            cat_triples.items()
        )

    def test_duplicate_line_has_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_doubles("3\n1 2 3.0\n1 2 4.0\n2 3 5.0\n1 3 4.0\n")
        assert exc.value.line == 3

    def test_unordered_labels_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_doubles("3\n2 1 3.0\n1 3 4.0\n2 3 5.0\n")
        assert exc.value.line == 2

    def test_out_of_range_label(self):
        with pytest.raises(ParseError):
            parse_doubles("3\n1 2 3.0\n1 4 4.0\n2 3 5.0\n")

    def test_missing_entries_reported(self):
        with pytest.raises(ParseError, match="missing"):
            parse_doubles("3\n1 2 3.0\n")

    def test_rational_tokens(self):
        d = parse_doubles("3\n1 2 1/3\n1 3 4\n2 3 5e-1\n")
        assert d.value(1, 2) == Fraction(1, 3)
        assert d.value(2, 3) == Fraction(1, 2)

    def test_emit_requires_standard_labels(self, quartet_doubles):
        moved = quartet_doubles.relabel({1: 11, 2: 12, 3: 13, 4: 14})
        with pytest.raises(ValueError):
            emit_doubles(moved)


class TestParseNumber:
    @staticmethod
    def _exact_route(token):
        """Float-mode value as read through the exact Fraction."""
        return float(Fraction(Decimal(token)))

    def test_float_mode_bitwise_as_exact_route(self):
        rng = random.Random(11)
        tokens = ["-0", "-0.0", "0e5", "-1e-400", "1e-400", "4.9e-324", "2.5e-324",
                  "1.7976931348623157e308", "1.7976931348623158e308", "1_000", " 7 "]
        for _ in range(20000):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 30)))
            cut = rng.randint(0, len(digits))
            token = rng.choice(("", "-", "+")) + digits[:cut] + "." + digits[cut:]
            if rng.random() < 0.7:
                token += rng.choice("eE") + str(rng.randint(-345, 310))
            tokens.append(token)
        for token in tokens:
            try:
                want = self._exact_route(token)
            except OverflowError:
                with pytest.raises(ValueError, match="float range"):
                    parse_number(token, "float")
                continue
            got = parse_number(token, "float")
            assert struct.pack("<d", got) == struct.pack("<d", want), token

    def test_rational_mode_unchanged_within_the_limit(self):
        rng = random.Random(12)
        tokens = ["1e300", "-2.5e-17", f"1e{EXPONENT_LIMIT}", f"3e-{EXPONENT_LIMIT}",
                  "007", "-0", "+12", "1_000", "12.", ".5"]
        tokens += [str(rng.randint(-10**30, 10**30)) for _ in range(2000)]
        tokens += [f"{rng.randint(-10**9, 10**9)}.{rng.randint(0, 10**9)}e{rng.randint(-60, 60)}"
                   for _ in range(2000)]
        for token in tokens:
            got = parse_number(token, "rational")
            assert type(got) is Fraction and got == Fraction(Decimal(token)), token

    @pytest.mark.parametrize("token", ["1e10000000", "-1e-10000000", f"1e{EXPONENT_LIMIT + 1}"])
    def test_huge_exponent_fails_fast(self, token):
        started = time.process_time()
        with pytest.raises(ValueError, match="beyond the limit"):
            parse_number(token, "rational")
        assert time.process_time() - started < 0.5

    @pytest.mark.parametrize("token", ["0e-10000000", "-0E4400", "0." + "0" * 5000])
    def test_zero_has_no_exponent_limit(self, token):
        assert parse_number(token, "rational") == Fraction(0)
        assert parse_number(token, "float") == 0.0

    def test_float_mode_reads_huge_exponents_without_expanding(self):
        started = time.process_time()
        assert parse_number("-1e-10000000", "float") == 0.0
        with pytest.raises(ValueError, match="float range"):
            parse_number("1e10000000", "float")
        assert time.process_time() - started < 0.5
