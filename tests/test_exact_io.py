"""Exact weight files read and written on integer units.

The bulk reader splits plain ``p`` and ``p/q`` tokens into int64
numerators and denominators, and reads every other token with
parse_number; the writer writes p/q straight from a mirror's units.  Both
are held to the line parser and to the Fraction-per-value writer
(``tests/reference_loops.py``).  The metric warnings, one block kernel on
the mirror, are held to their loop; ``reconstruct`` renders each output
once.
"""

import contextlib
import io
import json
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    DoubleWeights,
    ParseError,
    TripleWeights,
    WeightedTree,
    derived_pairwise_consistent,
    doubles_of_tree,
    emit_doubles,
    emit_triples,
    parse_doubles,
    parse_triples,
    random_tree,
    triples_from_doubles,
    triples_of_tree,
)
from treeweights import cli
from treeweights import tree as tree_mod
from treeweights import weights as weights_mod
from treeweights.weights import (
    _DENSE_MAG_CAP,
    _DENSE_SCALE_BITS,
    _parse_weight_lines,
    _read_bulk,
    emit_chunks,
    holds_fractions,
    metric_warnings,
    unit_value,
)
from reference_loops import emit_loop, metric_warnings_loop, triples_from_doubles_loop
from test_bulk_reader import assert_same_container

CLASSES = {2: DoubleWeights, 3: TripleWeights}
PARSE = {2: parse_doubles, 3: parse_triples}
EMIT = {2: emit_doubles, 3: emit_triples}

# read on int64 arrays, without parse_number
PLAIN = ["7", "-7", "+7", "0", "-0", "007", "2/4", "-0/7", "+3/4", "-6/4", "9" * 18,
         "-" + "9" * 18, "9" * 18 + "/" + "8" * 18, "-1/" + "9" * 18]
# read by parse_number (or refused by it, and then by the line parser)
ODD = ["3/+4", "3/-4", "9" * 19, "-" + "9" * 19, "1/" + "9" * 19, "9" * 19 + "/3", "1_0/3",
       "1_0", "٣/4", "٣", "1.5", "1e3", "-2.50", "3/0", "0/0", "x", "3/4/5", "/4",
       "4/", "+-3", "3-", "9" * 40 + "/7"]


def _file(order, values, n):
    keys = combinations(range(1, n + 1), order)
    return "\n".join([str(n)] + [" ".join(map(str, k)) + f" {v}" for k, v in zip(keys, values)]) + "\n"


def _same_outcome(text, order):
    """The bulk reader gives the line parser's container, or declines
    where the line parser raises; returns whether the file was read."""
    try:
        n, entries = _parse_weight_lines(text, order, "rational")
    except ParseError as exc:
        assert _read_bulk(text, order, "rational") is None
        with pytest.raises(ParseError) as got:
            PARSE[order](text, "rational")
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return False
    bulk = _read_bulk(text, order, "rational")
    assert bulk is not None
    got = CLASSES[order].from_mirror(range(1, n + 1), *bulk[1:])
    assert_same_container(got, CLASSES[order](entries, labels=range(1, n + 1)))
    return True


def _bulk_parse_number_calls(text, order, monkeypatch):
    """The tokens the bulk reader hands to parse_number."""
    calls = []
    parse = weights_mod.parse_number
    with monkeypatch.context() as m:
        m.setattr(weights_mod, "parse_number", lambda tok, mode: calls.append(tok) or parse(tok, mode))
        _read_bulk(text, order, "rational")
    return calls


# these files are short: the bulk path reads them only once the line
# parser's share, files under _FEW_BYTES, is set to none
arrays = pytest.mark.usefixtures("arrays")


@arrays
class TestTokenCorpus:
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("token", PLAIN)
    def test_plain_tokens_on_int64_arrays(self, order, token, monkeypatch):
        text = _file(order, [token, "5", "7/2", "1", "-3", "0"], 4)
        assert _same_outcome(text, order)
        assert _bulk_parse_number_calls(text, order, monkeypatch) == []

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("token", ODD)
    def test_other_tokens_through_parse_number(self, order, token, monkeypatch):
        text = _file(order, ["5", token, "7/2", "1", "-3", "0"], 4)
        if _same_outcome(text, order):
            assert _bulk_parse_number_calls(text, order, monkeypatch) == [token]

    def test_every_token_in_one_file(self):
        text = _file(2, PLAIN + [t for t in ODD if t not in ("3/0", "0/0", "x", "3/4/5", "/4",
                                                             "4/", "+-3", "3-")], 8)
        assert _same_outcome(text, 2)

    def test_shuffled_lines(self):
        lines = _file(2, PLAIN + ["1.5", "1_0"] + ["1"] * 5, 6).splitlines()
        text = "\n".join(lines[:1] + lines[:0:-1]) + "\n"
        assert _same_outcome(text, 2)


@arrays
class TestScales:
    @pytest.mark.parametrize("values, dtype", [
        ([str(_DENSE_MAG_CAP - 1), "1", "-1"], np.int64),
        ([str(_DENSE_MAG_CAP), "1", "-1"], object),
        ([str(-_DENSE_MAG_CAP), "1", "-1"], object),
        # units 3 * (10**18 - 1): past the headroom, within int64
        (["9" * 18 + "/2", "1/3", "0"], object),
        # units 11 * (10**18 - 1): past int64, taken on Python ints
        (["9" * 18 + "/7", "1/11", "0"], object),
        (["9" * 18 + "/7", "-" + "9" * 18 + "/11", "5"], object),
        # a value past int64 from parse_number moves the arrays to object
        (["9" * 30 + "/7", "1/3", "2"], object),
        (["1/" + "9" * 30, "1/3", "2"], object),
    ])
    def test_the_magnitude_cap(self, values, dtype):
        text = _file(2, values, 3)
        assert _same_outcome(text, 2)
        kind, arr, _ = parse_doubles(text).dense()
        assert kind == "int" and arr.dtype == dtype and not holds_fractions(arr)

    @pytest.mark.parametrize("count, fractions", [(60, False), (105, True)])
    def test_the_scale_cap(self, count, fractions):
        # 18-digit denominators that share few factors: 105 of them pass
        # 4096 bits of common scale, 60 do not
        n = 15
        values = [f"{k % 7 - 3}/{10**17 + 3 * k + 1}" for k in range(count)]
        values += ["1"] * (n * (n - 1) // 2 - count)
        text = _file(2, values, n)
        assert _same_outcome(text, 2)
        kind, arr, scale = parse_doubles(text).dense()
        assert holds_fractions(arr) == fractions
        assert (scale == 1) if fractions else (scale.bit_length() <= _DENSE_SCALE_BITS)

    def test_huge_scale_of_small_units(self):
        # int64 units on a scale past int64: the writer's gcd runs on Python ints
        text = _file(2, [f"{k}/{2**70}" for k in (1, 3, -5, 0, 7, 2**20)], 4)
        assert _same_outcome(text, 2)
        kind, arr, scale = parse_doubles(text).dense()
        assert arr.dtype == np.int64 and scale == 2**70
        assert emit_doubles(parse_doubles(text)) == emit_loop(parse_doubles(text))


def _own_denominators(count):
    """Values over consecutive denominators near 2**720: any six of them
    have a common scale past 4096 bits."""
    return [Fraction(k + 1, 2**720 + k) for k in range(count)]


@st.composite
def containers(draw):
    """A pair or triple container on an int64, ``object``-int or Fraction
    mirror, of random exact values."""
    order = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["int64", "object", "fractions"]))
    # six values over their own denominators pass the scale cap
    n = draw(st.integers({2: 4, 3: 5}[order] if kind == "fractions" else order + 1, 7))
    count = len(list(combinations(range(n), order)))
    nums = draw(st.lists(st.integers(-10**6, 10**6), min_size=count, max_size=count))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 7, 12]), min_size=count, max_size=count))
    values = [Fraction(a, b) for a, b in zip(nums, dens)]
    if kind == "object":
        values = [v * Fraction(2**61 + 1, 2**61 - 1) + 2**60 for v in values]
    elif kind == "fractions":
        values = [v + w for v, w in zip(values, _own_denominators(count))]
    w = CLASSES[order](dict(zip(combinations(range(1, n + 1), order), values)))
    arr = w.dense()[1]
    assert {"int64": arr.dtype == np.int64, "object": arr.dtype == object and not holds_fractions(arr),
            "fractions": holds_fractions(arr)}[kind]
    return w


class TestRoundTrip:
    @given(containers())
    @settings(max_examples=60, deadline=None)
    def test_parse_of_emit(self, w):
        text = EMIT[w.order](w)
        assert text == emit_loop(w)
        assert_same_container(PARSE[w.order](text), w)


def _writer_cases():
    d = doubles_of_tree(random_tree(9, 3))
    keys = list(combinations(range(1, 6), 3))
    yield "int64", d
    yield "object", DoubleWeights({k: v * Fraction(2**61 + 1, 2**61 - 1) for k, v in d.items()})
    yield "long-digits", DoubleWeights({(1, 2): 10**4301 - 1, (1, 3): Fraction(1, 3), (2, 3): 5})
    yield "fractions", TripleWeights(dict(zip(keys, _own_denominators(len(keys)))))
    yield "float", doubles_of_tree(random_tree(9, 3, mode="float"))
    yield "float-zeros", DoubleWeights({(1, 2): -0.0, (1, 3): 0.0, (2, 3): 1e-300})
    yield "triples", TripleWeights(dict(zip(keys, [Fraction(k, 6) for k in range(-5, 5)])))


class TestWriter:
    @pytest.mark.parametrize("name, w", list(_writer_cases()))
    def test_bytes_of_the_fraction_writer(self, name, w):
        assert EMIT[w.order](w) == emit_loop(w)

    def test_bounded_chunks(self, monkeypatch):
        monkeypatch.setattr(weights_mod, "_EMIT_LINES", 4)
        d = doubles_of_tree(random_tree(7, 2))
        chunks = list(emit_chunks(d))
        assert "".join(chunks) == emit_loop(d)
        assert chunks[0] == "7\n" and len(chunks) == 1 + 6  # 21 lines in chunks of 4
        assert all(chunk.count("\n") <= 4 for chunk in chunks)

    def test_labels_checked_before_any_chunk(self):
        d = DoubleWeights({(2, 3): 1, (2, 4): 1, (3, 4): 1})
        with pytest.raises(ValueError):
            emit_chunks(d)


def _lift_cases():
    t = random_tree(11, 4)
    yield "int64", t
    yield "float", random_tree(11, 4, mode="float")
    yield "object", WeightedTree([(u, v, w * Fraction(2**61 + 1, 2**61 - 1)) for u, v, w in t.edges])
    own = _own_denominators(len(t.edges))
    yield "fractions", WeightedTree([(u, v, w + x) for (u, v, w), x in zip(t.edges, own)])


class TestTripleKeyBlocks:
    """The triple lift, condition 2 and the file, built over blocks of
    first labels, are those of one block over every triple."""

    @pytest.mark.parametrize("name, tree", list(_lift_cases()))
    def test_lift_and_file_per_first_label(self, name, tree, monkeypatch):
        want = triples_of_tree(tree)
        text = emit_triples(want)
        assert text == emit_loop(want)
        kind, arr, scale = want.dense()
        residual, fit = want._condition2
        monkeypatch.setattr(weights_mod, "BLOCK_ELEMS", 1)  # one first label per block
        got = triples_of_tree(tree)
        assert emit_triples(got) == emit_triples(want) == text
        # condition 2 too: the last two labels head no triple and no block
        got_residual, got_fit = got._condition2
        assert (repr(got_residual), emit_doubles(got_fit)) == (repr(residual), emit_doubles(fit))
        gkind, garr, gscale = got.dense()
        assert (gkind, gscale, garr.dtype) == (kind, scale, arr.dtype)
        if arr.dtype == object:
            assert garr.tolist() == arr.tolist()
        else:
            assert garr.tobytes() == arr.tobytes()

    def test_no_index_over_the_whole_cube(self, monkeypatch):
        # C(110, 3) keys pass the block budget: the lift, condition 2 and
        # the file take their keys in blocks of first labels
        tree, budget = random_tree(110, 2), weights_mod.BLOCK_ELEMS
        one = weights_mod._KEY_ARRAYS * comb(110, 3)
        assert one > budget
        monkeypatch.setattr(weights_mod, "BLOCK_ELEMS", one)
        one_block = emit_triples(triples_of_tree(tree))

        def refuse(m, order):
            raise AssertionError(f"index of every triple over range({m}) built")

        monkeypatch.setattr(weights_mod, "_upper_keys", refuse)
        with pytest.raises(AssertionError, match="index of every triple"):
            triples_of_tree(tree)
        monkeypatch.setattr(weights_mod, "BLOCK_ELEMS", budget)
        text = emit_triples(triples_of_tree(tree))
        assert text.count("\n") == 1 + comb(110, 3)
        assert text == one_block
        assert derived_pairwise_consistent(triples_of_tree(tree), 0)[0]

    def test_fit_peak_is_bounded(self):
        # the fit reads the 10.5 MB of values in blocks; a symmetric cube of
        # them would take 64 MB on its own
        t = triples_of_tree(random_tree(200, 1, mode="float"))
        tracemalloc.start()
        try:
            assert derived_pairwise_consistent(t, 1e-9)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20


def _triple_constructors(tree):
    """(name, triple set) of the lift of *tree*, built every way there is."""
    lift = triples_of_tree(tree)
    mode = "float" if isinstance(tree.edges[0][2], float) else "rational"
    text = emit_triples(lift)
    yield "triples_of_tree", lift
    yield "triples_from_doubles", triples_from_doubles(doubles_of_tree(tree))
    yield "dict", TripleWeights(dict(lift.items()))
    bulk = parse_triples(text, mode)
    assert bulk._dict is None  # read to its mirror alone
    yield "bulk reader", bulk
    lines = parse_triples("# a comment sends the file to the line reader\n" + text, mode)
    assert lines._dict is not None
    yield "line reader", lines


@pytest.mark.parametrize("name, tree", list(_lift_cases()))
def test_triple_mirror_holds_each_value_once(name, tree):
    """A triple set's mirror is the 1-D array of its C(n, 3) values in
    combinations order, whatever built it, on every mirror kind."""
    want = triples_from_doubles_loop(doubles_of_tree(tree)).items()
    dtype = {"int64": np.int64, "float": np.float64}.get(name, object)
    for how, t in _triple_constructors(tree):
        kind, arr, scale = t.dense()
        assert arr.shape == (comb(t.n, 3),) and arr.dtype == dtype, how
        assert holds_fractions(arr) == (name == "fractions"), how
        assert t.items() == want, how
        if kind == "float":
            assert list(map(float.hex, arr.tolist())) == [float.hex(v) for _, v in want], how
        else:
            assert [unit_value(x, scale) for x in arr.tolist()] == [v for _, v in want], how


def _metric_cases():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 7, 12):
        keys = list(combinations(range(1, n + 1), 2))
        ints = rng.integers(-3, 12, len(keys)).tolist()
        exact = {k: Fraction(v, 1 + i % 3) for i, (k, v) in enumerate(zip(keys, ints))}
        yield DoubleWeights(exact)
        yield DoubleWeights({k: v * Fraction(2**61 + 1, 2**61 - 1) for k, v in exact.items()})
        yield DoubleWeights({k: v + w for (k, v), w in zip(exact.items(), _own_denominators(len(keys)))})
        yield DoubleWeights({k: float(v) + 0.1 for k, v in exact.items()})
    yield doubles_of_tree(random_tree(10, 1))


class TestMetricWarnings:
    @pytest.mark.parametrize("d", list(_metric_cases()), ids=repr)
    def test_kernel_matches_the_loop(self, d, monkeypatch):
        want = metric_warnings_loop(d)
        assert metric_warnings(d) == want
        monkeypatch.setattr(weights_mod, "BLOCK_ELEMS", 1)  # one first label per block
        assert metric_warnings(d) == want

    def test_breach_names_the_inequality_it_compares(self):
        # one breach of each row: d_ik, d_ij and d_jk too long in turn
        d = DoubleWeights({(1, 2): 1, (1, 3): 10, (2, 3): 1, (1, 4): 2, (2, 4): 20, (3, 4): 2})
        assert metric_warnings(d) == [
            "triangle violation: D(1,3) > D(1,2) + D(2,3)",
            "triangle violation: D(2,4) > D(2,1) + D(1,4)",
            "triangle violation: D(1,3) > D(1,4) + D(4,3)",
            "triangle violation: D(2,4) > D(2,3) + D(3,4)",
        ]

    @arrays
    def test_no_dict_is_built(self):
        d = parse_doubles("3\n1 2 -1\n1 3 1\n2 3 10\n")
        assert metric_warnings(d) == [
            "non-positive distance for pair (1, 2): -1",
            "triangle violation: D(2,3) > D(2,1) + D(1,3)",
        ]
        assert d._dict is None

    def test_second_scan_builds_no_index(self, monkeypatch):
        # C(12, 3) triples fit one block: the cached index of every triple
        d = doubles_of_tree(random_tree(12, 4))
        want = metric_warnings(d)

        def refuse(m, order, a, b):
            raise AssertionError("index rebuilt")

        monkeypatch.setattr(weights_mod, "_keys_from", refuse)
        assert metric_warnings(d) == want

    def test_peak_is_bounded(self):
        # C(200, 3) = 1,313,400 triples: compared at once, their indices,
        # distances and sums would take about 30 MB; in blocks, under one
        d = doubles_of_tree(random_tree(200, 1, mode="float"))
        d.dense()
        tracemalloc.start()
        try:
            assert metric_warnings(d) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < weights_mod.BLOCK_ELEMS * 8

    def test_check_on_a_long_value(self, tmp_path):
        big = "9" * 4301
        values = [big if key == (1, 2) else "5" for key in combinations(range(1, 5), 2)]
        path = tmp_path / "big.txt"
        path.write_text(_file(2, values, 4))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["check", "--order", "2", "--in", str(path)])
        assert (rc, err.getvalue()) == (0, "")
        assert json.loads(out.getvalue())["warnings"] == [
            "triangle violation: D(1,2) > D(1,3) + D(3,2)",
            "triangle violation: D(1,2) > D(1,4) + D(4,2)",
        ]


class TestReconstructRendersOnce:
    def _run(self, tmp_path, text, monkeypatch):
        counts = {"newick": 0, "dump": 0}
        newick, dump = tree_mod.to_newick, cli._dump

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(tree_mod, "to_newick", counted("newick", newick))
        monkeypatch.setattr(cli, "_dump", counted("dump", dump))
        path, out, report = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "report.json"
        path.write_text(text)
        rc = cli.main(["reconstruct", "--order", "2", "--in", str(path), "--out", str(out),
                       "--report", str(report)])
        return rc, counts, out.read_text(), json.loads(report.read_text())

    def test_accept(self, tmp_path, monkeypatch):
        text = emit_doubles(doubles_of_tree(random_tree(8, 4)))
        rc, counts, out, report = self._run(tmp_path, text, monkeypatch)
        assert rc == 0 and counts == {"newick": 1, "dump": 1}
        assert out == report["tree"]["newick"] + "\n"

    def test_reject(self, tmp_path, monkeypatch):
        text = "4\n1 2 3\n1 3 9.5\n1 4 10\n2 3 10\n2 4 11\n3 4 7\n"
        rc, counts, out, report = self._run(tmp_path, text, monkeypatch)
        assert rc == 2 and counts == {"newick": 0, "dump": 1}
        assert json.loads(out) == report and report["verdict"] == "not-realizable"
