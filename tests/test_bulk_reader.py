"""The bulk weight-file reader against the line parser.

A well-formed file must give the same container through either reader
(values, their types and float bits, and the dense mirror); every other
file must be left to the line parser, so that its errors and line numbers
are the only ones.
"""

import random
import struct
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeweights import (
    DoubleWeights,
    ParseError,
    TripleWeights,
    doubles_of_tree,
    emit_doubles,
    emit_triples,
    parse_doubles,
    parse_triples,
    random_tree,
    triples_of_tree,
)
from treeweights import weights as weights_mod
from treeweights.numeric import EXPONENT_LIMIT, parse_number
from treeweights.weights import _dense_from_items, _parse_weight_lines, _read_bulk
from conftest import reconstruct_keeping_mirrors

CLASSES = {2: DoubleWeights, 3: TripleWeights}
PARSE = {2: parse_doubles, 3: parse_triples}


@pytest.fixture(params=["arrays"])
def reader(request, arrays):
    """The bulk path's one chunk reader, by array steps."""
    return request.param


def _token(rng, mode):
    kind = rng.randrange(8)
    if kind == 0:
        return str(rng.randint(-10**6, 10**6))
    if kind == 1:
        return f"{rng.randint(-999, 999)}/{rng.randint(1, 97)}"
    if kind == 2:
        return f"{rng.randint(-999, 999)}.{rng.randint(0, 999):03d}"
    if kind == 3:
        return f"{rng.randint(1, 9)}e{rng.randint(-30, 30)}"
    if kind == 4:
        return rng.choice(("0", "-0", "0.0", "+3", "007"))
    if kind == 5:
        return str(rng.randint(10**17, 10**25))
    if mode == "float":
        return repr(rng.uniform(-1e3, 1e3))
    return str(rng.randint(0, 50))


def _file(rng, n, order, mode, kinds="mixed", shuffle=False):
    keys = list(combinations(range(1, n + 1), order))
    if kinds == "float":
        values = [repr(rng.uniform(-1e3, 1e3) * rng.choice((1, 1e-200, 1e200))) for _ in keys]
    elif kinds == "int":
        values = [str(rng.randint(-10**12, 10**12)) for _ in keys]
    else:
        values = [_token(rng, mode) for _ in keys]
    lines = [" ".join(map(str, k)) + " " + v for k, v in zip(keys, values)]
    if shuffle:
        rng.shuffle(lines)
    return "\n".join([str(n)] + lines) + "\n"


def _bits(x):
    return struct.pack("<d", x)


def assert_same_container(got, want):
    assert got.labels == want.labels
    got_items, want_items = got.items(), want.items()
    assert [k for k, _ in got_items] == [k for k, _ in want_items]
    for (key, a), (_, b) in zip(got_items, want_items):
        assert type(a) is type(b), key
        if isinstance(a, float):
            assert _bits(a) == _bits(b), key
        else:
            assert a == b, key
    (kg, ag, sg), (kw, aw, sw) = got.dense(), want.dense()
    assert (kg, ag.dtype, ag.shape, sg) == (kw, aw.dtype, aw.shape, sw)
    if ag.dtype == np.float64:
        assert np.array_equal(ag.view(np.int64), aw.view(np.int64))
    else:
        assert ag.tolist() == aw.tolist()
        assert list(map(type, ag.flat)) == list(map(type, aw.flat))


def _through_both(text, order, mode):
    """(bulk container, line-parser container); the bulk reader must accept."""
    bulk = _read_bulk(text, order, mode)
    assert bulk is not None
    n, kind, arr, scale = bulk
    got = CLASSES[order].from_mirror(range(1, n + 1), kind, arr, scale)
    n_line, entries = _parse_weight_lines(text, order, mode)
    assert n_line == n
    return got, CLASSES[order](entries, labels=range(1, n + 1))


# n = 90 triples are 117,480 entries; in rational mode, where both readers
# build a Fraction per entry, the largest triple file is n = 45
SIZES = {
    (2, "rational"): (3, 4, 5, 9, 23, 61, 90),
    (2, "float"): (3, 4, 5, 9, 23, 61, 90),
    (3, "rational"): (3, 4, 5, 8, 17, 33, 45),
    (3, "float"): (3, 4, 5, 8, 17, 33, 90),
}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("order", [2, 3])
def test_bulk_equals_line_reader(arrays, order, mode):
    rng = random.Random(order * 10 + (mode == "float"))
    for n in SIZES[order, mode]:
        kinds = ("mixed", "int", "float") if n < 40 else ("mixed",)
        for kind in kinds:
            for shuffle in (False, True):
                text = _file(rng, n, order, mode, kind, shuffle)
                got, want = _through_both(text, order, mode)
                assert_same_container(got, want)
                # and the public reader gives the same again
                assert_same_container(PARSE[order](text, mode), want)


def test_lazy_dict_is_the_parsers(arrays):
    text = "3\n1 2 1/3\n1 3 4\n2 3 -0\n"
    d = parse_doubles(text)
    assert d._dict is None  # nothing built yet
    assert [type(v) for _, v in d.items()] == [Fraction] * 3
    assert d.value(3, 1) == 4 and d.value(2, 3) == 0
    f = parse_doubles("3\n1 2 -1e-400\n1 3 -0\n2 3 0.5\n", "float")
    assert [_bits(v) for _, v in f.items()] == [_bits(-0.0), _bits(0.0), _bits(0.5)]
    assert f.restrict([1, 3]).items() == [((1, 3), 0.0)]
    assert f.relabel({1: 7, 2: 8, 3: 9}).value(7, 9) == 0.0


def test_scale_past_the_fraction_limit():
    """Prime denominators past 4096 bits of scale: the mirror of Fractions."""
    primes = [p for p in range(3, 4000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    n = 30
    keys = list(combinations(range(1, n + 1), 2))
    text = "\n".join([str(n)] + [f"{i} {j} 1/{p}" for (i, j), p in zip(keys, primes)]) + "\n"
    got, want = _through_both(text, 2, "rational")
    assert isinstance(got.dense()[1].flat[0], Fraction)
    assert_same_container(got, want)


def _corpus():
    good = {
        2: "4\n1 2 3\n1 3 9\n1 4 10\n2 3 10\n2 4 11\n3 4 7\n",
        3: "5\n" + "".join(f"{a} {b} {c} {a + b * c}\n" for a, b, c in combinations(range(1, 6), 3)),
    }
    texts = []
    for order, g in good.items():
        lines = g.split("\n")

        def edit(k, new, lines=lines):
            out = list(lines)
            out[k] = new
            return "\n".join(out)

        first = lines[1].split()
        texts += [
            (order, "# comment\n" + g),
            (order, edit(1, lines[1] + " # inline")),
            (order, g.replace("\n", "\r\n")),
            (order, g.replace(" ", "\t")),
            (order, edit(2, "\n" + lines[2])),
            (order, g + "\n\n"),
            (order, edit(1, lines[1].replace(" ", "\n", 1))),
            (order, edit(1, lines[1] + " 5")),
            (order, edit(2, lines[1])),
            (order, "\n".join(lines[:2] + lines[3:])),
            (order, edit(1, " ".join(["1"] * (order - 1) + ["99", first[-1]]))),
            (order, edit(1, " ".join(first[:-1][::-1] + [first[-1]]))),
            (order, edit(1, "0" + lines[1])),
            (order, edit(1, lines[1].replace(" ", "  "))),
            (order, edit(1, " " + lines[1])),
            (order, g.rstrip("\n")),
        ]
        tokens = ["1/3", "3/0", "-0", "1e-400", "-1e-400", "nan", "inf", "-inf", "1e400",
                  "1_0", "+7", f"1e{EXPONENT_LIMIT + 1}", f"2e-{EXPONENT_LIMIT + 1}",
                  "9" * 4301, "9" * 4302, "x", "0x10", "١٢", "12345678901234567890"]
        texts += [(order, edit(1, " ".join(first[:-1] + [tok]))) for tok in tokens]
        # the same token stream as the good file, but not order + 1 per line:
        # a value moved to the next line; a tab and a leading space that keep
        # `order` spaces on each line
        second = lines[2].split()
        moved = list(lines)
        moved[1:3] = [" ".join(first[:-1]), " ".join([first[-1]] + second)]
        tabbed = list(lines)
        tabbed[1:3] = [" ".join(first[:-1]) + "\t" + first[-1] + " " + second[0],
                       " " + " ".join(second[1:])]
        texts += [(order, "\n".join(moved)), (order, "\n".join(tabbed))]
        # whitespace other than one space between tokens and "\n" or "\r\n"
        # after each line
        texts += [
            (order, edit(1, lines[1] + " ")),
            (order, edit(1, "\t" + lines[1])),
            (order, edit(1, lines[1] + "\t")),
            (order, edit(2, lines[2].replace(" ", "\t", 1))),
            (order, edit(2, lines[2].replace(" ", " \t", 1))),
            (order, g.replace("\n", "\r")),
            (order, edit(1, lines[1] + "\r" + lines[2]).replace("\n" + lines[2] + "\n", "\n", 1)),
            (order, edit(2, lines[2] + "\r")),
            (order, g + "\r\n"),
            (order, g + " \n"),
            (order, g + "\n \n"),
            (order, g.replace("\n", "\f")),
            (order, edit(1, lines[1] + "\f")),
            (order, edit(2, lines[2].replace(" ", "\f", 1))),
            (order, edit(2, lines[2].replace(" ", "\x0b", 1))),
            (order, edit(2, lines[2].replace(" ", "\x1c", 1))),
            (order, "\n".join(lines[:1] + [""] + lines[1:])),
            (order, edit(0, " " + lines[0] + " ")),
            (order, edit(0, "+" + lines[0])),
            (order, edit(0, "0" + lines[0])),
        ]
        # labels other than plain digits without a leading zero
        for lab in ("+1", "-1", "01", "1_", "0_1", "1.0", "١", "１", "1e0", "x"):
            texts.append((order, edit(1, " ".join([lab] + first[1:]))))
        # empty tokens and p/q tokens with a zero, signed or long part
        texts += [
            (order, edit(1, " ".join(first[:-1]) + " ")),
            (order, edit(1, " ".join(first[:-1]) + "  " + first[-1])),
            (order, edit(1, " " + " ".join(first))),
        ]
        for tok in ("0/5", "-0/5", "5/0", "0/0", "+3/4", "-3/4", "3/-4", "3/+4", "/4", "3/",
                    "3//4", "3/4/5", "-/4", "1.5/2", "1/2e3", "1_0/3", "3/4x",
                    "1" * 18 + "/" + "7" * 18, "1" * 19 + "/3", "3/" + "7" * 19,
                    "-" + "9" * 18 + "/" + "9" * 18, "-" + "9" * 19 + "/2",
                    f"{2**53 - 1}/3", f"{2**53}/3", f"-{2**53 + 1}/3", f"3/{2**53 + 1}",
                    "1" * 19, "-" + "1" * 18, "+" + "1" * 18,
                    "1e5", "1E+05", "-1.5e-3", ".5", "5.", "1e", "e5", "1e5.5", "1.2.3",
                    "1e5e5", "--5", "+-5", "5-", "1e+", "1.e5", "Infinity", "-nan",
                    "\u20285", "5\u2028", "5\xa0", "\xa05", "\u3000" + "5", "5\x85", "\u0663/4",
                    "\u0663.5", "5\x7f"):
            texts.append((order, edit(1, " ".join(first[:-1] + [tok]))))
    # two-digit labels: a sign or a stray byte fits within the label width
    wide = "12\n" + "".join(f"{a} {b} {a * b}\n" for a, b in combinations(range(1, 13), 2))
    for lab in ("+1", "-1", "1_", "1.", "1e", "01", "1/", "١"):
        texts.append((2, wide.replace("\n1 2 ", f"\n{lab} 2 ", 1)))
        texts.append((2, wide.replace("\n1 12 ", f"\n1 {lab}2 ", 1)))
    texts += [(2, "100000000\n"), (3, "100000000\n"), (2, ""), (2, "4\n"), (2, "four\n1 2 3\n"),
              (2, "-3\n"), (3, "2\n1 2 3\n"), (2, "2\n1 2 5\n"), (3, "3\n1 2 3 5\n"),
              (2, good[2].replace(" ", " ")), (2, good[2].replace("\n", "\x0b"))]
    return texts


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_malformed_corpus_same_outcome(mode):
    _check_corpus(mode)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_malformed_corpus_on_array_steps(arrays, mode):
    """The corpus's files are short: here each is read by array steps."""
    _check_corpus(mode)


def test_malformed_corpus_without_the_int_digit_limit():
    """Python 3.10 reads an integer of any length with int(); with the
    3.11 limit lifted, a long integer token still takes parse_number and
    its exponent limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        _check_corpus("rational")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _check_corpus(mode):
    raised = 0
    for order, text in _corpus():
        try:
            n, entries = _parse_weight_lines(text, order, mode)
        except ParseError as exc:
            raised += 1
            assert _read_bulk(text, order, mode) is None, text[:80]
            with pytest.raises(ParseError) as got:
                PARSE[order](text, mode)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
            continue
        want = CLASSES[order](entries, labels=range(1, n + 1))
        assert_same_container(PARSE[order](text, mode), want)
    assert raised > 30


def test_huge_label_count_refused_at_once():
    started = time.process_time()
    assert _read_bulk("100000000\n", 2, "float") is None
    with pytest.raises(ParseError, match=r"4999999950000000 entries missing \(first: 1 2\)"):
        parse_doubles("100000000\n")
    with pytest.raises(ParseError, match=r"entries missing \(first: 1 2 4\)"):
        parse_triples("100000000\n1 2 3 1\n")
    assert time.process_time() - started < 0.5


_ALPHABET = " \n\t\r#/-+.e0123456789x"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.sampled_from(["rational", "float"]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.sampled_from(_ALPHABET)),
             min_size=1, max_size=3),
)
def test_mutated_files_never_disagree(seed, order, mode, edits):
    """Random character edits of a small well-formed file: the bulk reader
    either declines or gives exactly the line parser's container."""
    _mutated_file_agrees(seed, order, mode, edits)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.sampled_from(["rational", "float"]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.sampled_from(_ALPHABET)),
             min_size=1, max_size=3),
)
def test_mutated_files_on_array_steps(seed, order, mode, edits):
    """The same, with every chunk read by array steps."""
    few = weights_mod._FEW_BYTES
    weights_mod._FEW_BYTES = 0
    try:
        _mutated_file_agrees(seed, order, mode, edits)
    finally:
        weights_mod._FEW_BYTES = few


def _mutated(seed, order, mode, edits):
    """A small well-formed file with character *edits* (see :func:`edited`)."""
    rng = random.Random(seed)
    text = _file(rng, rng.randint(order, 7), order, mode, rng.choice(("mixed", "int", "float")))
    return edited(text, edits)


def edited(text, edits):
    """*text* with character edits: (position, insert, delete or replace,
    character)."""
    for pos, op, ch in edits:
        pos %= len(text) + 1
        if op == 0:
            text = text[:pos] + ch + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + 1 :]
        else:
            text = text[:pos] + ch + text[pos + 1 :]
    return text


def _mutated_file_agrees(seed, order, mode, edits):
    text = _mutated(seed, order, mode, edits)
    bulk = _read_bulk(text, order, mode)
    try:
        n, entries = _parse_weight_lines(text, order, mode)
    except ParseError:
        assert bulk is None
        return
    if bulk is not None:
        got = CLASSES[order].from_mirror(range(1, n + 1), *bulk[1:])
        assert_same_container(got, CLASSES[order](entries, labels=range(1, n + 1)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.sampled_from(["rational", "float"]),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.sampled_from(_ALPHABET)),
             max_size=3),
)
def test_line_parser_dict_needs_no_second_check(seed, order, mode, edits):
    """Every file the line parser reads gives, as its container, the one
    the validating constructor builds from the same dict."""
    text = _mutated(seed, order, mode, edits)
    try:
        n, entries = _parse_weight_lines(text, order, mode)
    except ParseError:
        return
    want = CLASSES[order](dict(entries), labels=range(1, n + 1))
    assert_same_container(CLASSES[order]._from_checked(range(1, n + 1), entries), want)
    assert_same_container(PARSE[order](text, mode), want)


def _file_of_length(order, mode, length):
    """A canonical file of exactly *length* characters: values written
    with leading zeros to fill it."""
    def lines(n):
        keys = combinations(range(1, n + 1), order)
        return [str(n)] + [" ".join(map(str, key)) + f" {k % 7}" for k, key in enumerate(keys)]

    n = order
    while len("\n".join(lines(n + 1))) < length:
        n += 1
    body = lines(n)
    if mode == "float":
        body[1] += ".5"
    fill = length - len("\n".join(body)) - 1
    for k in range(1, len(body)):
        pad = min(fill, 16)
        label, value = body[k].rsplit(" ", 1)
        body[k], fill = f"{label} {'0' * pad}{value}", fill - pad
    text = "\n".join(body) + "\n"
    assert len(text) == length
    return text


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("order", [2, 3])
def test_files_under_few_bytes_go_to_the_line_parser(monkeypatch, order, mode):
    """A file one character under ``_FEW_BYTES`` never reaches the chunk
    reader, and a canonical file of ``_FEW_BYTES`` never reaches the line
    parser; both give the validating constructor's container."""
    few = weights_mod._FEW_BYTES
    short, long = (_file_of_length(order, mode, length) for length in (few - 1, few))
    wants = []
    for text in (short, long):
        n, entries = _parse_weight_lines(text, order, mode)
        wants.append(CLASSES[order](entries, labels=range(1, n + 1)))

    def refuse(*args):
        raise AssertionError("refused reader called")

    with monkeypatch.context() as m:
        m.setattr(weights_mod, "_read_chunk", refuse)
        assert_same_container(PARSE[order](short, mode), wants[0])
    _no_line_parser(monkeypatch)
    assert_same_container(PARSE[order](long, mode), wants[1])


def _assert_dense_of_its_items(w):
    kind, arr, scale = _dense_from_items(w.labels, w.items(), w.order)
    got_kind, got, got_scale = w.dense()
    assert (got_kind, got.dtype, got_scale) == (kind, arr.dtype, scale)
    if arr.dtype == np.float64:
        assert np.array_equal(got.view(np.int64), arr.view(np.int64))
    else:
        assert got.tolist() == arr.tolist()


@pytest.mark.parametrize(
    "scale, dtype",
    [(1, np.int64), (Fraction(2**61 + 1, 2**61 - 1), object), (None, np.float64)],
)
def test_mirror_containers_keep_the_dict_containers_mirror(scale, dtype):
    """Parsed containers and the reduced containers of every pruning level
    (``_Mirror.container()``) hold the mirror that their values' dict gives:
    int64, ``object`` ints and float64."""
    for seed in range(3):
        d = doubles_of_tree(random_tree(14, seed, mode="float" if scale is None else "rational"))
        if scale is not None:
            d = DoubleWeights({k: v * scale for k, v in d.items()})
        mode = "float" if scale is None else "rational"
        parsed = parse_doubles(emit_doubles(d), mode)
        assert parsed.dense()[1].dtype == dtype
        _assert_dense_of_its_items(parsed)
        _, trace, mirrors = reconstruct_keeping_mirrors(parsed, 1e-9 if scale is None else 0)
        assert trace.levels
        for mirror in mirrors:
            _assert_dense_of_its_items(mirror.container())
        _assert_dense_of_its_items(trace.base_case.instance)


def _no_line_parser(monkeypatch):
    def refuse(*args):
        raise AssertionError("the line parser was called")

    monkeypatch.setattr(weights_mod, "_parse_weight_lines", refuse)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("order", [2, 3])
def test_bulk_layouts_make_no_line_parser_call(monkeypatch, reader, order, mode):
    """Canonical files, "\\r\\n" line ends, no final line end and keys in
    any order all stay on the bulk path, p/q tokens in float mode too."""
    rng = random.Random(order)
    texts = []
    for kinds in ("mixed", "int", "float"):
        text = _file(rng, 9, order, mode, kinds)
        shuffled = _file(rng, 9, order, mode, kinds, shuffle=True)
        texts += [text, text.replace("\n", "\r\n"), text.rstrip("\n"),
                  text.replace("\n", "\r\n").rstrip("\n"), shuffled, shuffled.rstrip("\n")]
    wants = [_parse_weight_lines(text, order, mode) for text in texts]
    _no_line_parser(monkeypatch)
    for text, (n, entries) in zip(texts, wants):
        assert_same_container(PARSE[order](text, mode), CLASSES[order](entries, labels=range(1, n + 1)))


def _pq_tokens():
    big = 2**53
    parts = [0, 1, 3, 7, 10**15 + 7, big - 3, big - 1, big, big + 1, 10**17 + 3, 10**18 - 1]
    tokens = []
    for p in parts:
        for q in (1, 3, 10, big - 1, big, big + 1, 10**18 - 1):
            tokens += [f"{p}/{q}", f"-{p}/{q}", f"+{p}/{q}"]
    return tokens + [str(p) for p in parts] + [f"-{p}" for p in parts]


@pytest.mark.parametrize("decimal", [False, True])
def test_float_pq_bitwise(monkeypatch, reader, decimal):
    """float p/q on the bulk path is parse_number's value bit for bit,
    parts near 2^53, both signs and zero numerators, whether the chunk is
    read on int64 (p/q and integers only) or on float64 (it holds a
    decimal)."""
    tokens = _pq_tokens()
    n = 2
    while n * (n - 1) // 2 < len(tokens) + 1:
        n += 1
    keys = list(combinations(range(1, n + 1), 2))
    values = (tokens * 2)[: len(keys)]
    if decimal:
        values[-1] = "0.5"
    text = "\n".join([str(n)] + [f"{i} {j} {v}" for (i, j), v in zip(keys, values)]) + "\n"
    _no_line_parser(monkeypatch)
    got = parse_doubles(text, "float")
    assert [_bits(v) for _, v in got.items()] == [_bits(parse_number(v, "float")) for v in values]


@pytest.mark.parametrize("chunk", [1, 9, 64])
@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("order", [2, 3])
def test_chunk_boundaries(monkeypatch, reader, chunk, order, mode):
    """Files of many chunks, keys in order or permuted across chunks, give
    the mirror of one chunk; a malformed line in a later chunk ends in the
    line parser's error and line number."""
    rng = random.Random(chunk * 10 + order)
    n = 12 if order == 2 else 8
    texts = [_file(rng, n, order, mode, kinds, shuffle)
             for kinds in ("mixed", "float") for shuffle in (False, True)]
    texts.append(texts[-1].replace("\n", "\r\n"))
    whole = [PARSE[order](text, mode) for text in texts]
    monkeypatch.setattr(weights_mod, "_READ_CHUNK", chunk)
    # and the int32 positions of long chunks
    monkeypatch.setattr(weights_mod, "_INT32_POSITIONS", 0)
    for text, want in zip(texts, whole):
        assert len(text) > 8 * chunk
        assert _read_bulk(text, order, mode) is not None
        assert_same_container(PARSE[order](text, mode), want)
    lines = texts[0].split("\n")
    late = len(lines) - 4
    for bad in (lines[1], "1 " * order + "5", " ".join(lines[late].split()[:-1] + ["x"]),
                lines[late] + " 1"):
        text = "\n".join(lines[:late] + [bad] + lines[late + 1 :])
        with pytest.raises(ParseError) as want:
            _parse_weight_lines(text, order, mode)
        assert _read_bulk(text, order, mode) is None
        with pytest.raises(ParseError) as got:
            PARSE[order](text, mode)
        assert (str(got.value), got.value.line) == (str(want.value), want.value.line)
    # a late line the line parser reads but the bulk path does not
    text = "\n".join(lines[:late] + [lines[late].replace(" ", "  ", 1)] + lines[late + 1 :])
    assert _read_bulk(text, order, mode) is None
    assert_same_container(PARSE[order](text, mode), whole[0])


def test_triple_reader_peak_is_bounded():
    """The bulk reader holds no Python object per token: on a fresh
    rational n = 120 lift file (280,840 lines, 5.3 MB) its tracemalloc peak
    stays under 55 MB, where one str per token took about 76 MB."""
    text = emit_triples(triples_of_tree(random_tree(120, 1)))
    tracemalloc.start()
    try:
        t = parse_triples(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.dense()[1].dtype == np.int64
    assert peak < 55 * 2**20, peak


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_other_tokens_stay_on_the_bulk_path(monkeypatch, reader, mode):
    """A value token of no plain shape that parse_number reads is read by
    it on the bulk path; the file does not go to the line parser."""
    tokens = [".5", "5.", "-.5e3", "1_0", "1_0/3", "3/-4", "+3/+4", "07",
              "1" * 30, "-" + "1" * 30 + "/7", "7/" + "1" * 30, "1e-400", "-1e-400", "2.5E+3"]
    keys = list(combinations(range(1, 7), 2))
    values = (tokens * 2)[: len(keys)]
    text = "\n".join(["6"] + [f"{i} {j} {v}" for (i, j), v in zip(keys, values)]) + "\n"
    n, entries = _parse_weight_lines(text, 2, mode)
    _no_line_parser(monkeypatch)
    assert_same_container(parse_doubles(text, mode), DoubleWeights(entries, labels=range(1, n + 1)))
