"""Labels and label counts are read as ASCII digits, as the package writes
them.

``int()`` also reads "1_0" as 10, "+3" as 3 and other scripts' digits
("٣", "３") as theirs.  The Newick reader, the weight-file line parser and
the bulk reader's header refuse these spellings, with the messages they
give any other bad label, on files below and above ``_FEW_BYTES``, through
the library and the command line.  Leading zeros and a leading "-" (a
label or count that is then out of range) read as before.
"""

import io
import re
import sys

import pytest

from treeweights import (
    ParseError,
    doubles_of_tree,
    emit_doubles,
    emit_triples,
    parse_doubles,
    parse_newick,
    parse_triples,
    random_tree,
    to_newick,
    triples_of_tree,
)
from treeweights import weights as weights_mod
from treeweights.cli import main

_KINDS = ["underscore", "plus", "arabic-indic", "fullwidth"]


def _spell(label, kind):
    """*label* (ASCII digits) in a spelling that int() reads as the same
    number and that no writer of the package produces."""
    if kind == "underscore":
        return label[:-1] + "_" + label[-1] if len(label) > 1 else "0_" + label
    if kind == "plus":
        return "+" + label
    base = 0x0660 if kind == "arabic-indic" else 0xFF10
    return "".join(chr(base + int(c)) for c in label)


def _cli(monkeypatch, capsys, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refused(monkeypatch, capsys, argv, text, message):
    code, out, err = _cli(monkeypatch, capsys, argv, text)
    assert (code, out) == (1, "")
    assert err == f"treeweights: {message}\n"


def _newick(n, label="10"):
    text = to_newick(random_tree(n, 3))
    return text.replace("(10:", f"({label}:").replace(",10:", f",{label}:")


@pytest.mark.parametrize("n", [12, 80])
@pytest.mark.parametrize("kind", _KINDS)
def test_newick_leaf_names(monkeypatch, capsys, n, kind):
    spelling = _spell("10", kind)
    text = _newick(n, spelling)
    assert spelling in text and (len(text) < weights_mod._FEW_BYTES) == (n == 12)
    assert int(spelling) == 10
    message = f"leaf name {spelling!r} is not an integer label"
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        parse_newick(text, "rational")
    _refused(monkeypatch, capsys, ["weights", "--order", "2"], text, message)


@pytest.mark.parametrize("n", [12, 80])
def test_newick_leading_zeros_and_signs_read_as_before(n):
    want = parse_newick(_newick(n), "rational").edges
    assert parse_newick(_newick(n, "010"), "rational").edges == want
    with pytest.raises(ParseError, match="^leaf label -10 must be positive$"):
        parse_newick(_newick(n, "-10"), "rational")


def _weight_file(n, order):
    tree = random_tree(n, 5)
    if order == 2:
        return emit_doubles(doubles_of_tree(tree))
    return emit_triples(triples_of_tree(tree))


_PARSE = {2: parse_doubles, 3: parse_triples}
# n = 6 writes a file under _FEW_BYTES in both orders, n = 12 one above
_SIZES = [6, 12]


def _assert_refused(monkeypatch, capsys, order, text, message):
    for mode in ("rational", "float"):
        with pytest.raises(ParseError) as got:
            _PARSE[order](text, mode)
        assert str(got.value) == message
    _refused(monkeypatch, capsys, ["check", "--order", str(order)], text, message)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("kind", _KINDS)
def test_weight_file_labels(monkeypatch, capsys, order, n, kind):
    text = _weight_file(n, order)
    assert (len(text) < weights_mod._FEW_BYTES) == (n == 6)
    # the first line that holds label n
    lines = text.split("\n")
    at = next(k for k, line in enumerate(lines[1:], 1) if str(n) in line.split()[:order])
    tokens = lines[at].split()
    tokens[tokens.index(str(n))] = _spell(str(n), kind)
    lines[at] = " ".join(tokens)
    message = f"line {at + 1}: bad label in {tokens[:order]}"
    _assert_refused(monkeypatch, capsys, order, "\n".join(lines), message)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("kind", _KINDS)
def test_weight_file_headers(monkeypatch, capsys, order, n, kind):
    head = _spell(str(n), kind)
    text = head + "\n" + _weight_file(n, order).split("\n", 1)[1]
    message = f"line 1: expected the label count, got {head!r}"
    _assert_refused(monkeypatch, capsys, order, text, message)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("n", _SIZES)
def test_weight_file_leading_zeros_read_as_before(order, n):
    text = _weight_file(n, order)
    want = dict(_PARSE[order](text).items())
    assert dict(_PARSE[order]("0" + text).items()) == want
    padded = "\n".join(
        " ".join(["0" + t for t in line.split()[:order]] + line.split()[order:])
        for line in text.split("\n")[1:] if line
    )
    assert dict(_PARSE[order](f"{n}\n{padded}\n").items()) == want


def test_a_pair_file_headed_4_0():
    """A pair file of 40 labels headed "4_0" read as 40 labels; it is
    refused, on the bulk reader's size."""
    bad = "4_0" + _weight_file(40, 2)[2:]
    assert len(bad) > weights_mod._FEW_BYTES
    with pytest.raises(ParseError, match="^line 1: expected the label count, got '4_0'$"):
        parse_doubles(bad)
