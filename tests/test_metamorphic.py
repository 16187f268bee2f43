"""Metamorphic relations of the exact decision, at every n.

The oracle referees n <= 8 only.  Exact tol-0 verdicts also obey relations
that need no oracle: relabelling the leaves, scaling every value by a
positive rational, lifting pairs to their triples and adding one constant
to every value that holds a given label each give the same verdict, and an
accepted instance the correspondingly changed tree.  An accepted instance
restricted to fewer labels is accepted too.

Instances are rational pair or triple sets of ``random_tree``s on 5 to 16
labels, binary and multifurcating, with weights in [-3, 10]; in half of
them one or two values are moved by +-1, +-1/2 or +-1/3, so both verdicts
occur.  The relations also run on every mirror kind of
``conftest.cross_path_cases``, and relabelling through the command line.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    ReconstructionError,
    WeightedTree,
    doubles_of_tree,
    emit_doubles,
    emit_triples,
    parse_newick,
    random_tree,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    to_newick,
    tree_equal,
    triples_from_doubles,
    triples_of_tree,
)
from treeweights.cli import main
from conftest import CROSS_PATH_SEEDS, cross_path_cases

_STEPS = [Fraction(s, q) for q in (1, 2, 3) for s in (1, -1)]
# 3**40 / 7 takes the exact mirror past int64 to Python ints
_SCALES = [Fraction(1, 3), Fraction(2), Fraction(7, 5), Fraction(3**40, 7)]


def _instance(seed, n, order, binary, moves):
    rng = random.Random(seed)
    t = random_tree(n, seed, weight_min=-3, weight_max=10, binary_only=binary)
    w = doubles_of_tree(t) if order == 2 else triples_of_tree(t)
    values = dict(w.items())
    for key in rng.sample(sorted(values), moves):
        values[key] += rng.choice(_STEPS)
    return type(w)(values), rng


def _decide(w, tol=0):
    """The tree of an accepted instance, or None for a rejected one."""
    decide = reconstruct_from_doubles if w.order == 2 else reconstruct_from_triples
    try:
        return decide(w, tol)[0]
    except ReconstructionError:
        return None


def _same_verdict(got, want, slack=0, case=None):
    """Both rejected, or both accepted with equal trees; with a *slack*
    (float data) trees whose path sums agree within it, since rounding may
    leave a zero inner edge at 1e-16 in one tree and contract it in the
    other."""
    assert (got is None) == (want is None), case
    if want is None:
        return
    if not slack:
        assert tree_equal(got, want, 0), case
        return
    a, b = doubles_of_tree(got), doubles_of_tree(want)
    assert a.labels == b.labels, case
    assert all(abs(x - b.value(*k)) <= slack for k, x in a.items()), case


_seeds, _sizes, _moves = st.integers(0, 10**6), st.integers(5, 16), st.sampled_from([0, 0, 1, 2])
_cases = given(_seeds, _sizes, st.sampled_from([2, 3]), st.booleans(), _moves)
_bounded = settings(max_examples=300, deadline=None)


@_cases
@_bounded
def test_relabelling(seed, n, order, binary, moves):
    w, rng = _instance(seed, n, order, binary, moves)
    image = list(w.labels)
    rng.shuffle(image)
    perm = dict(zip(w.labels, image))
    tree = _decide(w)
    if tree is not None:
        # inner nodes are not labels, so the permutation leaves them alone
        tree = WeightedTree([(perm.get(u, u), perm.get(v, v), x) for u, v, x in tree.edges])
    _same_verdict(_decide(w.relabel(perm)), tree)


@_cases
@_bounded
def test_scaling(seed, n, order, binary, moves):
    w, rng = _instance(seed, n, order, binary, moves)
    c = rng.choice(_SCALES)
    tree = _decide(w)
    if tree is not None:
        tree = WeightedTree([(u, v, c * x) for u, v, x in tree.edges])
    _same_verdict(_decide(type(w)({key: c * v for key, v in w.items()})), tree)


@given(_seeds, _sizes, st.booleans(), _moves)
@_bounded
def test_lift(seed, n, binary, moves):
    d, _ = _instance(seed, n, 2, binary, moves)
    _same_verdict(_decide(triples_from_doubles(d)), _decide(d))


@_cases
@_bounded
def test_row_shift(seed, n, order, binary, moves):
    # every value that holds label i moves by c, as i's pendant edge does
    w, rng = _instance(seed, n, order, binary, moves)
    i, c = rng.choice(w.labels), rng.choice(_STEPS)
    tree = _decide(w)
    if tree is not None:
        tree = WeightedTree([(u, v, x + c if i in (u, v) else x) for u, v, x in tree.edges])
    shifted = type(w)({key: v + c if i in key else v for key, v in w.items()})
    _same_verdict(_decide(shifted), tree)


@_cases
@_bounded
def test_restriction(seed, n, order, binary, moves):
    w, rng = _instance(seed, n, order, binary, moves)
    if _decide(w) is not None:
        labels = rng.sample(w.labels, rng.randint(2 if order == 2 else 5, n))
        assert _decide(w.restrict(labels)) is not None, sorted(labels)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("seed", CROSS_PATH_SEEDS)
def test_relations_on_every_mirror_kind(seed, order):
    """Scaling, the row shift, relabelling and restriction on each mirror
    kind of ``conftest.cross_path_cases``: int64, wide-scale, ``object``
    ints and Fractions past the 4096-bit scale, each a tree, bumped and
    jittered, at the case's tol.

    Scaling (with the tol) and the row shift hold at any tol.  Relabelling
    and restriction are run at tol 0 only: above it the twig rule's third
    label and the prune's representatives follow the label order, and a
    restriction need not keep an instance within tol of a tree.  The float
    tree and bumped cases run too: their spreads are within rounding of 0
    or at least 0.3, far either side of tol 1e-9, so the verdicts are the
    exact ones and the trees agree within 1e-6.  Float jitter, whose
    spreads reach tol, is left out."""
    for name, w, tol in cross_path_cases(seed, order):
        exact = not name.startswith("float64")
        if not exact and name.endswith("jitter"):
            continue
        rng = random.Random(f"{seed} {order} {name}")
        slack = 0 if exact else 1e-6
        tree = _decide(w, tol)
        case = (name, tol)

        c = rng.choice(_SCALES)
        want = tree and WeightedTree([(u, v, c * x) for u, v, x in tree.edges])
        got = _decide(type(w)({key: c * v for key, v in w.items()}), c * tol)
        _same_verdict(got, want, c * slack, (case, "scaled by", c))

        i, c = rng.choice(w.labels), rng.choice(_STEPS)
        want = tree and WeightedTree(
            [(u, v, x + c if i in (u, v) else x) for u, v, x in tree.edges]
        )
        got = _decide(type(w)({key: v + c if i in key else v for key, v in w.items()}), tol)
        _same_verdict(got, want, slack, (case, "shifted at", i, "by", c))

        if exact and tol != 0:
            continue
        image = list(w.labels)
        rng.shuffle(image)
        perm = dict(zip(w.labels, image))
        want = tree and WeightedTree(
            [(perm.get(u, u), perm.get(v, v), x) for u, v, x in tree.edges]
        )
        _same_verdict(_decide(w.relabel(perm), tol), want, slack, (case, perm))
        if tree is not None:
            labels = rng.sample(w.labels, rng.randint(2 if order == 2 else 5, w.n))
            assert _decide(w.restrict(labels), tol) is not None, (case, sorted(labels))


def _cli(argv, stdin=""):
    """(exit code, stdout) of one in-process ``treeweights`` call."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def newick_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("relabelled")


@given(_seeds, st.integers(5, 12), st.sampled_from([2, 3]), st.booleans(), _moves)
@settings(max_examples=100, deadline=None)
def test_relabelling_through_the_cli(newick_dir, seed, n, order, binary, moves):
    # a permuted weight file: the same check and reconstruct exit codes and
    # verdicts, and a rebuilt tree equal to the relabelled one at tol 0
    w, rng = _instance(seed, n, order, binary, moves)
    image = list(w.labels)
    rng.shuffle(image)
    perm = dict(zip(w.labels, image))
    emit = emit_doubles if order == 2 else emit_triples
    files = [emit(w), emit(w.relabel(perm))]
    common = ["--order", str(order), "--mode", "rational"]
    checks = [_cli(["check", *common], text) for text in files]
    assert checks[0][0] == checks[1][0]
    verdicts = [json.loads(out) for _, out in checks]
    assert verdicts[0]["realizable"] == verdicts[1]["realizable"]
    if order == 2:
        assert verdicts[0]["four_point"]["passed"] == verdicts[1]["four_point"]["passed"]
    built = [_cli(["reconstruct", *common], text) for text in files]
    assert built[0][0] == built[1][0] == checks[0][0]
    if built[0][0] != 0:
        return
    tree = parse_newick(built[0][1], "rational")
    moved = WeightedTree([(perm.get(u, u), perm.get(v, v), x) for u, v, x in tree.edges])
    (newick_dir / "a.nwk").write_text(to_newick(moved) + "\n")
    (newick_dir / "b.nwk").write_text(built[1][1])
    paths = [str(newick_dir / "a.nwk"), str(newick_dir / "b.nwk")]
    assert _cli(["compare", *paths, "--tol", "0", "--mode", "rational"])[0] == 0
