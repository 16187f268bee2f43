"""Mutated inputs through the command line: every call ends in a clean exit.

Small weight files (2 to 7 labels, the files the line parser reads) and
Newick trees are edited a few characters at a time and sent through the
commands that read them.  Each call must return 0, 1 or 2 without raising;
exit 1 writes exactly one ``treeweights: `` line to stderr, and exits 0
and 2 write nothing there.
"""

import contextlib
import io
import random
import sys
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeweights import (
    doubles_of_tree,
    emit_doubles,
    emit_triples,
    random_tree,
    to_newick,
    triples_of_tree,
)
from treeweights.cli import main
from test_bulk_reader import _ALPHABET as _WEIGHT_ALPHABET, edited

_NEWICK_ALPHABET = "(),:;/-.e0123456789 x\n"


def _edits(alphabet):
    return st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.sampled_from(alphabet)),
                    max_size=3)


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    err = err.getvalue()
    if code == 1:
        assert err.startswith("treeweights: ") and err.endswith("\n"), err
        assert err.count("\n") == 1, err
    else:
        assert err == "", err
    return code


def _weight_file(rng, n, order, mode):
    """A file of *n* labels: a tree's weights, or random values."""
    if n >= order and rng.random() < 0.5:
        t = random_tree(n, rng.randrange(10**6), binary_only=rng.random() < 0.5, mode=mode)
        return emit_doubles(doubles_of_tree(t)) if order == 2 else emit_triples(triples_of_tree(t))
    keys = list(combinations(range(1, n + 1), order))
    values = [rng.choice((str(rng.randint(-9, 30)), f"{rng.randint(0, 99)}/{rng.randint(1, 9)}",
                          f"{rng.uniform(0, 20):.3f}")) for _ in keys]
    return f"{n}\n" + "".join(" ".join(map(str, k)) + f" {v}\n" for k, v in zip(keys, values))


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6), st.integers(2, 7), st.sampled_from([2, 3]),
       st.sampled_from(["rational", "float"]), _edits(_WEIGHT_ALPHABET))
def test_mutated_weight_files_exit_cleanly(seed, n, order, mode, edits):
    rng = random.Random(seed)
    text = edited(_weight_file(rng, n, order, mode), edits)
    common = ["--order", str(order)]
    _run(["check", *common, "--mode", mode], text)
    _run(["reconstruct", *common, "--mode", mode], text)
    variant = ["--variant", rng.choice(["classic", "pruning"])] if order == 2 else []
    _run(["nj", *common, "--mode", mode, *variant], text)
    _run(["oracle", *common], text)


@pytest.fixture(scope="module")
def newick_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("newick")


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6), st.integers(2, 7), st.sampled_from(["rational", "float"]),
       _edits(_NEWICK_ALPHABET))
def test_mutated_newick_exits_cleanly(newick_dir, seed, n, mode, edits):
    rng = random.Random(seed)
    original = to_newick(random_tree(n, seed, binary_only=rng.random() < 0.5, mode=mode)) + "\n"
    text = edited(original, edits)
    for order in ("2", "3"):
        _run(["weights", "--order", order, "--mode", mode], text)
    (newick_dir / "a.nwk").write_text(text)
    (newick_dir / "b.nwk").write_text(original)
    _run(["compare", str(newick_dir / "a.nwk"), str(newick_dir / "b.nwk"), "--mode", mode])
    _run(["compare", str(newick_dir / "b.nwk"), str(newick_dir / "a.nwk"), "--mode", mode])
