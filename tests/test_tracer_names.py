"""Every package name the benchmark's tracer wraps is still bound, and
every work counter it computes still reads what it needs.

``perfbench/tracer.py`` looks each wrapped (namespace, attribute) pair up
when a :class:`Tracer` is built; a refactor that drops or renames one of
them fails here, in seconds, as well as in the benchmark run.  Its
counters read attributes of the wrapped calls' arguments and results (a
container's or a carried mirror's ``order``, a scan's ``pairs``), so a
few tiny commands of each kind are run through the tracer too.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from treeweights import doubles_of_tree, emit_doubles, emit_triples, random_tree, triples_of_tree

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_finds_every_wrapped_name():
    tracer = _tracer()
    patches = tracer.Tracer()._patches
    assert len(patches) == len(tracer.LAYERS) > 0
    for owner, attr, original, _ in patches:
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_commands_exit_as_untraced(tmp_path):
    tree, small = random_tree(8, 1), random_tree(5, 2)
    files = {
        "d8": emit_doubles(doubles_of_tree(tree)),
        "t8": emit_triples(triples_of_tree(tree)),
        "d5": emit_doubles(doubles_of_tree(small)),
        "t5": emit_triples(triples_of_tree(small)),
    }
    # the pairs of an 8-leaf tree with one entry raised: no tree has them
    lines = files["d8"].splitlines()
    a, b, v = lines[1].split()
    files["bad"] = "\n".join([lines[0], f"{a} {b} {Fraction(v) + 1}", *lines[2:]]) + "\n"
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    ops = [
        (["reconstruct", "--order", "2"], "d8", 0),
        (["reconstruct", "--order", "2"], "bad", 2),
        (["reconstruct", "--order", "3"], "t8", 0),
        (["check", "--order", "2"], "d8", 0),
        (["check", "--order", "3"], "t8", 0),
        (["nj", "--variant", "pruning", "--mode", "rational"], "d8", 0),
        (["nj", "--variant", "classic"], "d8", 0),
        (["nj", "--order", "3"], "t8", 0),
        (["oracle", "--order", "2"], "d5", 0),
        (["oracle", "--order", "3"], "t5", 0),
    ]
    tracer = _tracer().Tracer()
    for op, (argv, name, code) in enumerate(ops):
        argv = [*argv, "--in", str(tmp_path / name), "--out", str(tmp_path / f"out{op}")]
        assert tracer.run(op, argv) == code, argv
    counters = tracer.counters
    for counter in ("weights.parse.entries", "reconstruct.prune.entries",
                    "reconstruct.complete_pseudobells.bells", "nj.cherry_scan.pairs_found",
                    "nj.pruning.rounds", "nj.triple_rounds", "oracle.topologies"):
        assert counters[counter] > 0, counter
