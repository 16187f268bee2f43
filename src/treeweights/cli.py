"""Batch command line: generation, weight files, checking, reconstruction,
neighbor joining, tree comparison, the brute-force oracle and a scan
benchmark, composable through stdin/stdout pipes.

Exit codes: 0 success / realizable / equal, 2 not realizable / not equal,
1 usage or input errors.  Stdout is byte-identical across runs for a
given configuration; timings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache

from . import nj as nj_mod
from . import oracle as oracle_mod
from . import reconstruct as rec_mod
from . import tree as tree_mod
from . import weights as weights_mod
from .errors import ReconstructionError, TreeWeightsError
from .numeric import format_number, parse_number


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we reserve 2
        raise _UsageError(message)


def _read(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    """Write *text*, a string or an iterable of string chunks, to *path*
    (stdout for None or "-")."""
    chunks = (text,) if isinstance(text, str) else text
    if path in (None, "-"):
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _read_weights(args):
    """The ``--in`` weight file, parsed as pairs or triples by ``--order``."""
    parse = weights_mod.parse_doubles if args.order == 2 else weights_mod.parse_triples
    return parse(_read(args.input_path), args.mode)


def _reconstructor(order):
    if order == 2:
        return rec_mod.reconstruct_from_doubles
    return rec_mod.reconstruct_from_triples


# --------------------------------------------------------------------- #
# JSON output                                                            #
# --------------------------------------------------------------------- #

_ascii = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x):
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _fraction_text(x):
    return _ascii(format_number(x))


# The text of a scalar, by its exact type.
_SCALARS = {
    str: _ascii,
    int: int.__repr__,
    float: _float_text,
    Fraction: _fraction_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, pad):
    """The JSON text of *value*, nested at line prefix *pad* (a newline and
    its indent).

    Writes what ``json.dumps(obj, sort_keys=True, indent=2)`` writes for
    *value* with each Fraction replaced by its :func:`format_number` string
    and each dict key by ``str(key)``.  Scalars are dispatched on their
    exact type, and a list whose items share one scalar type is joined in
    one call; subclasses (namedtuples, ``OrderedDict``, ``np.float64``) are
    written as their base type, and any other type raises TypeError.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else [_json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        if set(map(type, value)) != {str}:
            value = {str(k): v for k, v in value.items()}
        items = []
        for k, v in sorted(value.items()):
            scalar = _SCALARS.get(type(v))
            items.append(f"{_ascii(k)}: {scalar(v) if scalar else _json_text(v, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if isinstance(value, Fraction):  # after the containers: an ABC check is slow
        return _fraction_text(value)
    if isinstance(value, str):
        return _ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump(payload) -> str:
    """The JSON document of *payload*: sorted keys, two-space indent, ASCII
    escapes, Fractions as ``"p/q"`` strings and floats in shortest repr."""
    return _json_text(payload, "\n") + "\n"


def _failure_payload(err: ReconstructionError):
    return {
        "kind": err.kind,
        "level": err.level,
        "witness": err.witness,
        "message": str(err),
    }


# --------------------------------------------------------------------- #
# Subcommands                                                            #
# --------------------------------------------------------------------- #


def _cmd_gen(args) -> int:
    tree = tree_mod.random_tree(
        args.leaves,
        args.seed,
        weight_min=args.weight_min,
        weight_max=args.weight_max,
        binary_only=not args.multifurcating,
        mode=args.mode,
    )
    _write(args.output_path, tree_mod.to_newick(tree) + "\n")
    return 0


def _cmd_weights(args) -> int:
    tree = tree_mod.canonicalize(tree_mod.parse_newick(_read(args.input_path), args.mode))
    if args.order == 2:
        data = weights_mod.doubles_of_tree(tree)
    else:
        data = weights_mod.triples_of_tree(tree)
    _write(args.output_path, weights_mod.emit_chunks(data))
    return 0


def _four_point_proven(args, tree) -> bool:
    """Whether an accepted reconstruction proves the four-point test passes.

    An exact accept at tol 0 reproduces every value, so each quadruple's
    three pair sums are those of *tree*: two of them exceed the third by
    twice the length of the quartet's inner path, and they are the two
    largest, and equal, when no internal edge is negative.
    """
    if args.mode != "rational" or args.tol != 0:
        return False
    leaves = set(tree.leaves)
    return all(w >= 0 for u, v, w in tree.edges if u not in leaves and v not in leaves)


def _cmd_check(args) -> int:
    data = _read_weights(args)
    payload = {"order": args.order, "tolerance": args.tol, "n": data.n}
    payload["realizable"], payload["failure"] = True, None
    proven = False
    # every instance on at most order + 1 labels is realisable: a pair set
    # on 2 or 3 labels by an edge or a star, a triple set on 3 labels (1
    # value on 3 unknowns) or 4 (an invertible 4x4 star system)
    if data.n > args.order + 1:
        try:
            tree, _ = _reconstructor(args.order)(data, tol=args.tol)
        except ReconstructionError as err:
            payload["realizable"], payload["failure"] = False, _failure_payload(err)
        else:
            proven = _four_point_proven(args, tree)
    if args.order == 2:
        if proven:
            verdict = weights_mod.BunemanVerdict(True, None, 0)
        else:
            verdict = weights_mod.buneman_check(data, args.tol)
        payload["four_point"] = {
            "passed": verdict.passed,
            "witness": verdict.witness,
            "gap": verdict.gap,
        }
        payload["warnings"] = weights_mod.metric_warnings(data)
    _write(args.output_path, _dump(payload))
    return 0 if payload["realizable"] else 2


def _reconstruct_report(tree, newick, trace):
    return {
        "verdict": "realizable",
        "failure": None,
        "trace": trace.to_report(),
        "positivity": trace.all_twigs_positive,
        "tree": {
            "newick": newick,
            "json": tree_mod.to_json_dict(tree),
        },
    }


def _cmd_reconstruct(args) -> int:
    data = _read_weights(args)
    try:
        tree, trace = _reconstructor(args.order)(
            data, tol=args.tol, require_positive=args.require_positive
        )
    except ReconstructionError as err:
        report = {
            "verdict": "not-realizable",
            "failure": _failure_payload(err),
            "trace": err.trace.to_report() if err.trace is not None else None,
        }
        text = _dump(report)
        _write(args.output_path, text)
        if args.report_path:
            _write(args.report_path, text)
        return 2
    newick = tree_mod.to_newick(tree)
    _write(args.output_path, newick + "\n")
    if args.report_path:
        _write(args.report_path, _dump(_reconstruct_report(tree, newick, trace)))
    return 0


def _cmd_nj(args) -> int:
    data = _read_weights(args)
    if args.order == 3:
        tree = nj_mod.nj_from_triples(data, args.epsilon)
    elif args.variant == "pruning":
        tree = nj_mod.nj_pruning(data, args.epsilon)
    else:
        tree = nj_mod.nj_classic(data)
    _write(args.output_path, tree_mod.to_newick(tree) + "\n")
    return 0


def _cmd_compare(args) -> int:
    t1 = tree_mod.parse_newick(_read(args.tree1), args.mode)
    t2 = tree_mod.parse_newick(_read(args.tree2), args.mode)
    equal = tree_mod.tree_equal(t1, t2, args.tol)
    _write(args.output_path, _dump({"equal": equal, "tolerance": args.tol}))
    return 0 if equal else 2


def _cmd_oracle(args) -> int:
    tree = oracle_mod.realizable_brute(
        _read_weights(args), require_positive=args.require_positive
    )
    payload = {
        "realizable": tree is not None,
        "require_positive": args.require_positive,
        "tree": None if tree is None else tree_mod.to_newick(tree),
    }
    _write(args.output_path, _dump(payload))
    return 0 if tree is not None else 2


def _cmd_bench(args) -> int:
    lines = []
    for n in args.sizes:
        tree = tree_mod.random_tree(n, args.seed, 0.5, 10.0, mode="float")
        data = weights_mod.doubles_of_tree(tree)
        started = time.perf_counter()
        scan = nj_mod.cherry_scan(data, 0.0)
        elapsed = time.perf_counter() - started
        print(f"bench n={n}: {elapsed:.4f}s", file=sys.stderr)
        lines.append(
            {
                "n": n,
                "entries_examined": scan.entries_examined,
                "pairs_found": len(scan.pairs),
            }
        )
    _write(args.output_path, "".join(_dump(line) for line in lines))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "weights": _cmd_weights,
    "check": _cmd_check,
    "reconstruct": _cmd_reconstruct,
    "nj": _cmd_nj,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


# --------------------------------------------------------------------- #
# Argument parsing                                                       #
# --------------------------------------------------------------------- #


@cache
def _build_parser() -> _Parser:
    """The command line parser, built once per process: each parse_args
    call fills a fresh namespace from the declared defaults."""
    parser = _Parser(prog="treeweights", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mode_default):
        p.add_argument("--mode", choices=("rational", "float"), default=mode_default)
        p.add_argument("--out", dest="output_path", default="-")

    p = sub.add_parser("gen", help="generate a random weighted tree (Newick)")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-min", default="0.1")
    p.add_argument("--weight-max", default="10")
    p.add_argument("--multifurcating", action="store_true")
    add_common(p, "rational")

    p = sub.add_parser("weights", help="tree (Newick) -> weights file")
    p.add_argument("--order", type=int, choices=(2, 3), required=True)
    p.add_argument("--in", dest="input_path", default="-")
    add_common(p, "rational")

    p = sub.add_parser("check", help="weights file -> realizability verdict JSON")
    p.add_argument("--order", type=int, choices=(2, 3), required=True)
    p.add_argument("--in", dest="input_path", default="-")
    p.add_argument("--tol", default="0")
    add_common(p, "rational")

    p = sub.add_parser("reconstruct", help="weights file -> Newick + trace JSON")
    p.add_argument("--order", type=int, choices=(2, 3), required=True)
    p.add_argument("--in", dest="input_path", default="-")
    p.add_argument("--tol", default="0")
    p.add_argument("--require-positive", action="store_true")
    p.add_argument("--report", dest="report_path", default=None)
    add_common(p, "rational")

    p = sub.add_parser("nj", help="weights file -> neighbor-joining Newick")
    p.add_argument("--order", type=int, choices=(2, 3), default=2)
    p.add_argument("--variant", choices=("classic", "pruning"), default=None)
    p.add_argument("--epsilon", default="0")
    p.add_argument("--in", dest="input_path", default="-")
    add_common(p, "float")

    p = sub.add_parser("compare", help="two Newick trees -> equality verdict")
    p.add_argument("tree1")
    p.add_argument("tree2")
    p.add_argument("--tol", default="0")
    add_common(p, "rational")

    p = sub.add_parser("oracle", help="small instance -> brute-force verdict")
    p.add_argument("--order", type=int, choices=(2, 3), required=True)
    p.add_argument("--in", dest="input_path", default="-")
    p.add_argument("--require-positive", action="store_true")
    p.add_argument("--out", dest="output_path", default="-")

    p = sub.add_parser("bench", help="cherry-scan telemetry at several sizes")
    p.add_argument("--sizes", default="100,200,400,800")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="output_path", default="-")
    return parser


def _number(args, name):
    """Convert option *name* in place to a number of the command's mode and
    return it; a refused token is reported under the option's name."""
    try:
        value = parse_number(getattr(args, name), args.mode)
    except ValueError as err:
        raise _UsageError(f"--{name.replace('_', '-')}: {err}") from None
    setattr(args, name, value)
    return value


def _normalise(args):
    """Check and convert the parsed options in place, for the rules argparse
    does not express: tolerances are numbers of the command's mode and not
    negative, the oracle is exact, and the rest is per command."""
    if args.command == "oracle":
        args.mode = "rational"
    for name in ("tol", "epsilon"):
        if hasattr(args, name) and _number(args, name) < 0:
            raise _UsageError(f"--{name} must be non-negative")
    if args.command == "nj" and args.order == 3 and args.variant is not None:
        raise _UsageError("--variant applies to --order 2 only")
    if args.command == "gen":
        if args.leaves < 2:
            raise _UsageError("--leaves must be at least 2")
        if _number(args, "weight_min") > _number(args, "weight_max"):
            raise _UsageError("--weight-min must be <= --weight-max")
    if args.command == "bench":
        try:
            args.sizes = tuple(int(x) for x in args.sizes.split(",") if x)
        except ValueError:
            raise _UsageError(f"bad --sizes list {args.sizes!r}")
        if not args.sizes or any(s < 4 for s in args.sizes):
            raise _UsageError("--sizes needs integers >= 4")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _normalise(args)
        return _COMMANDS[args.command](args)
    except (_UsageError, OSError, TreeWeightsError, ValueError) as err:
        print(f"treeweights: {err}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
