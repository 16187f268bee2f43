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
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_weights(args):
    """The ``--in`` weight file, parsed as pairs or triples by ``--order``."""
    parse = weights_mod.parse_doubles if args.order == 2 else weights_mod.parse_triples
    return parse(_read(args.input_path), args.mode)


def _reconstructor(order):
    if order == 2:
        return rec_mod.reconstruct_from_doubles
    return rec_mod.reconstruct_from_triples


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_number(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _dump(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _failure_payload(err: ReconstructionError):
    return {
        "kind": err.kind,
        "level": err.level,
        "witness": _jsonable(err.witness),
        "message": str(err),
    }


# --------------------------------------------------------------------- #
# Subcommands                                                            #
# --------------------------------------------------------------------- #


def _cmd_gen(args) -> int:
    tree = tree_mod.random_tree(
        args.leaves,
        args.seed,
        weight_min=parse_number(args.weight_min, args.mode),
        weight_max=parse_number(args.weight_max, args.mode),
        binary_only=not args.multifurcating,
        mode=args.mode,
    )
    _write(args.output_path, tree_mod.to_newick(tree) + "\n")
    return 0


def _cmd_weights(args) -> int:
    tree = tree_mod.canonicalize(tree_mod.parse_newick(_read(args.input_path), args.mode))
    if args.order == 2:
        out = weights_mod.emit_doubles(weights_mod.doubles_of_tree(tree))
    else:
        out = weights_mod.emit_triples(weights_mod.triples_of_tree(tree))
    _write(args.output_path, out)
    return 0


def _cmd_check(args) -> int:
    data = _read_weights(args)
    payload = {"order": args.order, "tolerance": _jsonable(args.tol), "n": data.n}
    if args.order == 2:
        verdict = weights_mod.buneman_check(data, args.tol)
        payload["four_point"] = {
            "passed": verdict.passed,
            "witness": _jsonable(verdict.witness),
            "gap": _jsonable(verdict.gap),
        }
        payload["warnings"] = weights_mod.metric_warnings(data)
    payload["realizable"], payload["failure"] = True, None
    # every instance on at most order + 1 labels is realisable: a pair set
    # on 2 or 3 labels by an edge or a star, a triple set on 3 labels (1
    # value on 3 unknowns) or 4 (an invertible 4x4 star system)
    if data.n > args.order + 1:
        try:
            _reconstructor(args.order)(data, tol=args.tol)
        except ReconstructionError as err:
            payload["realizable"], payload["failure"] = False, _failure_payload(err)
    _write(args.output_path, _dump(payload))
    return 0 if payload["realizable"] else 2


def _reconstruct_report(tree, trace):
    return {
        "verdict": "realizable",
        "failure": None,
        "trace": trace.to_report(),
        "positivity": trace.all_twigs_positive,
        "tree": {
            "newick": tree_mod.to_newick(tree),
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
        _write(args.output_path, _dump(report))
        if args.report_path:
            _write(args.report_path, _dump(report))
        return 2
    _write(args.output_path, tree_mod.to_newick(tree) + "\n")
    if args.report_path:
        _write(args.report_path, _dump(_reconstruct_report(tree, trace)))
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
    _write(args.output_path, _dump({"equal": equal, "tolerance": _jsonable(args.tol)}))
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


def _normalise(args):
    """Check and convert the parsed options in place, for the rules argparse
    does not express: tolerances are numbers of the command's mode and not
    negative, the oracle is exact, and the rest is per command."""
    if args.command == "oracle":
        args.mode = "rational"
    for name in ("tol", "epsilon"):
        if hasattr(args, name):
            value = parse_number(getattr(args, name), args.mode)
            if value < 0:
                raise _UsageError(f"--{name} must be non-negative")
            setattr(args, name, value)
    if args.command == "nj" and args.order == 3 and args.variant is not None:
        raise _UsageError("--variant applies to --order 2 only")
    if args.command == "gen" and args.leaves < 2:
        raise _UsageError("--leaves must be at least 2")
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
