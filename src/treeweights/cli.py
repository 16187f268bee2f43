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
from dataclasses import dataclass, field
from fractions import Fraction

from . import nj as nj_mod
from . import oracle as oracle_mod
from . import reconstruct as rec_mod
from . import tree as tree_mod
from . import weights as weights_mod
from .errors import InstanceTooSmallError, ParseError, ReconstructionError, TreeWeightsError
from .numeric import format_number, parse_number


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we reserve 2
        raise _UsageError(message)


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    input2_path: str | None = None
    output_path: str | None = None
    report_path: str | None = None
    order: int = 2
    mode: str = "rational"
    tol: object = 0
    epsilon: object = 0
    seed: int = 0
    leaves: int = 0
    weight_min: str = "0.1"
    weight_max: str = "10"
    multifurcating: bool = False
    require_positive: bool = False
    variant: str = "classic"
    sizes: tuple = field(default_factory=tuple)


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


def _cmd_gen(cfg: RunConfig) -> int:
    def bound(text):
        return parse_number(text, cfg.mode)

    tree = tree_mod.random_tree(
        cfg.leaves,
        cfg.seed,
        weight_min=bound(cfg.weight_min),
        weight_max=bound(cfg.weight_max),
        binary_only=not cfg.multifurcating,
        mode=cfg.mode,
    )
    _write(cfg.output_path, tree_mod.to_newick(tree) + "\n")
    return 0


def _cmd_weights(cfg: RunConfig) -> int:
    tree = tree_mod.canonicalize(tree_mod.parse_newick(_read(cfg.input_path), cfg.mode))
    if cfg.order == 2:
        out = weights_mod.emit_doubles(weights_mod.doubles_of_tree(tree))
    else:
        out = weights_mod.emit_triples(weights_mod.triples_of_tree(tree))
    _write(cfg.output_path, out)
    return 0


def _cmd_check(cfg: RunConfig) -> int:
    text = _read(cfg.input_path)
    payload = {"order": cfg.order, "tolerance": _jsonable(cfg.tol)}
    if cfg.order == 2:
        data = weights_mod.parse_doubles(text, cfg.mode)
        payload["n"] = data.n
        verdict = weights_mod.buneman_check(data, cfg.tol)
        payload["four_point"] = {
            "passed": verdict.passed,
            "witness": _jsonable(verdict.witness),
            "gap": _jsonable(verdict.gap),
        }
        payload["warnings"] = weights_mod.metric_warnings(data)
        if data.n <= 3:
            # any 2- or 3-label instance is realised by an edge or a star
            payload["realizable"] = True
            payload["failure"] = None
        else:
            try:
                rec_mod.reconstruct_from_doubles(data, tol=cfg.tol)
                payload["realizable"] = True
                payload["failure"] = None
            except ReconstructionError as err:
                payload["realizable"] = False
                payload["failure"] = _failure_payload(err)
    else:
        data = weights_mod.parse_triples(text, cfg.mode)
        payload["n"] = data.n
        if data.n <= 4:
            # 1 value on 3 unknowns (n=3) or an invertible 4x4 star system
            # (n=4): every small triple instance is realisable
            payload["realizable"] = True
            payload["failure"] = None
        else:
            try:
                rec_mod.reconstruct_from_triples(data, tol=cfg.tol)
                payload["realizable"] = True
                payload["failure"] = None
            except ReconstructionError as err:
                payload["realizable"] = False
                payload["failure"] = _failure_payload(err)
    _write(cfg.output_path, _dump(payload))
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


def _cmd_reconstruct(cfg: RunConfig) -> int:
    text = _read(cfg.input_path)
    if cfg.order == 2:
        data = weights_mod.parse_doubles(text, cfg.mode)
        runner = rec_mod.reconstruct_from_doubles
    else:
        data = weights_mod.parse_triples(text, cfg.mode)
        runner = rec_mod.reconstruct_from_triples
    try:
        tree, trace = runner(data, tol=cfg.tol, require_positive=cfg.require_positive)
    except ReconstructionError as err:
        report = {
            "verdict": "not-realizable",
            "failure": _failure_payload(err),
            "trace": err.trace.to_report() if err.trace is not None else None,
        }
        _write(cfg.output_path, _dump(report))
        if cfg.report_path:
            _write(cfg.report_path, _dump(report))
        return 2
    _write(cfg.output_path, tree_mod.to_newick(tree) + "\n")
    if cfg.report_path:
        _write(cfg.report_path, _dump(_reconstruct_report(tree, trace)))
    return 0


def _cmd_nj(cfg: RunConfig) -> int:
    text = _read(cfg.input_path)
    if cfg.order == 2:
        data = weights_mod.parse_doubles(text, cfg.mode)
        if cfg.variant == "pruning":
            tree = nj_mod.nj_pruning(data, cfg.epsilon)
        else:
            tree = nj_mod.nj_classic(data)
    else:
        data = weights_mod.parse_triples(text, cfg.mode)
        tree = nj_mod.nj_from_triples(data, cfg.epsilon)
    _write(cfg.output_path, tree_mod.to_newick(tree) + "\n")
    return 0


def _cmd_compare(cfg: RunConfig) -> int:
    t1 = tree_mod.parse_newick(_read(cfg.input_path), cfg.mode)
    t2 = tree_mod.parse_newick(_read(cfg.input2_path), cfg.mode)
    equal = tree_mod.tree_equal(t1, t2, cfg.tol)
    _write(cfg.output_path, _dump({"equal": equal, "tolerance": _jsonable(cfg.tol)}))
    return 0 if equal else 2


def _cmd_oracle(cfg: RunConfig) -> int:
    text = _read(cfg.input_path)
    if cfg.order == 2:
        data = weights_mod.parse_doubles(text, "rational")
    else:
        data = weights_mod.parse_triples(text, "rational")
    tree = oracle_mod.realizable_brute(data, require_positive=cfg.require_positive)
    payload = {
        "realizable": tree is not None,
        "require_positive": cfg.require_positive,
        "tree": None if tree is None else tree_mod.to_newick(tree),
    }
    _write(cfg.output_path, _dump(payload))
    return 0 if tree is not None else 2


def _cmd_bench(cfg: RunConfig) -> int:
    lines = []
    for n in cfg.sizes:
        tree = tree_mod.random_tree(n, cfg.seed, 0.5, 10.0, mode="float")
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
    _write(cfg.output_path, "".join(_dump(line) for line in lines))
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


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    return _COMMANDS[config.command](config)


# --------------------------------------------------------------------- #
# Argument parsing                                                       #
# --------------------------------------------------------------------- #


def _build_parser() -> _Parser:
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


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in (
        "input_path",
        "output_path",
        "report_path",
        "order",
        "mode",
        "seed",
        "leaves",
        "weight_min",
        "weight_max",
        "multifurcating",
        "require_positive",
        "variant",
    ):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if cfg.command == "oracle":
        cfg.mode = "rational"
    if hasattr(args, "tol"):
        cfg.tol = parse_number(args.tol, cfg.mode)
        if cfg.tol < 0:
            raise _UsageError("--tol must be non-negative")
    if hasattr(args, "epsilon"):
        cfg.epsilon = parse_number(args.epsilon, cfg.mode)
        if cfg.epsilon < 0:
            raise _UsageError("--epsilon must be non-negative")
    if cfg.command == "nj":
        if cfg.order == 3 and cfg.variant is not None:
            raise _UsageError("--variant applies to --order 2 only")
        cfg.variant = cfg.variant or "classic"
    if cfg.command == "gen" and cfg.leaves < 2:
        raise _UsageError("--leaves must be at least 2")
    if cfg.command == "compare":
        cfg.input_path = args.tree1
        cfg.input2_path = args.tree2
    if cfg.command == "bench":
        try:
            cfg.sizes = tuple(int(x) for x in args.sizes.split(",") if x)
        except ValueError:
            raise _UsageError(f"bad --sizes list {args.sizes!r}")
        if not cfg.sizes or any(s < 4 for s in cfg.sizes):
            raise _UsageError("--sizes needs integers >= 4")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return run(config)
    except _UsageError as err:
        print(f"treeweights: {err}", file=sys.stderr)
        return 1
    except (ParseError, InstanceTooSmallError) as err:
        print(f"treeweights: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"treeweights: {err}", file=sys.stderr)
        return 1
    except TreeWeightsError as err:
        print(f"treeweights: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"treeweights: {err}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
