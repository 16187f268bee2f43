"""The four workloads: seeded inputs, answer key and operation schedule.

A workload is a fixed cycle of operations.  Each operation is one
``treeweights`` command line that reads an input file and writes an output
file; the runner replays the cycle in a closed loop with one caller.  Why
each workload exists is in BENCHMARK.json; what it runs and skips, and how
it is sized, is in layers.json.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import gen

FLOAT_NOISE = 1e-7  # |noise| on float pair values, far below FLOAT_TOL
FLOAT_TOL = 1e-4  # reconstruct --tol on pairwise-float
FLOAT_EPS = 1e-5  # nj --epsilon on pairwise-float


@dataclass
class Instance:
    """One input file and its answer key."""

    name: str
    n: int
    order: int
    realizable: bool
    values: dict  # what the file holds
    tree: object = None  # key tree (gen.Tree) of accepts and additive NJ input
    d: dict | None = None  # its exact path sums
    splits: set | None = None
    d_matrix: np.ndarray | None = None
    witness: object = None
    path: str = ""

    def text(self):
        return gen.weight_file(self.values, self.n, self.order)


@dataclass
class Op:
    """One timed command: ``argv`` for ``treeweights.cli.main``."""

    command: str
    inst: Instance
    mode: str = "rational"
    tol: float = 0
    extra: list = field(default_factory=list)
    out_path: str = ""
    report_path: str | None = None

    @property
    def kind(self):
        """"nj", "accept" or "reject": the latency class of the operation."""
        if self.command == "nj":
            return "nj"
        return "accept" if self.inst.realizable else "reject"

    def argv(self):
        args = [self.command]
        if self.command != "nj" or self.inst.order == 3:
            args += ["--order", str(self.inst.order)]
        if self.command != "oracle":
            args += ["--mode", self.mode]
        args += list(self.extra) + ["--in", self.inst.path, "--out", self.out_path]
        if self.report_path:
            args += ["--report", self.report_path]
        return args


# --------------------------------------------------------------------- #
# Instances                                                              #
# --------------------------------------------------------------------- #


def _attach_key(inst, tree, d):
    inst.tree = tree
    inst.d = d
    inst.splits = gen.splits(tree)
    n = tree.n
    mat = np.zeros((n, n))
    for (a, b), v in d.items():
        mat[a - 1, b - 1] = mat[b - 1, a - 1] = float(v)
    inst.d_matrix = mat


def _permutation(rng, n):
    return dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))


def pair_instance(shape_rng, rng, name, n, kind, multi, reject, noise=0.0, min_gap=0,
                  relabel=True):
    """Pair data of a random tree; ``reject`` moves one entry so that a
    quartet certifies it unrealisable.

    ``shape_rng`` fixes the topology, where the data is changed and by
    how much; ``rng`` (the workload seed) draws the weights, the noise and
    (with ``relabel``, accepts only) a permutation of the leaf labels.
    Rejects keep the generator's labels: the checks stop at the first
    witness in label order, so the labels set a reject's cost.
    """
    tree = gen.random_tree(shape_rng, rng, n, multi, kind)
    d = gen.path_sums(tree)
    values = d
    if noise:
        values = {k: v + rng.uniform(-noise, noise) for k, v in d.items()}
    if not reject:
        perm = _permutation(rng, n) if relabel else {x: x for x in range(1, n + 1)}
        tree, d = gen.relabel(perm, tree, d)
        inst = Instance(name, n, 2, True, gen.relabel(perm, values=values)[1])
        _attach_key(inst, tree, d)
        return inst
    step = 5.0 if kind == "float" else Fraction(shape_rng.randint(1, 8), 4)
    moved, quad = gen.perturb_pairs(shape_rng, values, n, step, min_gap)
    gen.check_quartet(moved, quad, min_gap)
    return Instance(name, n, 2, False, moved, witness=tuple(sorted(quad)))


def triple_instance(shape_rng, rng, name, n, kind, reject=None, relabel=True):
    """Triple data of a random binary tree.  ``reject``: None, "single"
    (one triple changed) or "lifted" (half-sum lift of a rejected pair set).
    As for pairs, only accepts are relabelled."""
    if reject == "lifted":
        pairs = pair_instance(shape_rng, rng, name, n, kind, False, True)
        T = gen.lift(pairs.values, n)
        gen.check_lift_injective(T, pairs.values, n)
        return Instance(name, n, 3, False, T, witness=pairs.witness)
    inst = pair_instance(shape_rng, rng, name, n, kind, False, False,
                         relabel=relabel and reject is None)
    inst.order, inst.values = 3, gen.lift(inst.values, n)
    if reject == "single":
        step = Fraction(shape_rng.randint(1, 8), 4)
        moved, witness = gen.perturb_triple(shape_rng, inst.values, n, step)
        return Instance(name, n, 3, False, moved, witness=witness)
    return inst


# --------------------------------------------------------------------- #
# Workloads                                                              #
# --------------------------------------------------------------------- #


class Maker:
    """Instance factory for one workload run.

    Each instance gets its own shape generator, seeded by the workload and
    instance name only, so every seed runs the same tree shapes and the same
    places of change, and run-to-run differences in the work stay small;
    the workload seed draws weights, noise and leaf labels.
    ``tiny`` shrinks every size for the benchmark's own smoke test.
    """

    def __init__(self, workload, seed, tiny=False):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.tiny = tiny

    def shape(self, name):
        return random.Random(f"{self.workload}/{name}")

    def size(self, n):
        return max(8, n // 4) if self.tiny else n

    def pairs(self, name, n, kind, multi, reject, **kw):
        return pair_instance(self.shape(name), self.rng, name, self.size(n), kind, multi,
                             reject, **kw)

    def triples(self, name, n, kind, reject=None):
        return triple_instance(self.shape(name), self.rng, name, self.size(n), kind, reject)


def pairwise_exact(mk):
    """Rational pair files: the exact decision procedure and rational NJ."""
    def pairs(tag, n, i, reject):
        kind = "coprime" if i % 4 == 3 else "grid"
        return mk.pairs(f"{tag}{i}", n, kind, i % 2 == 1, reject)

    ops = []
    for i in range(12):
        ops.append(Op("reconstruct", pairs("rec", 32, i, i % 3 == 2)))
        ops.append(Op("check", pairs("chk", 12, i, i % 3 == 1)))
        if i % 4 != 3:
            ops.append(Op("nj", pairs("njc", 24, i, False), extra=["--variant", "classic"]))
        else:
            ops.append(Op("nj", pairs("njp", 48, i, False), extra=["--variant", "pruning"]))
    warm = [
        Op("reconstruct", pairs("wrec", 16, 0, False)),
        Op("check", pairs("wchk", 12, 2, True)),
        Op("nj", pairs("wnjc", 12, 1, False), extra=["--variant", "classic"]),
        Op("nj", pairs("wnjp", 12, 3, False), extra=["--variant", "pruning"]),
    ]
    return ops, warm


def pairwise_float(mk):
    """Float pair files: the same layers on the float64 path, larger n."""
    tol, eps = FLOAT_TOL, FLOAT_EPS

    def pairs(tag, n, i, reject):
        # the gap must beat every deviation the verification step allows
        gap = 4 * (tol * (1 + 3 * mk.size(n)) + FLOAT_NOISE)
        return mk.pairs(f"{tag}{i}", n, "float", False, reject, noise=FLOAT_NOISE, min_gap=gap)

    def rec(inst):
        return Op("reconstruct", inst, mode="float", tol=tol, extra=["--tol", repr(tol)])

    def njp(inst):
        return Op("nj", inst, mode="float", extra=["--variant", "pruning", "--epsilon", repr(eps)])

    def njc(inst):
        return Op("nj", inst, mode="float", extra=["--variant", "classic"])

    ops = []
    for i in range(15):
        ops.append(rec(pairs("rec", 40, i, i % 3 == 2)))
        if i % 3 == 2:
            ops.append(njc(pairs("njc", 40, i, False)))
        else:
            ops.append(njp(pairs("njp", 80, i, False)))
    warm = [rec(pairs("wrec", 16, 0, False)), njp(pairs("wnjp", 16, 1, False)),
            njc(pairs("wnjc", 16, 2, False))]
    return ops, warm


def triple_exact(mk):
    """Rational triple files: condition 2, triple star tables and triple NJ.

    Rejects are mostly the lift of a rejected pair set (passes condition 2,
    fails later); one in four is a single changed triple (fails condition 2
    at level 0).
    """
    def triples(tag, i, reject, coprime):
        n, kind = (8, "coprime") if coprime else (16, "grid")
        if reject:
            reject = "single" if i % 4 == 0 else "lifted"
        return mk.triples(f"{tag}{i}", n, kind, reject or None)

    ops = []
    for i in range(12):
        ops.append(Op("reconstruct", triples("rec", i, i % 3 == 2, i % 4 == 3)))
        ops.append(Op("check", triples("chk", i, i % 3 == 1, i % 4 == 3)))
        if i % 2 == 0:
            ops.append(Op("nj", triples("nj", i, False, i == 10)))
    warm = [
        Op("reconstruct", mk.triples("wrec", 8, "grid")),
        Op("check", mk.triples("wchk", 8, "grid", "single")),
        Op("nj", mk.triples("wnj", 8, "grid")),
    ]
    return ops, warm


def oracle(mk):
    """Brute-force oracle at n = 5-6, plus NJ on the same accepted inputs.

    Leaves are not relabelled here: where the generating topology sits in
    the oracle's enumeration order sets an accept's cost, so it stays fixed.
    """
    # (order, realisable) over nine inputs: two in three of each verdict are pairs
    pattern = [(2, True), (2, True), (2, False), (3, True), (2, True),
               (2, False), (2, True), (3, True), (3, False)]

    def inst(name, n, order, realizable):
        shape = mk.shape(name)
        if order == 2:
            return pair_instance(shape, mk.rng, name, n, "grid", n % 2 == 0, not realizable,
                                 relabel=False)
        kind = None if realizable else ("single" if n >= 6 else "lifted")
        return triple_instance(shape, mk.rng, name, n, "grid", kind, relabel=False)

    def brute(x, positive):
        return Op("oracle", x, extra=["--require-positive"] if positive else [])

    ops = []
    for i in range(27):
        order, realizable = pattern[i % 9]
        x = inst(f"orc{i}", 5 if i % 5 == 4 else 6, order, realizable)
        ops.append(brute(x, (i // 2) % 2 == 1))
        if realizable:
            ops.append(Op("nj", x))
    # one reject per (size, order) walks, and so builds, every solver
    warm = [brute(inst(f"w{n}{order}", n, order, False), False)
            for n, order in [(5, 2), (6, 2), (5, 3), (6, 3)]]
    warm.append(Op("nj", inst("wnj", 6, 2, True)))
    return ops, warm


WORKLOADS = {
    "pairwise-exact": pairwise_exact,
    "pairwise-float": pairwise_float,
    "triple-exact": triple_exact,
    "oracle": oracle,
}


def build(name, seed, workdir, tiny=False):
    """Generate the workload's inputs into ``workdir``; returns (ops, warm)."""
    ops, warm = WORKLOADS[name](Maker(name, seed, tiny))
    os.makedirs(workdir, exist_ok=True)
    for k, op in enumerate(warm + ops):
        if not op.inst.path:
            op.inst.path = os.path.join(workdir, op.inst.name + ".txt")
            with open(op.inst.path, "w", encoding="utf-8") as fh:
                fh.write(op.inst.text())
        op.out_path = os.path.join(workdir, f"out{k}.txt")
        if op.command == "reconstruct":
            op.report_path = os.path.join(workdir, f"report{k}.json")
    return ops, warm
