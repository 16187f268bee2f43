"""Decide tree-realisability of double/triple weights and rebuild the tree.

The procedure prunes *pseudobells*: label sets that pairwise satisfy the
star condition in the data.  Per round, every complete pseudobell is
replaced by one fresh merged label after subtracting the member twig
lengths from the affected entries; once the label set is small enough a
closed-form base case solves the remaining instance, and the recorded
bells are re-attached in reverse order.

There is one pruning loop, on pairwise data.  Triple data is realisable
exactly when it is the half-sum lift of one pairwise set d and d is
realisable, so :func:`reconstruct_from_triples` checks the lift in O(n^3)
(condition 2, :func:`~treeweights.weights.derived_pairwise_consistent`),
prunes d down to 5 labels instead of 4, and solves the lift of those 5 by
the caterpillar system.

Every step doubles as a realisability check and fails fast with a named
witness (:class:`~treeweights.errors.ReconstructionError`): the data must
be a lift (triples), pruned entries must agree across representatives,
the base-case linear system must be consistent, and the assembled tree
must reproduce every pairwise value (for triples, those of the fitted d,
which at tol=0 is the same as every triple).  With exact rational data and
tol=0 the accept/reject decision is exact.

A full :class:`ReconstructionTrace` (levels, pseudobells, twigs, base-case
solve, positivity certificate) is returned alongside the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import InstanceTooSmallError, ReconstructionError
from .numeric import THIRD, format_number, half
from .tree import WeightedTree, contract_zero_internal_edges
from .weights import (
    DoubleWeights,
    TripleWeights,
    derived_pairwise_consistent,
    block_elems,
    doubles_of_tree,
    exact_scalar,
    holds_fractions,
    int_dtype,
    star_table,
    triples_from_doubles,
    upper_keys,
)

# Unused here, but perfbench's tracer wraps this name in this module.
from .weights import triples_of_tree  # noqa: F401


@dataclass
class Pseudobell:
    """Labels that pairwise satisfy the star condition in the data.

    ``twig_lengths`` and the merged label ``z`` are filled in when the
    pseudobell is pruned; fresh from :func:`complete_pseudobells` both are
    empty.
    """

    members: tuple
    twig_lengths: dict = field(default_factory=dict)
    z: int | None = None

    @property
    def smallest(self):
        return self.members[0]


@dataclass
class ReductionLevel:
    """One pruning round: which pseudobells were merged into which labels."""

    labels_before: tuple
    labels_after: tuple
    pseudobells: list
    reduced: object  # the weight container on labels_after


@dataclass
class BaseCaseRecord:
    labels: tuple
    instance: object
    tree: WeightedTree
    residual: object
    detail: dict


@dataclass
class ReconstructionTrace:
    levels: list
    base_case: BaseCaseRecord
    all_twigs_positive: bool | None = None

    def to_report(self):
        def num(x):
            return float(x) if isinstance(x, float) else format_number(x)

        return {
            "levels": [
                {
                    "labels_before": list(lv.labels_before),
                    "labels_after": list(lv.labels_after),
                    "pseudobells": [
                        {
                            "members": list(pb.members),
                            "z": pb.z,
                            "twigs": {str(k): num(v) for k, v in pb.twig_lengths.items()},
                        }
                        for pb in lv.pseudobells
                    ],
                }
                for lv in self.levels
            ],
            "base_case": {
                "labels": list(self.base_case.labels),
                "residual": num(self.base_case.residual),
                "detail": self.base_case.detail,
            },
            "all_twigs_positive": self.all_twigs_positive,
        }


# --------------------------------------------------------------------- #
# Pseudobell discovery                                                   #
# --------------------------------------------------------------------- #


def complete_pseudobells(w, tol=0):
    """Partition the star-condition graph into its cliques (size >= 2).

    With exact data the star relation is transitive, so the graph is a
    disjoint union of cliques; with a positive tolerance near-equalities
    need not chain, and a non-clique component is reported as a structural
    inconsistency naming an open triple.
    """
    required = 3 if isinstance(w, DoubleWeights) else 5
    if w.n < required:
        raise InstanceTooSmallError(
            f"pseudobell search needs n >= {required} for order {w.order}",
            required=required,
            got=w.n,
        )
    table = star_table(w, tol)
    adj = {lab: set() for lab in w.labels}
    for (a, b), res in table.items():
        if res.holds:
            adj[a].add(b)
            adj[b].add(a)

    bells = []
    assigned = set()
    for alpha in w.labels:
        if alpha in assigned or not adj[alpha]:
            continue
        clique = {alpha} | adj[alpha]
        for beta in sorted(clique):
            inside = clique - {beta}
            if adj[beta] != inside:
                extra = sorted(adj[beta] - inside)
                missing = sorted(inside - adj[beta])
                other = extra[0] if extra else missing[0]
                raise ReconstructionError(
                    "pseudobell-graph",
                    f"star graph is not a clique union around "
                    f"{tuple(sorted((alpha, beta, other)))}",
                    witness=tuple(sorted((alpha, beta, other))),
                )
        assigned |= clique
        bells.append(Pseudobell(members=tuple(sorted(clique))))
    return bells


def _has_two_disjoint_pairs(bells) -> bool:
    return sum(len(b.members) // 2 for b in bells) >= 2


# --------------------------------------------------------------------- #
# Twig lengths                                                           #
# --------------------------------------------------------------------- #


def twig_length_doubles(d: DoubleWeights, alpha, alpha2, x):
    """(D[a,a'] + D[a,x] - D[a',x]) / 2 — the stalk distance of alpha."""
    if len({alpha, alpha2, x}) != 3:
        raise ValueError("twig length needs three distinct labels")
    return half(d.value(alpha, alpha2) + d.value(alpha, x) - d.value(alpha2, x))


def twig_length_triples(t: TripleWeights, derived: DoubleWeights, alpha, alpha2, x, y):
    """(D'[a,a'] + D[a,x,y] - D[a',x,y]) / 2 with D' the derived pairwise."""
    if len({alpha, alpha2, x, y}) != 4:
        raise ValueError("twig length needs four distinct labels")
    return half(
        derived.value(alpha, alpha2) + t.value(alpha, x, y) - t.value(alpha2, x, y)
    )


def bell_twigs_doubles(d: DoubleWeights, members):
    """Twig length of every member of a bell, by :func:`twig_length_doubles`
    with the smallest other member as partner and the smallest label
    outside the pair as x."""
    twigs = {}
    for m in members:
        partner = members[0] if m != members[0] else members[1]
        x = next(g for g in d.labels if g not in (m, partner))
        twigs[m] = twig_length_doubles(d, m, partner, x)
    return twigs


# --------------------------------------------------------------------- #
# Pruning                                                                #
# --------------------------------------------------------------------- #


def _retention_guard(bells, size, floor):
    """Drop whole pseudobells (largest smallest-member first) while the
    reduction would undershoot the floor; always keeps at least one."""
    keep = list(bells)
    while len(keep) > 1 and size - sum(len(b.members) - 1 for b in keep) < floor:
        keep.pop()
    return keep


def _inconsistent(key, spread):
    return ReconstructionError(
        "prune-inconsistent",
        f"reduced entry {key} disagrees across representatives (spread {spread})",
        witness=(key, spread),
    )


def _first_over(spread, tol, wide):
    """Index of the first spread above tol, or None.

    Exact spreads count in units of 1/wide (on a mirror of Fractions they
    are Fractions, with wide 1); the comparison stays exact for int,
    Fraction and float tolerances alike.
    """
    if wide is None:
        if isinstance(tol, float):
            over = spread > tol
        else:
            over = np.array([x > tol for x in spread.tolist()], dtype=bool)
    elif isinstance(tol, float) and not math.isfinite(tol):
        over = spread > tol
    else:
        limit = Fraction(tol) * wide
        if spread.dtype != object:
            # an int spread passes the limit iff it passes its floor; int64
            # spreads stay far below 2**62, and so can the limit
            limit = min(max(math.floor(limit), -(2**62)), 2**62)
        elif limit.denominator == 1:
            limit = limit.numerator  # int against int skips Fraction's Python-level compare
        over = spread > limit
    if not over.any():
        return None
    return int(over.argmax())


def _reduce_dense(container, groups, twigs, new_labels, tol):
    """Reduced entries computed on the dense mirror.

    The mirror, less the twig of every index on every axis, is permuted so
    that each new label's representatives are contiguous; min and max
    reductions over those segments give every key's window at once.  Rows
    go in blocks of whole segments, so no temporary outgrows the block
    budget (:func:`~treeweights.weights.block_elems`) by more than one
    segment.  Twigs take the mirror's arithmetic: on an int mirror the
    scale widens to their denominators (an int64 mirror turns ``object``
    when the widened magnitudes pass its headroom), on a mirror of
    Fractions they are Fractions, on a float mirror floats.
    """
    kind, arr, scale = container.dense()
    order = container.order
    index = {lab: i for i, lab in enumerate(container.labels)}
    perm = np.array([index[lab] for g in groups for lab in g], dtype=np.intp)
    tw = [twigs.get(lab, 0) for g in groups for lab in g]
    factor = 1
    if kind == "float":
        wide = None
        tw = np.array(tw, dtype=np.float64)
        # the reference sums 0 + t1 + t2 (+ t3), in key order
        first = tw + 0.0
    elif holds_fractions(arr):
        wide = scale
        first = tw = np.array([Fraction(x) for x in tw], dtype=object)
    else:
        wide = math.lcm(scale, *(Fraction(v).denominator for v in twigs.values()))
        factor = wide // scale
        tw = [int(Fraction(x) * wide) for x in tw]
        top = max(int(np.abs(arr).max(initial=0)) * factor, *map(abs, tw))
        arr = arr.astype(int_dtype(top), copy=False)
        first = tw = np.array(tw, dtype=arr.dtype)
    bounds = np.cumsum([0] + [len(g) for g in groups])
    m2 = len(groups)
    lo = np.empty((m2,) * order, dtype=arr.dtype)
    hi = np.empty((m2,) * order, dtype=arr.dtype)
    rows_per = max(1, block_elems(arr, factor) // len(perm) ** (order - 1))
    g0 = 0
    while g0 < m2:
        g1 = g0 + 1
        while g1 < m2 and bounds[g1 + 1] - bounds[g0] <= rows_per:
            g1 += 1
        r0, r1 = bounds[g0], bounds[g1]
        block = arr[np.ix_(perm[r0:r1], *(perm,) * (order - 1))]
        if factor != 1:
            block = block * factor
        drop = first[r0:r1]
        for _ in range(1, order):
            drop = np.add.outer(drop, tw)
        block = block - drop
        mn, mx = block, block
        for axis in range(order):
            starts = bounds[g0:g1] - r0 if axis == 0 else bounds[:-1]
            mn = np.minimum.reduceat(mn, starts, axis=axis)
            mx = np.maximum.reduceat(mx, starts, axis=axis)
        lo[g0:g1] = mn
        hi[g0:g1] = mx
        g0 = g1

    keys = upper_keys(m2, order)
    lo, hi = lo[keys], hi[keys]
    spread = hi - lo
    bad = _first_over(spread, tol, wide)
    if bad is not None:
        key = tuple(new_labels[int(k[bad])] for k in keys)
        gap = float(spread[bad]) if wide is None else Fraction(exact_scalar(spread[bad]), wide)
        raise _inconsistent(key, gap)
    if wide is None:
        mids = (0.5 * (lo + hi)).tolist()
    else:
        mids = [Fraction(x, 2 * wide) for x in (lo + hi).tolist()]
    return dict(zip(combinations(new_labels, order), mids))


def _prune(container, bells, tol, floor):
    labels = container.labels
    bells = sorted(bells, key=lambda b: b.smallest)
    for b in bells:
        if not b.twig_lengths:
            raise ValueError("pseudobells must carry twig lengths before pruning")
    taken = set()
    for b in bells:
        if taken & set(b.members):
            raise ValueError("pseudobells must be pairwise disjoint")
        taken |= set(b.members)
    bells = _retention_guard(bells, len(labels), floor)

    next_z = max(labels) + 1
    owner = {}
    for b in bells:
        b.z = next_z
        next_z += 1
        for m in b.members:
            owner[m] = b

    survivors = [lab for lab in labels if lab not in owner]
    new_labels = sorted(survivors + [b.z for b in bells])
    groups = [(lab,) for lab in survivors] + [b.members for b in bells]
    twigs = {m: b.twig_lengths[m] for b in bells for m in b.members}
    reduced_vals = _reduce_dense(container, groups, twigs, new_labels, tol)

    cls = type(container)
    reduced = cls(reduced_vals, labels=new_labels)
    level = ReductionLevel(
        labels_before=tuple(labels),
        labels_after=tuple(new_labels),
        pseudobells=bells,
        reduced=reduced,
    )
    return reduced, level


def prune_doubles(d: DoubleWeights, pseudobells, tol=0):
    """Merge each pseudobell into a fresh label, subtracting its twigs.

    Entry values are checked for representative independence within tol
    (their midrange is stored).  Keeps the label set at >= 4 where whole
    pseudobells allow it; merged labels count up from max(label) + 1.
    """
    return _prune(d, pseudobells, tol, floor=4)


def prune_triples(t: TripleWeights, pseudobells, tol=0):
    """Triple-weight analogue of :func:`prune_doubles`, floor 5."""
    return _prune(t, pseudobells, tol, floor=5)


# --------------------------------------------------------------------- #
# Base cases                                                             #
# --------------------------------------------------------------------- #


def _fail_base(msg, witness=None):
    raise ReconstructionError("base-case", msg, witness=witness)


def base_case_doubles(d: DoubleWeights, tol=0) -> WeightedTree:
    """Solve a <= 4-label pairwise instance directly.

    n=2 is a single edge, n=3 the three-point star formulas, n=4 a quartet
    around the first star pair found, with the two redundant equations
    checked against tol.  A zero inner edge collapses to the 4-star.
    """
    labels = d.labels
    m = d.n
    if m > 4:
        raise ValueError("base_case_doubles handles at most 4 labels")
    fresh = max(labels) + 1
    if m == 2:
        a, b = labels
        return WeightedTree([(a, b, d.value(a, b))])
    if m == 3:
        i, j, k = labels
        c = fresh
        return WeightedTree(
            [
                (i, c, half(d.value(i, j) + d.value(i, k) - d.value(j, k))),
                (j, c, half(d.value(i, j) + d.value(j, k) - d.value(i, k))),
                (k, c, half(d.value(i, k) + d.value(j, k) - d.value(i, j))),
            ]
        )

    table = star_table(d, tol)
    pair = next((p for p in combinations(labels, 2) if table[p].holds), None)
    if pair is None:
        _fail_base(f"no star pair among {labels}; not realisable at tol {tol}")
    alpha, alpha2 = pair
    beta, beta2 = [x for x in labels if x not in pair]
    a = half(d.value(alpha, alpha2) + d.value(alpha, beta) - d.value(alpha2, beta))
    b = d.value(alpha, alpha2) - a
    dd = half(d.value(beta, beta2) + d.value(alpha, beta) - d.value(alpha, beta2))
    e = d.value(beta, beta2) - dd
    f = d.value(alpha, beta) - a - dd
    residual = 0
    for x, tw_x in ((alpha, a), (alpha2, b)):
        for y, tw_y in ((beta, dd), (beta2, e)):
            gap = abs(d.value(x, y) - (tw_x + f + tw_y))
            if gap > residual:
                residual = gap
    if residual > tol:
        _fail_base(
            f"quartet system inconsistent (residual {residual})", witness=residual
        )
    u, w = fresh, fresh + 1
    quartet = WeightedTree(
        [(alpha, u, a), (alpha2, u, b), (u, w, f), (beta, w, dd), (beta2, w, e)]
    )
    return contract_zero_internal_edges(quartet)


def _solve_caterpillar_5(t: TripleWeights, pair1, pair2, gamma):
    """Closed-form solve of the ten 5-leaf caterpillar equations.

    Shape: alpha, alpha2 on stalk u; gamma on the middle node v; beta,
    beta2 on stalk w; inner edges u-v (f1) and v-w (f2).  Returns the
    seven edge values plus the worst absolute residual over all ten input
    entries.
    """
    alpha, alpha2 = pair1
    beta, beta2 = pair2
    e1 = t.value(alpha, alpha2, gamma)
    e2 = t.value(alpha, alpha2, beta)
    e3 = t.value(alpha, gamma, beta)
    e4 = t.value(alpha2, gamma, beta)
    e5 = t.value(alpha, alpha2, beta2)
    e8 = t.value(alpha, beta, beta2)
    e10 = t.value(gamma, beta, beta2)

    p = e1 - (e3 - e4) + (e2 - e3)
    q = e10 + (e2 - e3) - (e8 - e5) - (e8 - e2)
    r = e2 - (e3 - e4) - (e8 - e5)
    f1 = r - q
    f2 = r - p
    b = THIRD * (p + q - r)
    a = b + (e3 - e4)
    c = b - (e2 - e3)
    e = b + (e8 - e2)
    dd = e + (e2 - e5)

    twig = {alpha: a, alpha2: b, gamma: c, beta: dd, beta2: e}
    residual = 0
    for i, j, k in combinations(sorted(twig), 3):
        members = {i, j, k}
        # the inner edges join exactly when the triple spans across them
        spans_left = bool(members & {alpha, alpha2})
        spans_right = bool(members & {beta, beta2})
        has_mid = gamma in members
        inner = 0
        if spans_left and (spans_right or has_mid):
            inner = inner + f1
        if spans_right and (spans_left or has_mid):
            inner = inner + f2
        predicted = inner + sum(twig[x] for x in members)
        gap = abs(t.value(i, j, k) - predicted)
        if gap > residual:
            residual = gap
    return twig, f1, f2, residual


def base_case_triples_5(t: TripleWeights, tol=0) -> WeightedTree:
    """Solve a 5-label triple instance via the caterpillar system."""
    tree, _ = _base_case_triples_5_record(t, tol)
    return tree


def _base_case_triples_5_record(t: TripleWeights, tol=0):
    labels = t.labels
    if t.n != 5:
        raise ValueError("base_case_triples_5 needs exactly 5 labels")
    table = star_table(t, tol)
    holding = [p for p in combinations(labels, 2) if table[p].holds]
    pick = None
    for p1 in holding:
        for p2 in holding:
            if not set(p1) & set(p2):
                pick = (p1, p2)
                break
        if pick:
            break
    if pick is None:
        _fail_base(
            f"no two disjoint star pairs among {labels}; not realisable at tol {tol}"
        )
    pair1, pair2 = pick
    gamma = next(x for x in labels if x not in pair1 and x not in pair2)
    twig, f1, f2, residual = _solve_caterpillar_5(t, pair1, pair2, gamma)
    if residual > tol:
        _fail_base(
            f"caterpillar system inconsistent (residual {residual})", witness=residual
        )
    alpha, alpha2 = pair1
    beta, beta2 = pair2
    u, v, w = max(labels) + 1, max(labels) + 2, max(labels) + 3
    cat = WeightedTree(
        [
            (alpha, u, twig[alpha]),
            (alpha2, u, twig[alpha2]),
            (u, v, f1),
            (gamma, v, twig[gamma]),
            (v, w, f2),
            (beta, w, twig[beta]),
            (beta2, w, twig[beta2]),
        ]
    )
    tree = contract_zero_internal_edges(cat)
    zed1, zed2 = max(labels) + 1, max(labels) + 2  # names for the 4-set records
    detail = {
        "shape": "caterpillar",
        "pairs": [list(pair1), list(pair2)],
        "gamma": gamma,
        "edges": {
            **{str(k): format_number(v) if not isinstance(v, float) else v
               for k, v in twig.items()},
            "inner_1": format_number(f1) if not isinstance(f1, float) else f1,
            "inner_2": format_number(f2) if not isinstance(f2, float) else f2,
        },
        # the two 4-element sets obtained by pruning each base pair, with
        # the twig values living on them (positivity detail)
        "four_element_sets": [
            {
                "pruned_pair": list(pair1),
                "twigs": {
                    str(zed1): _num_or_float(f1),
                    str(gamma): _num_or_float(twig[gamma]),
                    str(beta): _num_or_float(twig[beta]),
                    str(beta2): _num_or_float(twig[beta2]),
                },
            },
            {
                "pruned_pair": list(pair2),
                "twigs": {
                    str(alpha): _num_or_float(twig[alpha]),
                    str(alpha2): _num_or_float(twig[alpha2]),
                    str(gamma): _num_or_float(twig[gamma]),
                    str(zed2): _num_or_float(f2),
                },
            },
        ],
    }
    record = BaseCaseRecord(
        labels=tuple(labels), instance=t, tree=tree, residual=residual, detail=detail
    )
    return tree, record


def _num_or_float(v):
    return v if isinstance(v, float) else format_number(v)


# --------------------------------------------------------------------- #
# Full reconstruction                                                    #
# --------------------------------------------------------------------- #


def _prune_plan(bells, size, floor):
    """Choose what to prune this round, landing on the floor exactly.

    Pseudobells are taken in increasing order of smallest member; when a
    whole pseudobell would undershoot the floor only its smallest members
    are pruned (a sub-pseudobell is still a pseudobell), which is the only
    way single-bell (star-like) instances can reach the base case.
    """
    allowed = size - floor
    plan = []
    for pb in bells:
        if allowed <= 0:
            break
        take = min(len(pb.members) - 1, allowed)
        if take == len(pb.members) - 1:
            plan.append(Pseudobell(members=pb.members))
        else:
            plan.append(Pseudobell(members=pb.members[: take + 1]))
        allowed -= take
    return plan


def _expand_levels(base_tree: WeightedTree, levels) -> WeightedTree:
    edges = list(base_tree.edges)
    for level in reversed(levels):
        for pb in level.pseudobells:
            edges.extend((pb.z, m, pb.twig_lengths[m]) for m in pb.members)
    return WeightedTree(edges)


def _attach_level(err: ReconstructionError, level_index):
    if err.level is None:
        err.level = level_index
    return err


def _positivity(tree: WeightedTree):
    for u, v, w in tree.edges:
        if not w > 0:
            return False, (u, v, w)
    return True, None


def _finish(tree, levels, base_record, require_positive):
    trace = ReconstructionTrace(levels=levels, base_case=base_record)
    positive, offender = _positivity(tree)
    trace.all_twigs_positive = positive
    if require_positive and not positive:
        raise ReconstructionError(
            "positivity",
            f"edge ({offender[0]}, {offender[1]}) has non-positive weight {offender[2]}",
            witness=offender,
            trace=trace,
        )
    return tree, trace


def _prune_levels(d: DoubleWeights, tol, floor):
    """Prune *d* level by level down to *floor* labels.

    Returns the reduced container and the levels; raises with the level
    index when a level finds no two disjoint star pairs or an inconsistent
    reduced entry.
    """
    levels = []
    current = d
    while current.n > floor:
        idx = len(levels)
        try:
            bells = complete_pseudobells(current, tol)
        except ReconstructionError as err:
            raise _attach_level(err, idx)
        if not _has_two_disjoint_pairs(bells):
            raise ReconstructionError(
                "no-disjoint-pseudobells",
                f"need two disjoint star pairs, found {[b.members for b in bells]}",
                level=idx,
                witness=tuple(b.members for b in bells),
            )
        plan = _prune_plan(bells, current.n, floor)
        for pb in plan:
            pb.twig_lengths = bell_twigs_doubles(current, pb.members)
        try:
            current, level = prune_doubles(current, plan, tol)
        except ReconstructionError as err:
            raise _attach_level(err, idx)
        levels.append(level)
    return current, levels


def _verified(d: DoubleWeights, base_tree, base_record, levels, tol, require_positive):
    """Expand the levels onto the base tree and check its path sums against
    every value of the pairwise set *d*, within the slack the levels'
    midranges allow."""
    tree = contract_zero_internal_edges(_expand_levels(base_tree, levels))
    slack = tol * (1 + 3 * len(levels))
    back = doubles_of_tree(tree)
    for key, want in d.items():
        got = back.value(*key)
        if abs(got - want) > slack:
            raise ReconstructionError(
                "verification",
                f"assembled tree misses pair {key}: {got} != {want}",
                witness=(key, got, want),
            )
    return _finish(tree, levels, base_record, require_positive)


def reconstruct_from_triples(t: TripleWeights, tol=0, require_positive=False):
    """Decide whether *t* is the triple-weight set of a tree and build it.

    A tree's triple weights are the half-sums of its pairwise weights, so
    *t* is realisable exactly when it is the lift of one pairwise set d and
    d is realisable.  Condition 2 (:func:`derived_pairwise_consistent`)
    fits d and checks the lift in O(n^3); the pairwise pruning loop then
    prunes d down to 5 labels, the five-leaf caterpillar system solves the
    lift of what is left, and the expanded tree's path sums are checked
    against d.  With slack = tol * (1 + 3 * levels) on each pair, the tree's
    triples are then within tol + 1.5 * slack of *t*: the lift moves a
    triple by at most 1.5 times the largest pair error, and d's lift is
    within tol of *t*.  At tol 0, *t* is d's lift exactly and the lift is
    one-to-one for n >= 5, so the tree reproduces every value of *t*.

    Returns (tree, trace); raises ReconstructionError with a named kind
    and witness when the data is not realisable at the given tolerance.
    With rational values and tol=0 the decision is exact.
    """
    if t.n < 5:
        raise InstanceTooSmallError(
            "triple reconstruction needs n >= 5", required=5, got=t.n
        )
    ok, derived = derived_pairwise_consistent(t, tol)
    if not ok:
        raise ReconstructionError(
            "condition2",
            f"triple values are not the half-sum lift of one pairwise set at tol {tol}",
            level=0,
        )
    current, levels = _prune_levels(derived, tol, 5)
    try:
        base_tree, base_record = _base_case_triples_5_record(triples_from_doubles(current), tol)
    except ReconstructionError as err:
        raise _attach_level(err, len(levels))
    return _verified(derived, base_tree, base_record, levels, tol, require_positive)


def reconstruct_from_doubles(d: DoubleWeights, tol=0, require_positive=False):
    """Pairwise-weight analogue of :func:`reconstruct_from_triples`.

    Any n >= 2 is accepted; instances with up to 4 labels go straight to
    the closed-form base case.
    """
    current, levels = _prune_levels(d, tol, 4)
    try:
        base_tree = base_case_doubles(current, tol)
    except ReconstructionError as err:
        raise _attach_level(err, len(levels))
    base_record = BaseCaseRecord(
        labels=tuple(current.labels),
        instance=current,
        tree=base_tree,
        residual=0,
        detail={"shape": f"doubles-{current.n}"},
    )
    return _verified(d, base_tree, base_record, levels, tol, require_positive)


def reconstruct_from_doubles_via_triples(d: DoubleWeights, tol=0, require_positive=False):
    """Lift pairwise values to triples and reconstruct from those.

    The derived-pairwise consistency condition holds automatically for
    lifted data; it is still verified as a sanity check inside the triple
    procedure.
    """
    if d.n < 5:
        raise InstanceTooSmallError(
            "triple-route reconstruction needs n >= 5", required=5, got=d.n
        )
    return reconstruct_from_triples(
        triples_from_doubles(d), tol=tol, require_positive=require_positive
    )
