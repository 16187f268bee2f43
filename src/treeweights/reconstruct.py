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
(condition 2, :func:`~treeweights.weights.derived_pairwise_consistent`)
and hands d to :func:`reconstruct_from_doubles`.  The public triple steps,
:func:`complete_pseudobells` and :func:`prune_triples`, run on the same fit
(:func:`~treeweights.weights.pairwise_fit`), so every kernel here is
pairwise.

Every step doubles as a realisability check and fails fast with a named
witness (:class:`~treeweights.errors.ReconstructionError`): the data must
be a lift (triples), pruned entries must agree across representatives,
the base-case linear system must be consistent, and the assembled tree
must reproduce every pairwise value (for triples, those of the fitted d,
which at tol=0 is the same as every triple).  With exact rational data and
tol=0 the accept/reject decision is exact.

The levels run on one mirror (:class:`~treeweights.weights._Mirror`):
bells from one star window kernel, twigs from the shared twig rule, the
reduction an array of midranges.  A container is built only for the base
case.  The trace is a log: a level records its labels and its bells, not
the reduced data, so only the carried mirror is held while the levels run.

A full :class:`ReconstructionTrace` (levels, pseudobells, twigs, base-case
solve, positivity certificate) is returned alongside the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InstanceTooSmallError, ReconstructionError
from .numeric import format_number, half
from .tree import WeightedTree, _json_weight, contract_zero_internal_edges
from .weights import (
    DoubleWeights,
    TripleWeights,
    _bell_twigs,
    _Mirror,
    _over,
    _star_windows,
    _symmetric,
    _upper_pairs,
    block_elems,
    derived_pairwise_consistent,
    doubles_of_tree,
    pairwise_fit,
    star_table,
    triples_from_doubles,
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
        return {
            "levels": [
                {
                    "labels_before": list(lv.labels_before),
                    "labels_after": list(lv.labels_after),
                    "pseudobells": [
                        {
                            "members": list(pb.members),
                            "z": pb.z,
                            "twigs": {str(k): _json_weight(v) for k, v in pb.twig_lengths.items()},
                        }
                        for pb in lv.pseudobells
                    ],
                }
                for lv in self.levels
            ],
            "base_case": {
                "labels": list(self.base_case.labels),
                "residual": _json_weight(self.base_case.residual),
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
    inconsistency naming an open triple.  *w* is a weight container (a
    triple set stands for its :func:`~treeweights.weights.pairwise_fit`),
    or the reconstruction's carried mirror: the graph is one star window
    kernel's spreads, compared with tol in the mirror's units.
    """
    state = w if isinstance(w, _Mirror) else _Mirror(pairwise_fit(w))
    if state.n < 3:
        raise InstanceTooSmallError(
            "pseudobell search needs n >= 3", required=3, got=state.n
        )
    m, labels = state.n, state.labels
    lo, hi = _star_windows(state.arr)
    adj = np.zeros((m, m), dtype=bool)
    iu, ju = _upper_pairs(m)
    adj[iu, ju] = adj[ju, iu] = ~_over(hi - lo, tol, state.scale)
    return _clique_bells(adj, labels)


def _clique_bells(adj, labels):
    """The pseudobells of a star graph, a symmetric boolean matrix *adj*
    over *labels* with a false diagonal: its cliques of two or more labels,
    ordered by their smallest member.  A graph that is not a union of
    cliques raises the ``pseudobell-graph`` error of :func:`_name_open_triple`."""
    m = len(labels)
    # a union of cliques exactly when each label's closed neighbourhood is
    # that of its smallest member; the bells are the rows with a neighbour
    # that are their own smallest member, in label order
    closed = adj | np.eye(m, dtype=bool)
    first = closed.argmax(axis=1)
    if not (closed == closed[first]).all():
        _name_open_triple(adj, labels)
    own = np.flatnonzero((first == np.arange(m)) & adj.any(axis=1))
    return [Pseudobell(members=tuple(labels[k] for k in np.flatnonzero(closed[r]).tolist()))
            for r in own.tolist()]


def _name_open_triple(adj, labels):
    """Raise the ``pseudobell-graph`` error of a star graph *adj* that is
    not a union of cliques, naming the first open triple met when the
    cliques are grown from each unassigned label in order."""
    m = len(labels)
    index = np.arange(m)
    assigned = np.zeros(m, dtype=bool)
    for alpha in np.flatnonzero(adj.any(axis=1)).tolist():
        if assigned[alpha]:
            continue
        clique = adj[alpha] | (index == alpha)
        for beta in np.flatnonzero(clique).tolist():
            inside = clique & (index != beta)
            if (adj[beta] != inside).any():
                extra, missing = adj[beta] & ~inside, inside & ~adj[beta]
                other = int(np.flatnonzero(extra if extra.any() else missing)[0])
                witness = tuple(sorted(labels[k] for k in (alpha, beta, other)))
                msg = f"star graph is not a clique union around {witness}"
                raise ReconstructionError("pseudobell-graph", msg, witness=witness)
        assigned |= clique
    raise AssertionError("no open triple in a star graph that failed the clique test")


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
        f"reduced entry {key} disagrees across representatives (spread {format_number(spread)})",
        witness=(key, spread),
    )


def _reduce_dense(state, groups, tw, new_labels, tol):
    """(array, scale) of a pairwise mirror's reduction; *tw* holds every
    index's twig in the mirror's units (zero outside the bells).

    The mirror, less the twig of every index on both axes, is permuted so
    that each new label's representatives are contiguous; min and max
    reductions over those segments give every pair's window at once.  Rows
    go in blocks of whole segments, so no temporary outgrows the block
    budget (:func:`~treeweights.weights.block_elems`) by more than one
    segment.  A window wider than tol raises; else the midranges come back
    as a symmetric array with a zero diagonal, exact ones as the units
    lo + hi over twice the scale (:meth:`_Mirror.settle` halves them).
    """
    arr = state.arr
    perm = np.array([k for g in groups for k in g], dtype=np.intp)
    tw = tw[perm]
    # the reference sums 0 + t1 + t2, in key order
    first = tw + 0.0 if state.kind == "float" else tw
    bounds = np.cumsum([0] + [len(g) for g in groups])
    m2 = len(groups)
    lo = np.empty((m2, m2), dtype=arr.dtype)
    hi = np.empty((m2, m2), dtype=arr.dtype)
    rows_per = max(1, block_elems(arr) // len(perm))
    g0 = 0
    while g0 < m2:
        g1 = g0 + 1
        while g1 < m2 and bounds[g1 + 1] - bounds[g0] <= rows_per:
            g1 += 1
        r0, r1 = bounds[g0], bounds[g1]
        block = arr[np.ix_(perm[r0:r1], perm)] - np.add.outer(first[r0:r1], tw)
        starts = bounds[g0:g1] - r0
        mn = np.minimum.reduceat(np.minimum.reduceat(block, starts), bounds[:-1], axis=1)
        mx = np.maximum.reduceat(np.maximum.reduceat(block, starts), bounds[:-1], axis=1)
        lo[g0:g1] = mn
        hi[g0:g1] = mx
        g0 = g1

    keys = _upper_pairs(m2)
    lo, hi = lo[keys], hi[keys]
    spread = hi - lo
    over = _over(spread, tol, state.scale)
    if over.any():
        bad = int(over.argmax())
        key = tuple(new_labels[int(k[bad])] for k in keys)
        raise _inconsistent(key, state.value(spread[bad]))
    if state.kind == "float":
        return _symmetric(0.5 * (lo + hi), m2, 0), None
    return _symmetric(lo + hi, m2, arr.flat[0]), 2 * state.scale


def _prune(w, bells, tol, floor):
    """Prune *bells* on the mirror of the pairwise set *w*, or on *w*
    itself, a carried mirror.  Returns the reduced container (or that
    mirror) and the level."""
    state = w if isinstance(w, _Mirror) else _Mirror(w)
    labels = tuple(state.labels)
    bells = sorted(bells, key=lambda b: b.smallest)
    if not all(b.twig_lengths for b in bells):
        raise ValueError("pseudobells must carry twig lengths before pruning")
    members = [m for b in bells for m in b.members]
    if len(set(members)) < len(members):
        raise ValueError("pseudobells must be pairwise disjoint")
    bells = _retention_guard(bells, len(labels), floor)
    for z, b in enumerate(bells, max(labels) + 1):
        b.z = z

    twigs = {m: b.twig_lengths[m] for b in bells for m in b.members}
    survivors = [lab for lab in labels if lab not in twigs]
    new_labels = sorted(survivors + [b.z for b in bells])
    index = {lab: k for k, lab in enumerate(labels)}
    groups = [(index[lab],) for lab in survivors]
    groups += [tuple(index[m] for m in b.members) for b in bells]
    tw = state.units([twigs.get(lab, 0) for lab in labels])
    state.arr, state.scale = _reduce_dense(state, groups, tw, new_labels, tol)
    state.labels = new_labels
    state.settle()
    level = ReductionLevel(labels, tuple(new_labels), bells)
    return (state if state is w else state.container()), level


def prune_doubles(d: DoubleWeights, pseudobells, tol=0):
    """Merge each pseudobell into a fresh label, subtracting its twigs.

    Entry values are checked for representative independence within tol
    (their midrange is stored).  Keeps the label set at >= 4 where whole
    pseudobells allow it; merged labels count up from max(label) + 1.
    *d* may be the reconstruction's carried mirror, which is then reduced
    in place and returned in the container's stead.
    """
    return _prune(d, pseudobells, tol, floor=4)


def prune_triples(t: TripleWeights, pseudobells, tol=0):
    """Triple-weight analogue of :func:`prune_doubles`, floor 5: the prune
    runs on *t*'s :func:`~treeweights.weights.pairwise_fit` d, so entries
    are checked (and a failure named) on d's pair keys.  Returns the
    half-sum lift of the reduced d and the level.  On a lift with
    consistent twigs that lift is the triple reduction."""
    reduced, level = _prune(pairwise_fit(t), pseudobells, tol, floor=5)
    return triples_from_doubles(reduced), level


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
        return WeightedTree(
            [
                (i, fresh, twig_length_doubles(d, i, j, k)),
                (j, fresh, twig_length_doubles(d, j, i, k)),
                (k, fresh, twig_length_doubles(d, k, i, j)),
            ]
        )

    table = star_table(d, tol)
    pair = next((p for p in combinations(labels, 2) if table[p].holds), None)
    if pair is None:
        _fail_base(f"no star pair among {labels}; not realisable at tol {tol}")
    alpha, alpha2 = pair
    beta, beta2 = [x for x in labels if x not in pair]
    a = twig_length_doubles(d, alpha, alpha2, beta)
    b = d.value(alpha, alpha2) - a
    dd = twig_length_doubles(d, beta, beta2, alpha)
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
            f"quartet system inconsistent (residual {format_number(residual)})", witness=residual
        )
    u, w = fresh, fresh + 1
    quartet = WeightedTree(
        [(alpha, u, a), (alpha2, u, b), (u, w, f), (beta, w, dd), (beta2, w, e)]
    )
    return contract_zero_internal_edges(quartet)


def base_case_triples_5(t: TripleWeights, tol=0) -> WeightedTree:
    """Solve a 5-label triple instance: condition 2's fit d, pruned by one
    level to 4 labels and solved as a quartet
    (:func:`reconstruct_from_triples` on 5 labels)."""
    tree, _ = _base_case_triples_5_record(t, tol)
    return tree


def _base_case_triples_5_record(t: TripleWeights, tol=0):
    if t.n != 5:
        raise ValueError("base_case_triples_5 needs exactly 5 labels")
    tree, trace = reconstruct_from_triples(t, tol)
    return tree, trace.base_case


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
            f"edge ({offender[0]}, {offender[1]}) has non-positive weight "
            f"{format_number(offender[2])}",
            witness=offender,
            trace=trace,
        )
    return tree, trace


def _prune_levels(d: DoubleWeights, tol, floor):
    """Prune *d* level by level down to *floor* labels, on one mirror
    carried from level to level.

    Returns the reduced container and the levels; raises with the level
    index when a level finds no two disjoint star pairs or an inconsistent
    reduced entry.
    """
    state = _Mirror(d)
    levels = []
    while state.n > floor:
        try:
            bells = complete_pseudobells(state, tol)
            if not _has_two_disjoint_pairs(bells):
                raise ReconstructionError(
                    "no-disjoint-pseudobells",
                    f"need two disjoint star pairs, found {[b.members for b in bells]}",
                    witness=tuple(b.members for b in bells),
                )
            plan = _prune_plan(bells, state.n, floor)
            index = {lab: k for k, lab in enumerate(state.labels)}
            _, _, twigs = _bell_twigs(state, [[index[m] for m in pb.members] for pb in plan])
            twigs = iter(twigs)
            for pb in plan:
                pb.twig_lengths = {m: next(twigs) for m in pb.members}
            levels.append(prune_doubles(state, plan, tol)[1])
        except ReconstructionError as err:
            raise _attach_level(err, len(levels))
    return state.container(), levels


def _verified(d: DoubleWeights, base_tree, base_record, levels, tol, require_positive):
    """Expand the levels onto the base tree and check its path sums against
    every value of the pairwise set *d*, within the slack the levels'
    midranges allow.

    The tree's mirror (:func:`~treeweights.weights.doubles_of_tree`) is
    compared with d's as arrays: exact data as units on the LCM of the two
    scales, float data as |got - want| > slack.  The first key over the
    slack, in combinations order, is named; d's dict is built only then.
    """
    tree = contract_zero_internal_edges(_expand_levels(base_tree, levels))
    slack = tol * (1 + 3 * len(levels))
    got, want = _Mirror(doubles_of_tree(tree)), _Mirror(d)
    if got.kind == "int":
        scale = math.lcm(got.scale, want.scale)
        got.rescale(scale // got.scale)
        want.rescale(scale // want.scale)
    keys = _upper_pairs(d.n)
    miss = _over(np.abs(got.arr[keys] - want.arr[keys]), slack, want.scale)
    if miss.any():
        k = int(miss.argmax())
        key = tuple(d.labels[int(axis[k])] for axis in keys)
        got, want = got.value(got.arr[keys][k]), d.value(*key)
        raise ReconstructionError(
            "verification",
            f"assembled tree misses pair {key}: {format_number(got)} != {format_number(want)}",
            witness=(key, got, want),
        )
    return _finish(tree, levels, base_record, require_positive)


def reconstruct_from_triples(t: TripleWeights, tol=0, require_positive=False):
    """Decide whether *t* is the triple-weight set of a tree and build it.

    A tree's triple weights are the half-sums of its pairwise weights, so
    *t* is realisable exactly when it is the lift of one pairwise set d and
    d is realisable.  Condition 2 (:func:`derived_pairwise_consistent`)
    fits d and checks the lift in O(n^3), failing as ``condition2`` at
    level 0; :func:`reconstruct_from_doubles` then decides d and builds its
    tree.  With slack = tol * (1 + 3 * levels) on each pair, the tree's
    triples are within tol + 1.5 * slack of *t*: the lift moves a triple by
    at most 1.5 times the largest pair error, and d's lift is within tol of
    *t*.  At tol 0, *t* is d's lift exactly and the lift is one-to-one for
    n >= 5, so the tree reproduces every value of *t*.

    Returns (tree, trace), the trace that of d; raises ReconstructionError
    with a named kind and witness when the data is not realisable at the
    given tolerance.  With rational values and tol=0 the decision is exact.
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
    return reconstruct_from_doubles(derived, tol, require_positive)


def reconstruct_from_doubles(d: DoubleWeights, tol=0, require_positive=False):
    """Decide whether *d* is the pairwise-weight set of a tree and build it.

    The levels prune *d* down to 4 labels, :func:`base_case_doubles` solves
    what is left, and the expanded tree's path sums are checked against
    every value of *d* (slack tol * (1 + 3 * levels) per pair).  Any n >= 2
    is accepted; instances with up to 4 labels go straight to the
    closed-form base case.

    Returns (tree, trace); raises ReconstructionError with a named kind and
    witness when the data is not realisable at the given tolerance.  With
    rational values and tol=0 the decision is exact.
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

