"""Pure-Python reference loops for the array kernels.

The package runs every heavy scan as numpy array operations on a
container's dense mirror (int64, ``object`` Python ints, or float64).
These loops compute the same results one entry at a time, straight from
the container's values, and define the semantics the kernels are held to:
result for result, bitwise for floats.  They are test oracles only.
The per-leaf walk that summed a tree's path weights one leaf at a time
(:func:`distances_from`), which the package's path-sum kernel must
reproduce (bitwise on floats), is kept here too, with the dict loop of
the half-sum lift.
The per-level container driver of reconstruction is kept here too: it
rebuilds a container at every level and finds its bells on a table of
star results, where the package carries one mirror from level to level.
The neighbor-joining dict loops are kept here too: classic NJ driven by
the dict S-matrix, pruning NJ with its per-entry bell merge, and triple NJ
walking the candidates one star condition at a time, which the package's
array-resident NJ engine must reproduce byte for byte (bitwise on
floats); and the triple-space NJ loop, which triple NJ on the pairwise
fit must reproduce on exact lifts.
The weight-file writer that built one Fraction per value and joined every
line at once, and the metric warnings' loop over the container's values,
are kept here too, with the walk that made a CLI payload ready for
``json.dumps``, and the four-point test's loop over every quadruple.
The canonical form's loop, which re-sorted every node for each degree-2
node it suppressed, is kept here too, and the Newick reader that walked the
tree it had read twice more, once for its leaves and once for its edges.
So is the oracle's per-shape walk: a BFS, side masks and a quartet table
per shape, with a pendant and an inner formula, filled into the fit arrays
one term at a time, which the hop-distance rule must reproduce entry for
entry.
"""

import math
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np

from treeweights.oracle import CHUNK_ELEMS, _adjacency
from treeweights.numeric import THIRD, format_number, half, midrange, parse_number
from treeweights.nj import SMatrix, ScanRecord, _assemble, _scan_cost, group_bells
from treeweights.errors import LabelError, ParseError, ReconstructionError
from treeweights.reconstruct import (
    Pseudobell,
    _expand_levels,
    _finish,
    _has_two_disjoint_pairs,
    _inconsistent,
    _prune_plan,
    _retention_guard,
    twig_length_doubles,
)
from treeweights.tree import WeightedTree, contract_zero_internal_edges
from treeweights.weights import (
    BunemanVerdict,
    DoubleWeights,
    StarResult,
    TripleWeights,
    _preorder,
    derived_pairwise,
    derived_pairwise_consistent,
    mirror_values,
    pairwise_fit,
)


def distances_from(tree, source):
    """Map every node to its path weight from *source* (one preorder walk)."""
    if source not in tree._adj:
        raise LabelError(f"label {source} not in tree")
    pre, parent = _preorder(tree._adj, source)
    dist = {source: 0}
    for v in pre[1:]:
        p, w = parent[v]
        dist[v] = dist[p] + w
    return dist


def all_pairwise_weights_loop(tree):
    """Reference path sums: one walk per leaf, adding the weights edge by
    edge outward from it (:func:`distances_from`)."""
    leaves = tree.leaves
    out = {}
    for idx, a in enumerate(leaves):
        dist = distances_from(tree, a)
        for b in leaves[idx + 1 :]:
            out[(a, b)] = dist[b]
    return out


def canonicalize_loop(tree):
    """Reference canonical form: suppress the smallest internal degree-2
    node, summing its two edge weights, until none is left."""
    leafset = set(tree.leaves)
    adj = {v: dict(nb) for v, nb in tree._adj.items()}
    while True:
        victim = None
        for v in sorted(adj):
            if v not in leafset and len(adj[v]) == 2:
                victim = v
                break
        if victim is None:
            break
        (a, w1), (b, w2) = sorted(adj[victim].items())
        del adj[victim]
        del adj[a][victim]
        del adj[b][victim]
        adj[a][b] = w1 + w2
        adj[b][a] = w1 + w2
    edges = [(u, v, w) for u, nb in adj.items() for v, w in nb.items() if u < v]
    return WeightedTree(edges)


def parse_newick_walks(text, mode="float"):
    """Reference Newick reader: the read loop builds the nested nodes, then
    one walk lists the leaf names and a second numbers the groups and
    lists the edges.  ``tree.parse_newick`` must give the same edges, or
    the same ``ParseError`` text, for every input.

    Leaf names must be positive integers; internal names (support values)
    are ignored, as is a length on the root.  A root with one child is a
    stem, not a leaf: the child becomes the root, and the stem's length is
    ignored too.  Every other branch must carry a length.  ``mode``
    selects Fraction or float lengths.
    """
    s = text.strip()
    if not s.endswith(";"):
        raise ParseError("Newick string must end with ';'")
    s = s[:-1]
    pos = 0

    def error(msg):
        return ParseError(f"{msg} (at char {pos})")

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos] in " \t\r\n":
            pos += 1

    def read_token():
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] not in "(),:;":
            pos += 1
        return s[start:pos].strip()

    def read_length():
        nonlocal pos
        skip_ws()
        if pos >= len(s) or s[pos] != ":":
            return None
        pos += 1
        token = read_token()
        if not token:
            raise error("empty branch length")
        try:
            return parse_number(token, mode)
        except ValueError:
            raise error(f"bad branch length {token!r}") from None

    # each node: (children list, name, length); leaves have no children.
    # ``open_`` holds the children lists of the groups not yet closed.
    open_ = []
    root = None
    while root is None:
        skip_ws()
        if pos < len(s) and s[pos] == "(":
            pos += 1
            open_.append([])
            continue
        name = read_token()
        if not name:
            raise error("expected a leaf name")
        node = ([], name, read_length())
        while True:
            if not open_:
                root = node
                break
            open_[-1].append(node)
            skip_ws()
            if pos < len(s) and s[pos] == ",":
                pos += 1
                break
            if pos >= len(s) or s[pos] != ")":
                raise error("unbalanced parentheses")
            pos += 1
            read_token()  # optional internal name / support — ignored
            node = (open_.pop(), None, read_length())
    skip_ws()
    if pos != len(s):
        raise ParseError(f"trailing characters after tree (at char {pos})")
    # a root with one child is a stem, whose length is ignored like the root's
    while len(root[0]) == 1:
        root = root[0][0]

    # leaves left to right, by a preorder walk
    leaf_names = []
    pending = [root]
    while pending:
        children, name, _ = pending.pop()
        if not children:
            leaf_names.append(name)
        pending.extend(reversed(children))
    labels = []
    for name in leaf_names:
        try:
            lab = int(name)
        except ValueError:
            raise ParseError(f"leaf name {name!r} is not an integer label") from None
        if lab <= 0:
            raise ParseError(f"leaf label {lab} must be positive")
        labels.append(lab)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate leaf labels")
    if len(labels) < 2:
        raise ParseError("a tree needs at least two leaves")

    # internal ids in preorder after the largest label
    next_id = max(labels) + 1
    edges = []
    pending = [(root, None)]
    while pending:
        (children, name, length), up = pending.pop()
        if children:
            me = next_id
            next_id += 1
        else:
            me = int(name)
        if up is not None:
            if length is None:
                raise ParseError("missing branch length")
            edges.append((up, me, length))
        pending.extend((child, me) for child in reversed(children))
    return WeightedTree(edges)


def _low_leaf(mask):
    """Position of the lowest set bit: the smallest leaf of a leaf set."""
    return (mask & -mask).bit_length() - 1


def sides_and_quartets_walk(edges, leaves, closed: bool):
    """Reference leaf bitmasks and pairwise fit terms of one shape's edges.

    *edges* are the shape's (u, v) pairs, u < v, and *leaves* its sorted
    leaf labels; bit i stands for ``leaves[i]``.  ``sides[e]`` holds the
    leaves on the smaller-id end of edge e.  With ``closed``, ``terms[e]``
    lists the (i, j, coefficient) of leaf positions whose pairwise values
    sum to twice the weight of edge e; otherwise, or when an inner node
    has degree 2 (no closed form), ``terms`` is None.
    """
    bit = {lab: 1 << i for i, lab in enumerate(leaves)}
    full = (1 << len(bit)) - 1
    adj = _adjacency(edges)
    root = leaves[0]
    parent = {root: None}
    order = [root]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    below = {}
    for v in reversed(order):
        mask = bit.get(v, 0)
        for y in adj[v]:
            if y != parent[v]:
                mask |= below[y]
        below[v] = mask

    def beyond(x, y):
        """Leaves reached from x through its neighbour y."""
        return below[y] if parent[y] == x else full ^ below[x]

    sides = [beyond(v, u) for u, v in edges]
    if not closed or any(len(nb) == 2 for nb in adj.values()):
        return sides, None
    # each inner node's neighbour subtrees, ordered by their smallest leaf
    around = {
        x: sorted((_low_leaf(beyond(x, y)), y) for y in nb)
        for x, nb in adj.items()
        if x not in bit
    }

    def two_reps(x, skip):
        first, second = [leaf for leaf, y in around[x] if y != skip][:2]
        return first, second

    terms = []
    for u, v in edges:
        if u in bit or v in bit:
            leaf, inner = (u, v) if u in bit else (v, u)
            x = _low_leaf(bit[leaf])
            p, q = two_reps(inner, leaf)
            terms.append(((x, p, 1), (x, q, 1), (p, q, -1)))
        else:
            a, a2 = two_reps(u, v)
            b, b2 = two_reps(v, u)
            terms.append(((a, b, 1), (a2, b2, 1), (a, a2, -1), (b, b2, -1)))
    return sides, terms


def derived_map_loop(n: int):
    """3 x (pairwise value from triples), as a (pairs x triples) int matrix.

    Row (i, j) uses the three smallest other positions as {r, s, u}.
    """
    triple_index = {t: k for k, t in enumerate(combinations(range(n), 3))}
    pairs = list(combinations(range(n), 2))
    out = np.zeros((len(pairs), len(triple_index)), dtype=np.int64)
    for row, (i, j) in enumerate(pairs):
        r, s, u = [g for g in range(n) if g != i and g != j][:3]
        for trip in ((i, j, r), (i, j, s), (i, j, u), (r, s, u)):
            out[row, triple_index[tuple(sorted(trip))]] += 2
        for x in (i, j):
            for trip in ((x, r, s), (x, r, u), (x, s, u)):
                out[row, triple_index[tuple(sorted(trip))]] -= 1
    return out


def stack_arrays_walk(shapes, leaves, order):
    """Reference ``oracle._Stack`` arrays: ``inc``, ``inv``, ``pad`` and
    ``l1``, and the side masks, filled shape by shape from
    :func:`sides_and_quartets_walk` and term by term into the fit array,
    then mapped to triples by :func:`derived_map_loop`."""
    n = len(leaves)
    closed = n >= 3 if order == 2 else n >= 5
    rows = list(combinations(range(n), order))
    row_masks = np.array([sum(1 << i for i in r) for r in rows], dtype=np.int64)
    pair_index = {p: k for k, p in enumerate(combinations(range(n), 2))}
    derived = derived_map_loop(n) if closed and order == 3 else None
    n_edges = np.array([len(edges) for edges in shapes])
    e_max = int(n_edges.max())
    count = len(shapes)
    out = SimpleNamespace(
        inc=np.zeros((count, len(rows), e_max), dtype=np.int8),
        inv=np.zeros((count, e_max, len(rows)), dtype=np.int8) if closed else None,
        pad=np.arange(e_max)[None, :] >= n_edges[:, None],
        l1=0,
        sides=np.zeros((count, e_max), dtype=np.int64),
    )
    step = max(1, CHUNK_ELEMS // (e_max * max(len(rows), len(pair_index))))
    for lo in range(0, count, step):
        chunk = shapes[lo:lo + step]
        sides = out.sides[lo:lo + step]
        fit = np.zeros((len(chunk), e_max, len(pair_index) if closed else 0), np.int64)
        for k, edges in enumerate(chunk):
            masks, terms = sides_and_quartets_walk(edges, leaves, closed)
            sides[k, : len(masks)] = masks
            if terms is None and closed:  # a node of degree 2
                closed, out.inv = False, None
            for e, quartet in enumerate(terms or ()):
                for i, j, coef in quartet:
                    fit[k, e, pair_index[(i, j) if i < j else (j, i)]] = coef
        onside = sides[:, None, :] & row_masks[None, :, None]
        out.inc[lo:lo + step] = (onside != 0) & (onside != row_masks[None, :, None])
        if not closed:
            continue
        if derived is not None:
            fit = fit @ derived
        out.l1 = max(out.l1, int(np.abs(fit).sum(axis=2).max()))
        out.inv[lo:lo + step] = fit
    return out


def verified_loop(d, base_tree, base_record, levels, tol, require_positive):
    """Reference verification: the assembled tree's path sums by
    :func:`all_pairwise_weights_loop`, compared with d key by key."""
    tree = contract_zero_internal_edges(_expand_levels(base_tree, levels))
    slack = tol * (1 + 3 * len(levels))
    back = all_pairwise_weights_loop(tree)
    for key, want in d.items():
        got = back[key]
        if abs(got - want) > slack:
            raise ReconstructionError(
                "verification",
                f"assembled tree misses pair {key}: {got} != {want}",
                witness=(key, got, want),
            )
    return _finish(tree, levels, base_record, require_positive)


def triples_from_doubles_loop(d):
    """Reference half-sum lift: one value per triple, added in key order."""
    vals = {
        (i, j, k): half(d.value(i, j) + d.value(i, k) + d.value(j, k))
        for i, j, k in combinations(d.labels, 3)
    }
    return TripleWeights(vals, labels=d.labels)


def star_window_loop(w, a, b):
    """(lo, hi) of D[a, rest] - D[b, rest] over every completion rest of
    the pair: every other label (doubles), every other label pair
    (triples)."""
    rest = [g for g in w.labels if g != a and g != b]
    lo = hi = None
    for others in combinations(rest, w.order - 1):
        diff = w.value(a, *others) - w.value(b, *others)
        if lo is None or diff < lo:
            lo = diff
        if hi is None or diff > hi:
            hi = diff
    return lo, hi


def star_condition_loop(w, a, b, tol=0):
    """Reference single-pair star condition, from :func:`star_window_loop`."""
    lo, hi = star_window_loop(w, a, b)
    spread = hi - lo
    return StarResult(spread <= tol, midrange(lo, hi), spread)


def star_table_loop(w, tol):
    """Reference star table: one pure-Python window per label pair."""
    return {(a, b): star_condition_loop(w, a, b, tol) for a, b in combinations(w.labels, 2)}


def reduce_loop(container, bells, new_labels, tol):
    """Reference reduction: every key, every choice of representatives."""
    by_new = {b.z: b for b in bells}

    def reps(x):
        b = by_new.get(x)
        if b is None:
            return ((x, 0),)
        return tuple((m, b.twig_lengths[m]) for m in b.members)

    reduced_vals = {}
    for key in combinations(new_labels, container.order):
        lo = hi = None
        for combo in product(*(reps(x) for x in key)):
            originals = tuple(m for m, _ in combo)
            drop = sum(tw for _, tw in combo)
            val = container.value(*originals) - drop
            if lo is None or val < lo:
                lo = val
            if hi is None or val > hi:
                hi = val
        if hi - lo > tol:
            raise _inconsistent(key, hi - lo)
        reduced_vals[key] = midrange(lo, hi)
    return reduced_vals


def bell_twigs_loop(d, members):
    """Twig length of every member of a bell, by :func:`twig_length_doubles`
    with the smallest other member as partner and the smallest label
    outside the pair as x."""
    twigs = {}
    for m in members:
        partner = members[0] if m != members[0] else members[1]
        x = next(g for g in d.labels if g not in (m, partner))
        twigs[m] = twig_length_doubles(d, m, partner, x)
    return twigs


def pseudobells_loop(w, tol):
    """Reference pseudobell search: the cliques of the star graph read off
    :func:`star_table_loop`, checked one member at a time."""
    adj = {lab: set() for lab in w.labels}
    for (a, b), res in star_table_loop(w, tol).items():
        if res.holds:
            adj[a].add(b)
            adj[b].add(a)
    return clique_bells_loop(adj, w.labels)


def clique_bells_loop(adj, labels):
    """Reference clique search on a star graph given as neighbour sets
    {label: set}: grown from each unassigned label in order and checked
    one member at a time."""
    bells = []
    assigned = set()
    for alpha in labels:
        if alpha in assigned or not adj[alpha]:
            continue
        clique = {alpha} | adj[alpha]
        for beta in sorted(clique):
            inside = clique - {beta}
            if adj[beta] != inside:
                extra = sorted(adj[beta] - inside)
                missing = sorted(inside - adj[beta])
                other = extra[0] if extra else missing[0]
                witness = tuple(sorted((alpha, beta, other)))
                raise ReconstructionError(
                    "pseudobell-graph",
                    f"star graph is not a clique union around {witness}",
                    witness=witness,
                )
        assigned |= clique
        bells.append(Pseudobell(members=tuple(sorted(clique))))
    return bells


def prune_loop(container, bells, tol, floor):
    """Reference prune: merged labels as the package assigns them, every
    reduced entry by :func:`reduce_loop`, and a new container.  Returns
    (reduced container, level)."""
    labels = container.labels
    bells = _retention_guard(sorted(bells, key=lambda b: b.smallest), len(labels), floor)
    for z, b in enumerate(bells, max(labels) + 1):
        b.z = z
    owned = {m for b in bells for m in b.members}
    new_labels = sorted([g for g in labels if g not in owned] + [b.z for b in bells])
    reduced = type(container)(reduce_loop(container, bells, new_labels, tol), labels=new_labels)
    level = SimpleNamespace(
        labels_before=tuple(labels), labels_after=tuple(new_labels), pseudobells=bells,
        reduced=reduced,
    )
    return reduced, level


def prune_fit_loop(t, bells, tol):
    """Reference triple prune: :func:`prune_loop` on condition 2's pairwise
    fit of *t*, floor 5, the reduced set lifted back by
    :func:`triples_from_doubles_loop`.  Returns (lift, level)."""
    reduced, level = prune_loop(pairwise_fit(t), bells, tol, 5)
    return triples_from_doubles_loop(reduced), level


def prune_levels_loop(d, tol, floor):
    """Reference pruning driver: per level a new container, its bells from
    :func:`pseudobells_loop`, twigs from :func:`bell_twigs_loop` and the
    reduction from :func:`prune_loop`.  Returns (container, levels), and
    raises as ``reconstruct._prune_levels`` does."""
    levels = []
    current = d
    while current.n > floor:
        idx = len(levels)
        try:
            bells = pseudobells_loop(current, tol)
        except ReconstructionError as err:
            err.level = idx
            raise
        if not _has_two_disjoint_pairs(bells):
            raise ReconstructionError(
                "no-disjoint-pseudobells",
                f"need two disjoint star pairs, found {[b.members for b in bells]}",
                level=idx,
                witness=tuple(b.members for b in bells),
            )
        plan = _prune_plan(bells, current.n, floor)
        for pb in plan:
            pb.twig_lengths = bell_twigs_loop(current, pb.members)
        try:
            current, level = prune_loop(current, plan, tol, 4)
        except ReconstructionError as err:
            err.level = idx
            raise
        levels.append(level)
    return current, levels


def _third(x):
    """``x / 3``: exact for ints and Fractions, ``x / 3.0`` for floats."""
    return x / 3.0 if isinstance(x, float) else THIRD * x


def derived_detail_loop(t, tol=0):
    """Condition 2 by its definition: per-pair (lo, hi) of the derived
    values over every {r, s, u} choice."""
    labels = t.labels
    windows = {}
    # three times the derived value, divided once at the end
    val = t.value
    for i, j in combinations(labels, 2):
        rest = [g for g in labels if g != i and g != j]
        lo = hi = None
        for r, s, u in combinations(rest, 3):
            v3 = 2 * (val(i, j, r) + val(i, j, s) + val(i, j, u) + val(r, s, u)) - (
                val(i, r, s)
                + val(i, r, u)
                + val(i, s, u)
                + val(j, r, s)
                + val(j, r, u)
                + val(j, s, u)
            )
            if lo is None or v3 < lo:
                lo = v3
            if hi is None or v3 > hi:
                hi = v3
        windows[(i, j)] = (_third(lo), _third(hi))
    return windows


def derived_common_values(t):
    """Condition 2 at tol 0 by :func:`derived_detail_loop`: (True, the
    common derived value of every pair) when no pair's value depends on
    {r, s, u}, else (False, None)."""
    windows = derived_detail_loop(t)
    if any(lo != hi for lo, hi in windows.values()):
        return False, None
    return True, {pair: lo for pair, (lo, hi) in windows.items()}


def condition2_values(result):
    """(verdict, {pair: value} or None) of a condition-2 result."""
    ok, d = result
    return ok, dict(d.items()) if ok else None


def lift_check_loop(t, tol=0):
    """Reference for ``weights.derived_pairwise_consistent``: condition 2's
    verdict at *tol* on :func:`lift_fit_loop`'s residual, and its fit."""
    worst, d = lift_fit_loop(t)
    return (True, d) if worst <= tol else (False, None)


def lift_fit_loop(t):
    """Reference for condition 2's kept pair (worst lift residual, fit d):
    the least-squares pairwise fit d and its lift residual, one entry at a time.

    Sums run in label order and every formula is evaluated as the kernel
    does (den * d_ij = part_ij + c), so float results agree bitwise.
    """
    labels = t.labels
    m = t.n

    def add(terms):
        total = 0
        for x in terms:
            total = total + x
        return total

    pair = {
        (i, j): add(t.value(i, j, r) for r in labels if r not in (i, j))
        for i, j in combinations(labels, 2)
    }
    row = {i: add(pair[min(i, j), max(i, j)] for j in labels if j != i) for i in labels}
    den = 3 * (m - 2) * (m - 3) * (m - 4)
    part = {
        (i, j): 6 * (m - 2) * (m - 3) * p - 3 * (m - 2) * (row[i] + row[j])
        for (i, j), p in pair.items()
    }
    c = 2 * add(row[i] for i in labels)
    gaps = [
        2 * den * t.value(i, j, k) - (part[i, j] + part[i, k] + part[j, k])
        for i, j, k in combinations(labels, 3)
    ]
    worst = max(max(gaps) - 3 * c, 3 * c - min(gaps))
    if isinstance(worst, float):
        worst, d = worst / (2 * den), {key: (v + c) / den for key, v in part.items()}
    else:
        worst, d = Fraction(worst, 2 * den), {key: Fraction(v + c, den) for key, v in part.items()}
    return worst, DoubleWeights(d, labels=labels)


def scan_pure(d, eps):
    """Reference cherry scan: the records of ``nj.cherry_scan``, from the
    S-matrix dict and the container's values."""
    labels = d.labels
    S = s_matrix_loop(d)
    records = []
    for j in labels:
        m_j = None
        i_j = None
        for i in labels:
            if i == j:
                continue
            v = S.value(i, j)
            if m_j is None or v < m_j:
                m_j = v
                i_j = i
        lo, hi = star_window_loop(d, i_j, j)
        spread = hi - lo
        records.append(
            ScanRecord(
                column=j, row=i_j, minimum=m_j, spread=spread, confirmed=spread <= eps
            )
        )
    return records


def s_matrix_triples_loop(t):
    """Reference triple selection matrix, by its definition:

        S[i, j] = (n-2)/2 * sum_r D[i,j,r] - sum_{r<s} D[i,r,s] - sum_{r<s} D[j,r,s]
    """
    labels = t.labels
    pair_sum = {p: 0 for p in combinations(labels, 2)}
    label_sum = {a: 0 for a in labels}
    for (a, b, c), v in t.items():
        for p in ((a, b), (a, c), (b, c)):
            pair_sum[p] = pair_sum[p] + v
        for g in (a, b, c):
            label_sum[g] = label_sum[g] + v
    half_n2 = Fraction(t.n - 2, 2)
    entries = {
        p: half_n2 * pair_sum[p] - label_sum[p[0]] - label_sum[p[1]] for p in pair_sum
    }
    return SMatrix(labels=labels, entries=entries)


def _derived_single(t, a, b):
    """Derived pairwise value from the three smallest other labels."""
    r, s, u = [g for g in t.labels if g != a and g != b][:3]
    return derived_pairwise(t, a, b, r, s, u)


def nj_from_triples_loop(t, eps=0):
    """Reference triple NJ, joining in triple space: per round the triple
    S-matrix minimum whose triple star spread is within eps (else the
    global minimum), twigs (d_ij + D_ixy - D_jxy)/2 from the derived d_ij,
    and a midrange prune of every triple; classic NJ on the derived values
    of the last five labels."""
    current = t
    merges = []
    while current.n > 5:
        S = s_matrix_triples_loop(current)
        candidates = sorted(S.entries.items(), key=lambda kv: (kv[1], kv[0]))
        i, j = next(
            (p for p, _ in candidates if star_condition_loop(current, *p, tol=eps).holds),
            candidates[0][0],
        )
        d_ij = _derived_single(current, i, j)
        x, y = [g for g in current.labels if g not in (i, j)][:2]
        a_i = half(d_ij + current.value(i, x, y) - current.value(j, x, y))
        a_j = d_ij - a_i
        pb = Pseudobell(members=(i, j), twig_lengths={i: a_i, j: a_j})
        current, level = prune_loop(current, [pb], math.inf, 5)
        merges.append((level.pseudobells[0].z, [(i, a_i), (j, a_j)]))
    labels = current.labels
    d5 = DoubleWeights(
        {(a, b): _derived_single(current, a, b) for a, b in combinations(labels, 2)},
        labels=labels,
    )
    return _assemble(nj_classic_loop(d5).edges, merges)


# --------------------------------------------------------------------- #
# Neighbor joining on dict containers                                    #
# --------------------------------------------------------------------- #


def s_matrix_loop(d):
    """Reference selection matrix: row sums over the pairs in key order,
    then (n - 2) D[a, b] - row[a] - row[b] per pair."""
    labels = d.labels
    row = {a: 0 for a in labels}
    for (a, b), v in d.items():
        row[a] = row[a] + v
        row[b] = row[b] + v
    m = d.n
    entries = {
        (a, b): (m - 2) * d.value(a, b) - row[a] - row[b]
        for a, b in combinations(labels, 2)
    }
    return SMatrix(labels=labels, entries=entries)


def classic_join_loop(d, i, j, a_i):
    """One agglomeration step on a container: (reduced container, merge)."""
    labels = d.labels
    a_j = d.value(i, j) - a_i
    z = max(labels) + 1
    survivors = [g for g in labels if g not in (i, j)]
    vals = {(a, b): d.value(a, b) for a, b in combinations(survivors, 2)}
    for y in survivors:
        vals[(y, z)] = half(-d.value(i, j) + d.value(i, y) + d.value(j, y))
    return DoubleWeights(vals, labels=survivors + [z]), (z, [(i, a_i), (j, a_j)])


def _min_join_loop(d):
    i, j = s_matrix_loop(d).argmin_pair()
    x = next(g for g in d.labels if g not in (i, j))
    return classic_join_loop(d, i, j, twig_length_doubles(d, i, j, x))


def nj_classic_loop(d):
    """Reference classic NJ: a dict S-matrix and a new container per join."""
    if d.n == 2:
        a, b = d.labels
        return WeightedTree([(a, b, d.value(a, b))])
    current = d
    merges = []
    while current.n > 2:
        current, merge = _min_join_loop(current)
        merges.append(merge)
    u, v = current.labels
    return _assemble([(u, v, current.value(u, v))], merges)


def merge_bells_loop(d, bells):
    """Reference bell merge: every reduced entry the mean of the per-member
    reductions D[a, b] - twig[a] - twig[b], summed one member pair at a time."""
    labels = d.labels
    next_z = max(labels) + 1
    owner = {}
    merges = []
    twig_of = {}
    for members in bells:
        twigs = bell_twigs_loop(d, members)
        z = next_z
        next_z += 1
        merges.append((z, [(m_, twigs[m_]) for m_ in members]))
        for m_ in members:
            owner[m_] = z
            twig_of[m_] = twigs[m_]
    survivors = [g for g in labels if g not in owner]
    bell_members = {z: [m_ for m_, _ in mem] for z, mem in merges}
    new_labels = sorted(survivors + list(bell_members))

    def reduced_value(x, y):
        xs = bell_members.get(x, [x])
        ys = bell_members.get(y, [y])
        total = 0
        count = 0
        for a in xs:
            for b in ys:
                total = total + d.value(a, b) - twig_of.get(a, 0) - twig_of.get(b, 0)
                count += 1
        return total / count if count > 1 else total

    vals = {(a, b): reduced_value(a, b) for a, b in combinations(new_labels, 2)}
    return DoubleWeights(vals, labels=new_labels), merges


def nj_pruning_loop(d, eps=0):
    """Reference pruning NJ: (tree, rounds), per round the column minima of
    :func:`scan_pure` on a new container, each confirmed by its loop window,
    and :func:`merge_bells_loop` for its bells."""
    if d.n == 2:
        a, b = d.labels
        return WeightedTree([(a, b, d.value(a, b))]), []
    current = d
    merges = []
    rounds = []
    while current.n > 2:
        if current.n == 3:
            current, merge = _min_join_loop(current)
            merges.append(merge)
            rounds.append({"size": 3, "bells": [], "fallback": True, "entries_examined": 0})
            continue
        pairs = {
            (min(r.row, r.column), max(r.row, r.column))
            for r in scan_pure(current, eps)
            if star_condition_loop(current, r.row, r.column, eps).holds
        }
        bells = group_bells(sorted(pairs))
        rounds.append({
            "size": current.n,
            "bells": [list(b) for b in bells],
            "fallback": not bells,
            "entries_examined": _scan_cost(current.n),
        })
        if not bells:
            current, merge = _min_join_loop(current)
            merges.append(merge)
            continue
        if len(bells) == 1 and len(bells[0]) == current.n:
            center = max(current.labels) + 1
            twigs = bell_twigs_loop(current, current.labels)
            edges = [(m_, center, twigs[m_]) for m_ in current.labels]
            return _assemble(edges, merges), rounds
        current, new_merges = merge_bells_loop(current, bells)
        merges.extend(new_merges)
    u, v = current.labels
    return _assemble([(u, v, current.value(u, v))], merges), rounds


def nj_from_triples_walk(t, eps=0):
    """Reference triple NJ on condition 2's fit d: per round the candidates
    sorted by (S_d, pair), each tested by its own star condition on d until
    one holds (else the global minimum), twigs the mean of two pairwise
    twigs, and classic NJ on the last five labels."""
    _, current = derived_pairwise_consistent(t, math.inf)
    merges = []
    while current.n > 5:
        S = s_matrix_loop(current)
        candidates = sorted(S.entries.items(), key=lambda kv: (kv[1], kv[0]))
        i, j = next(
            (p for p, _ in candidates if star_condition_loop(current, *p, tol=eps).holds),
            candidates[0][0],
        )
        x, y = [g for g in current.labels if g not in (i, j)][:2]
        a_i = half(twig_length_doubles(current, i, j, x) + twig_length_doubles(current, i, j, y))
        current, merge = classic_join_loop(current, i, j, a_i)
        merges.append(merge)
    finish = nj_classic_loop(current)
    return _assemble(finish.edges, merges)


def emit_loop(container):
    """Reference writer: one Fraction per value (``mirror_values``), each
    written by :func:`format_number`, every line joined at once."""
    keys = combinations(map(str, container.labels), container.order)
    values = map(format_number, mirror_values(*container.dense()))
    lines = [str(container.n)]
    lines += [f"{' '.join(key)} {text}" for key, text in zip(keys, values)]
    return "\n".join(lines) + "\n"


def metric_warnings_loop(d):
    """Reference metric warnings: the non-positive values in key order,
    then per triple i < j < k the breaches of d_ik <= d_ij + d_jk,
    d_ij <= d_ik + d_jk and d_jk <= d_ij + d_ik, each named by the
    inequality it compares."""
    warnings = []
    for (a, b), v in d.items():
        if v <= 0:
            warnings.append(f"non-positive distance for pair ({a}, {b}): {format_number(v)}")
    for i, j, k in combinations(d.labels, 3):
        dij, dik, djk = d.value(i, j), d.value(i, k), d.value(j, k)
        for x, y, z, lhs, rhs in (
            (i, k, j, dik, dij + djk),
            (i, j, k, dij, dik + djk),
            (j, k, i, djk, dij + dik),
        ):
            if lhs > rhs:
                warnings.append(f"triangle violation: D({x},{y}) > D({x},{z}) + D({z},{y})")
    return warnings


def buneman_check_loop(d, tol=0):
    """Reference four-point test: per quadruple in combinations order the
    two largest of the three pair sums, sorted, must agree within *tol*;
    the first quadruple that breaks it is the witness."""
    for i, j, k, h in combinations(d.labels, 4):
        sums = sorted(
            (
                d.value(i, j) + d.value(k, h),
                d.value(i, k) + d.value(j, h),
                d.value(i, h) + d.value(j, k),
            )
        )
        gap = sums[2] - sums[1]
        if gap > tol:
            return BunemanVerdict(False, (i, j, k, h), gap)
    return BunemanVerdict(True, None, 0)


def jsonable(value):
    """Reference JSON payload: each Fraction as its :func:`format_number`
    string, each list and tuple as a list and each dict key as ``str(key)``,
    walked once before ``json.dumps`` walks it again; the CLI's one-pass
    writer must give ``json.dumps(jsonable(p), sort_keys=True, indent=2)``
    byte for byte."""
    if isinstance(value, Fraction):
        return format_number(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value
