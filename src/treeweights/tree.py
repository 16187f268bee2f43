"""Edge-weighted leaf-labelled trees and their subtree-weight queries.

The data model is an unrooted tree whose degree-1 nodes ("leaves") carry
integer labels and whose edges carry real weights (Fraction or float;
weights may be zero or negative — positivity is a property callers may
certify separately, never an input invariant).

Standard instances label their leaves 1..n.  Internal machinery (pruning
reductions, merged labels) also builds trees over arbitrary distinct
positive-integer leaf labels; every operation here works for those too.

A tree is *canonical* when no internal node has degree 2.  Canonical trees
are compared through a deterministic rooted form: root at the internal node
adjacent to the smallest leaf, children ordered by smallest descendant leaf.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

from .errors import LabelError, ParseError
from .numeric import exact_fraction, format_number, half, parse_number, plain_int
from .weights import _preorder, doubles_of_tree, mirror_values


class WeightedTree:
    """Immutable unrooted tree with weighted edges and labelled leaves.

    Attributes
    ----------
    edges  : tuple of (u, v, weight), u < v, sorted — the canonical edge list.
    leaves : tuple of leaf labels, sorted ascending.
    n      : number of leaves.

    Construction validates that the edge list forms a tree (connected,
    acyclic) and that the degree-1 nodes are exactly the distinct positive
    integers taken as leaf labels.  Instances are never mutated after
    construction; all operations return new trees.
    """

    __slots__ = ("edges", "leaves", "n", "_adj")

    def __init__(self, edges):
        seen = set()
        adj: dict[int, list] = {}
        canon = []
        for u, v, w in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"node ids must be ints, got ({u!r}, {v!r})")
            if u <= 0 or v <= 0:
                raise ValueError("node ids must be positive integers")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canon.append((key[0], key[1], w))
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
        if not canon:
            raise ValueError("a tree needs at least one edge")
        if len(canon) != len(adj) - 1:
            raise ValueError("edge list is not a tree (wrong edge count)")
        if len(_preorder(adj, next(iter(adj)))[0]) != len(adj):
            raise ValueError("edge list is not connected")

        leaves = tuple(sorted(v for v, nb in adj.items() if len(nb) == 1))
        if len(leaves) < 2:
            raise ValueError("a tree needs at least two leaves")
        self.edges = tuple(sorted(canon, key=lambda e: (e[0], e[1])))
        self.leaves = leaves
        self.n = len(leaves)
        self._adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}

    # -- basic queries ------------------------------------------------- #

    @property
    def nodes(self):
        return tuple(sorted(self._adj))

    @property
    def internal_nodes(self):
        leafset = set(self.leaves)
        return tuple(v for v in sorted(self._adj) if v not in leafset)

    def neighbors(self, v):
        try:
            return self._adj[v]
        except KeyError:
            raise LabelError(f"node {v} not in tree") from None

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def weight(self, u, v):
        for x, w in self.neighbors(u):
            if x == v:
                return w
        raise LabelError(f"no edge ({u}, {v})")

    def is_canonical(self) -> bool:
        leafset = set(self.leaves)
        return all(
            len(nb) != 2 for v, nb in self._adj.items() if v not in leafset
        )

    def is_leaf(self, v) -> bool:
        return v in self._adj and len(self._adj[v]) == 1

    def __repr__(self):
        return f"WeightedTree(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class Bell:
    """A maximal set of leaves hanging off one stalk node.

    ``stalk`` is the shared branching node; for the degenerate 2-leaf tree
    it is None (the conventional midpoint of the single edge, which has no
    node id).  ``twig_lengths`` maps each member to its stalk distance.
    """

    stalk: int | None
    members: tuple
    twig_lengths: dict

    def pairs(self):
        ms = self.members
        return [(ms[i], ms[j]) for i in range(len(ms)) for j in range(i + 1, len(ms))]


# --------------------------------------------------------------------- #
# Weight queries                                                         #
# --------------------------------------------------------------------- #


def all_pairwise_weights(tree: WeightedTree):
    """Dict (a, b) -> distance over all leaf pairs a < b: a view of the
    path-sum kernel (:func:`~treeweights.weights.path_sums`), with
    Fractions for exact weights and floats for float ones."""
    values = mirror_values(*doubles_of_tree(tree).dense())
    return dict(zip(combinations(tree.leaves, 2), values))


def k_weight(tree: WeightedTree, subset):
    """Total weight of the minimal subtree spanning the given leaves.

    An edge belongs to that subtree exactly when removing it separates two
    requested leaves, so one preorder walk counting members per side,
    children before parents, suffices.
    """
    members = list(subset)
    if len(set(members)) != len(members):
        raise ValueError("subset labels must be distinct")
    if len(members) < 2:
        raise ValueError("k_weight needs at least two leaves")
    for m in members:
        if m not in tree._adj or not tree.is_leaf(m):
            raise LabelError(f"label {m} is not a leaf of the tree")
    wanted = set(members)
    pre, parent = _preorder(tree._adj, members[0])
    count = {v: 1 if v in wanted else 0 for v in pre}
    total = 0
    for v in reversed(pre[1:]):
        p, w = parent[v]
        count[p] += count[v]
        if 0 < count[v] < len(members):
            total = total + w
    return total


# --------------------------------------------------------------------- #
# Canonical form, equality, cherries                                     #
# --------------------------------------------------------------------- #


def canonicalize(tree: WeightedTree) -> WeightedTree:
    """Suppress every internal degree-2 node, summing its two edge weights.

    All subtree weights are preserved exactly.  Returns *tree* itself when
    it is already canonical (trees are immutable).
    """
    if tree.is_canonical():
        return tree
    adj = {v: dict(nb) for v, nb in tree._adj.items()}
    # suppressing a node leaves every other node's degree as it was, so
    # the degree-2 nodes are suppressed in one pass, smallest first
    for victim in sorted(v for v, nb in adj.items() if len(nb) == 2):
        (a, w1), (b, w2) = sorted(adj.pop(victim).items())
        del adj[a][victim]
        del adj[b][victim]
        adj[a][b] = w1 + w2
        adj[b][a] = w1 + w2
    edges = [(u, v, w) for u, nb in adj.items() for v, w in nb.items() if u < v]
    return WeightedTree(edges)


def _min_roots(pairs):
    """Union the members of every pair; returns the find function, which
    maps a node to the smallest member of its class (a node in no pair is
    its own root)."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return find


def contract_zero_internal_edges(tree: WeightedTree) -> WeightedTree:
    """Merge endpoints of internal edges whose weight is exactly zero.

    Zero-weight internal edges are invisible to every subtree-weight query,
    so assembly procedures contract them to return a unique representative.
    Zero-weight *twigs* (leaf edges) are kept: the data pins them.
    Returns *tree* itself when no internal edge weighs zero.
    """
    leafset = set(tree.leaves)
    zeros = [
        (u, v) for u, v, w in tree.edges if w == 0 and u not in leafset and v not in leafset
    ]
    if not zeros:
        return tree
    root_of = _min_roots(zeros)
    edges = []
    for u, v, w in tree.edges:
        ru, rv = root_of(u), root_of(v)
        if ru != rv:
            edges.append((ru, rv, w))
    return WeightedTree(edges)


def _rooted_form(tree: WeightedTree):
    """Nested tuples (min_leaf, leaf_label_or_None, weight, children).

    The tree must be canonical.  Root: the node adjacent to the smallest
    leaf (for n == 2, the smaller leaf itself).  Children are ordered by
    smallest descendant leaf, which is unique per child, so two trees are
    leaf-isomorphic iff their forms match node for node.
    """
    first = tree.leaves[0]
    if tree.n == 2:
        a, b = tree.leaves
        return (a, None, None, ((a, a, tree.weight(a, b), ()), (b, b, 0, ())))
    root = tree._adj[first][0][0]
    pre, parent = _preorder(tree._adj, root)
    # bottom-up: a node's smallest leaf is its first child's, or its own label
    form = {}
    for v in reversed(pre):
        up, w_in = parent[v]
        kids = sorted(form.pop(y) for y, _ in tree._adj[v] if y != up)
        form[v] = (kids[0][0], None, w_in, tuple(kids)) if kids else (v, v, w_in, ())
    return form[root]


def tree_equal(t1: WeightedTree, t2: WeightedTree, tol=0) -> bool:
    """Leaf-labelled isomorphism of the canonical forms, weights within tol."""
    a = canonicalize(t1)
    b = canonicalize(t2)
    if a.leaves != b.leaves:
        return False

    pending = [(_rooted_form(a), _rooted_form(b))]
    while pending:
        x, y = pending.pop()
        if x[0] != y[0] or x[1] != y[1]:
            return False
        wx, wy = x[2], y[2]
        if (wx is None) != (wy is None):
            return False
        if wx is not None and abs(wx - wy) > tol:
            return False
        if len(x[3]) != len(y[3]):
            return False
        pending.extend(zip(x[3], y[3]))
    return True


def cherries(tree: WeightedTree):
    """All maximal bells of a canonical tree, sorted by smallest member.

    In a canonical tree every twig is a single edge, so a bell is just an
    internal node with >= 2 adjacent leaves.  The 2-leaf tree returns one
    bell with the conventional midpoint stalk (stalk id None) and twig
    lengths of half the edge weight each, so callers never see an empty
    list for valid trees.
    """
    if not tree.is_canonical():
        raise ValueError("cherries() expects a canonical tree")
    if tree.n == 2:
        a, b = tree.leaves
        w = tree.weight(a, b)
        tw = half(w)
        return [Bell(stalk=None, members=(a, b), twig_lengths={a: tw, b: tw})]
    leafset = set(tree.leaves)
    bells = []
    for s in tree.internal_nodes:
        attached = [(y, w) for y, w in tree._adj[s] if y in leafset]
        if len(attached) >= 2:
            members = tuple(sorted(y for y, _ in attached))
            bells.append(
                Bell(stalk=s, members=members, twig_lengths=dict(attached))
            )
    bells.sort(key=lambda b: b.members[0])
    return bells


def cherry_pair_set(tree: WeightedTree):
    """Set of unordered leaf pairs lying in a common bell."""
    pairs = set()
    for bell in cherries(tree):
        pairs.update(bell.pairs())
    return pairs


# --------------------------------------------------------------------- #
# Random generation                                                      #
# --------------------------------------------------------------------- #


def random_tree(
    n: int,
    seed: int,
    weight_min=1,
    weight_max=10,
    binary_only: bool = True,
    mode: str = "rational",
) -> WeightedTree:
    """Deterministic random canonical tree with leaves 1..n.

    Weights are drawn uniformly from [weight_min, weight_max]: in rational
    mode on a grid of 1000 steps (Fractions with small denominators, so
    serialisations stay exact), in float mode as plain uniform floats.
    With ``binary_only`` every internal node has degree 3; otherwise random
    internal edges are contracted into multifurcations.
    """
    if n < 2:
        raise ValueError("random_tree needs n >= 2")
    rng = random.Random(seed)
    wmin, wmax = weight_min, weight_max
    if mode == "rational":
        lo, hi = exact_fraction(wmin), exact_fraction(wmax)
        if lo > hi:
            raise ValueError("weight_min must be <= weight_max")
        span = hi - lo

        def draw():
            return lo + span * Fraction(rng.randint(0, 1000), 1000)

    elif mode == "float":
        lo, hi = float(wmin), float(wmax)
        if lo > hi:
            raise ValueError("weight_min must be <= weight_max")

        def draw():
            return rng.uniform(lo, hi)

    else:
        raise ValueError(f"unknown arithmetic mode {mode!r}")

    if n == 2:
        return WeightedTree([(1, 2, draw())])

    # grow a binary shape by subdividing a random edge per new leaf
    edges = [[1, 2]]
    next_internal = n + 1
    for leaf in range(3, n + 1):
        a, b = edges.pop(rng.randrange(len(edges)))
        v = next_internal
        next_internal += 1
        edges.extend(([a, v], [v, b], [leaf, v]))

    # a random subset of inner edges weighs 0 and contracts into multifurcations
    shape = WeightedTree(
        (a, b, 0 if not binary_only and a > n and rng.random() < 0.35 else 1)
        for a, b in sorted((min(e), max(e)) for e in edges)
    )
    weighted = [(a, b, draw()) for a, b, _ in contract_zero_internal_edges(shape).edges]
    return canonicalize(WeightedTree(weighted))


# --------------------------------------------------------------------- #
# Serialisation: Newick and JSON                                         #
# --------------------------------------------------------------------- #


def _fmt_branch(w) -> str:
    try:
        return f"{float(w):.12g}"
    except OverflowError:
        # exact values beyond the float range: round once to 12 digits
        with localcontext() as ctx:
            ctx.prec = 12
            w = exact_fraction(w)
            dec = (Decimal(w.numerator) / Decimal(w.denominator)).normalize()
        return f"{dec:.12g}"


def to_newick(tree: WeightedTree) -> str:
    """Canonical Newick string, 12 significant digits per branch length.

    Rooted at the internal node adjacent to the smallest leaf; children
    ordered by smallest descendant leaf.  The 2-leaf tree is written with a
    conventional midpoint root: ``(1:w/2,2:w/2);``.
    """
    t = canonicalize(tree)
    if t.n == 2:
        a, b = t.leaves
        tw = _fmt_branch(half(t.weight(a, b)))
        return f"({a}:{tw},{b}:{tw});"
    out = []
    # pending items: literal text, or a node of the rooted form to render
    pending = [_rooted_form(t)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        _, label, w_in, kids = item
        suffix = "" if w_in is None else f":{_fmt_branch(w_in)}"
        if not kids:
            out.append(f"{label}{suffix}")
            continue
        out.append("(")
        pending.append(")" + suffix)
        for k in range(len(kids) - 1, -1, -1):
            pending.append(kids[k])
            if k:
                pending.append(",")
    return "".join(out) + ";"


def parse_newick(text: str, mode: str = "float") -> WeightedTree:
    """Parse standard Newick with branch lengths into a WeightedTree.

    Leaf names must be positive integers; internal names (support values)
    are ignored, as is a length on the root.  A root with one child is a
    stem, not a leaf: the child becomes the root, and the stem's length is
    ignored too.  Every other branch must carry a length.  ``mode``
    selects Fraction or float lengths.

    One walk reads the text: groups are numbered as their "(" is read (in
    preorder), leaf names kept in the order read, and the edges follow
    from that record.  Errors come in that order: the text's, the labels',
    then a missing branch length.
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

    # every node as its text starts (preorder): [parent group, its group
    # number or leaf name, length]; a group is numbered as its "(" is read,
    # and its length is set when it closes
    nodes, names, kids = [], [], []  # kids: children per group
    open_ = []  # the nodes of the groups not yet closed
    while True:
        skip_ws()
        up = open_[-1][1] if open_ else None
        if up is not None:
            kids[up] += 1
        if pos < len(s) and s[pos] == "(":
            pos += 1
            open_.append([up, len(kids), None])
            nodes.append(open_[-1])
            kids.append(0)
            continue
        name = read_token()
        if not name:
            raise error("expected a leaf name")
        names.append(name)
        nodes.append([up, name, read_length()])
        while open_:
            skip_ws()
            if pos < len(s) and s[pos] == ",":
                pos += 1
                break
            if pos >= len(s) or s[pos] != ")":
                raise error("unbalanced parentheses")
            pos += 1
            read_token()  # optional internal name / support — ignored
            open_.pop()[2] = read_length()
        if not open_:
            break
    skip_ws()
    if pos != len(s):
        raise ParseError(f"trailing characters after tree (at char {pos})")

    labels = []
    for name in names:
        try:
            lab = plain_int(name)
        except ValueError:
            raise ParseError(f"leaf name {name!r} is not an integer label") from None
        if lab <= 0:
            raise ParseError(f"leaf label {lab} must be positive")
        labels.append(lab)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate leaf labels")
    if len(labels) < 2:
        raise ParseError("a tree needs at least two leaves")

    # the outermost groups of one child each are stems, whose lengths are
    # ignored like the root's; internal ids follow the largest label in
    # preorder from the first group that branches
    stems = next(g for g, k in enumerate(kids) if k > 1)
    body = nodes[stems + 1 :]
    if any(length is None for *_, length in body):
        raise ParseError("missing branch length")
    base = max(labels) + 1 - stems
    return WeightedTree(
        (base + up, base + me if type(me) is int else int(me), length) for up, me, length in body
    )


def to_json_dict(tree: WeightedTree) -> dict:
    """Machine-readable form: node list plus {u, v, weight} edge records."""
    return {
        "n": tree.n,
        "leaves": list(tree.leaves),
        "nodes": list(tree.nodes),
        "edges": [
            {"u": u, "v": v, "weight": _json_weight(w)} for u, v, w in tree.edges
        ],
    }


def _json_weight(w):
    if isinstance(w, float):
        return w
    return format_number(w)  # strings keep rationals exact in JSON


def _weight_from_json(value, mode):
    """A JSON edge weight: a numeric string, read as :func:`parse_number`
    reads text, or a finite number in the mode's range; else ParseError."""
    try:
        if isinstance(value, str):
            return parse_number(value, mode)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"edge weight {value!r} is not a number")
        if isinstance(value, float) and not math.isfinite(value):
            raise ParseError(f"non-finite edge weight {value!r}")
        return float(value) if mode == "float" else exact_fraction(value)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"bad edge weight: {exc}") from None


def _node_from_json(edge, end):
    """Endpoint *end* ("u" or "v") of a JSON edge record: a JSON integer
    (not a bool, a float or a string), else ParseError naming the edge."""
    node = edge[end]
    if type(node) is not int:
        raise ParseError(f"edge endpoint {end}={node!r} is not an integer in edge {edge!r}")
    return node


def from_json_dict(data: dict, mode: str = "rational") -> WeightedTree:
    """The tree of :func:`to_json_dict`'s form; ParseError for data that is
    not one, edges that form no tree (the constructor's ValueError) too."""
    try:
        return WeightedTree(
            (_node_from_json(e, "u"), _node_from_json(e, "v"), _weight_from_json(e["weight"], mode))
            for e in data["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed tree JSON: {exc}") from None


def to_json(tree: WeightedTree) -> str:
    return json.dumps(to_json_dict(tree), sort_keys=True)


def from_json(text: str, mode: str = "rational") -> WeightedTree:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a decode error, or an over-long or deep value
        raise ParseError(f"bad JSON: {exc}") from None
    return from_json_dict(data, mode)
