"""Grading of one operation's outputs against the answer key.

Each grader returns None when the answer is right and a short reason when
it is wrong.  Trees are read with this file's own Newick and JSON readers
and compared through :mod:`gen`, never through the package.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import gen

NJ_REL_TOL = 1e-6  # Newick lengths carry 12 significant digits
ZERO_EDGE = 1e-9  # float edges this short are not counted as splits


def parse_newick(text):
    """Newick with integer leaf labels and branch lengths -> gen.Tree with
    float weights and the root suppressed.  Iterative, so depth is free."""
    s = text.strip()
    if not s.endswith(";"):
        raise ValueError("Newick must end with ';'")
    s = s[:-1]
    leaves = []
    edges = []  # (child, parent, length)
    stack = []  # open internal nodes: (node, [(child, length)])
    n_internal = 0
    last = None  # node just read or closed, waiting for ',' or ')'
    pos = 0
    while pos < len(s):
        ch = s[pos]
        if ch == "(":
            stack.append((("i", n_internal), []))
            n_internal += 1
            pos += 1
        elif ch in ",)":
            if last is None or not stack:
                raise ValueError(f"malformed Newick at char {pos}")
            stack[-1][1].append(last)
            last = None
            if ch == ")":
                node, kids = stack.pop()
                edges.extend((kid, node, length) for kid, length in kids)
                last = (node, None)
            pos += 1
        elif ch == ":":
            end = pos + 1
            while end < len(s) and s[end] not in ",()":
                end += 1
            last = (last[0], float(s[pos + 1 : end]))
            pos = end
        else:
            end = pos
            while end < len(s) and s[end] not in ",():":
                end += 1
            label = int(s[pos:end])
            leaves.append(label)
            last = (label, None)
            pos = end
    if stack or last is None:
        raise ValueError("unbalanced Newick")
    n = len(leaves)
    if sorted(leaves) != list(range(1, n + 1)):
        raise ValueError("leaf labels are not 1..n")
    ids = {("i", k): n + 1 + k for k in range(n_internal)}
    out = []
    for child, parent, length in edges:
        if length is None:
            raise ValueError("branch without a length")
        out.append((ids.get(child, child), ids[parent], length))
    return _suppress_degree_two(gen.Tree(n, out))


def _suppress_degree_two(tree):
    """Merge the two edges at a degree-2 root into one edge."""
    for node, nbrs in tree.adjacency().items():
        if node > tree.n and len(nbrs) == 2:
            (a, wa), (b, wb) = nbrs
            edges = [e for e in tree.edges if node not in (e[0], e[1])]
            return gen.Tree(tree.n, edges + [(a, b, wa + wb)])
    return tree


def tree_from_json(data, exact):
    """The ``tree.json`` record of a reconstruction report -> gen.Tree."""
    if data["leaves"] != list(range(1, data["n"] + 1)):
        raise ValueError("report tree leaves are not 1..n")
    conv = Fraction if exact else float
    return gen.Tree(data["n"], [(e["u"], e["v"], conv(e["weight"])) for e in data["edges"]])


def distance_matrix(tree):
    """Float n x n path sums: d_ij = sum of w_e over edges separating i, j."""
    pieces = gen.edge_splits(tree)
    side = np.zeros((len(pieces), tree.n))
    for k, (s, _) in enumerate(pieces):
        side[k, [x - 1 for x in s]] = 1.0
    w = np.array([float(w) for _, w in pieces])
    cross = side.T @ (w[:, None] * (1.0 - side))
    return cross + cross.T


def compare_tree(got, inst, how, tol=0):
    """Splits and every pair path sum of ``got`` against the key tree.

    how: "exact" (Fractions, equal), "abs" (within tol) or "rel" (within
    NJ_REL_TOL relative).
    """
    if got.n != inst.n:
        return f"tree has {got.n} leaves, want {inst.n}"
    if how == "exact":
        if gen.splits(got) != inst.splits:
            return "splits differ"
        got_d = gen.path_sums(got)
        bad = next((k for k, v in inst.d.items() if got_d[k] != v), None)
        return None if bad is None else f"path sum {bad}: {got_d[bad]} != {inst.d[bad]}"
    if gen.splits(got, ZERO_EDGE) != inst.splits:
        return "splits differ"
    err = np.abs(distance_matrix(got) - inst.d_matrix)
    limit = tol if how == "abs" else NJ_REL_TOL * np.maximum(1.0, np.abs(inst.d_matrix))
    if np.any(err > limit):
        i, j = np.unravel_index(int(np.argmax(err - limit)), err.shape)
        return f"path sum ({i + 1}, {j + 1}) off by {err[i, j]:.3g}"
    return None


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def grade(op, rc):
    """Reason the finished operation ``op`` is wrong, or None."""
    inst = op.inst
    want_rc = 0 if (op.command == "nj" or inst.realizable) else 2
    if rc != want_rc:
        return f"exit code {rc}, want {want_rc}"
    if op.command == "reconstruct":
        report = json.loads(_read(op.report_path))
        if report["verdict"] != ("realizable" if inst.realizable else "not-realizable"):
            return f"verdict {report['verdict']}"
        if not inst.realizable:
            return None
        exact = op.mode == "rational"
        got = tree_from_json(report["tree"]["json"], exact)
        return compare_tree(got, inst, "exact" if exact else "abs", op.tol)
    if op.command == "check":
        payload = json.loads(_read(op.out_path))
        if payload["realizable"] != inst.realizable:
            return f"realizable={payload['realizable']}"
        if inst.order == 2 and payload["four_point"]["passed"] != inst.realizable:
            return f"four_point.passed={payload['four_point']['passed']}"
        return None
    if op.command == "oracle":
        payload = json.loads(_read(op.out_path))
        if payload["realizable"] != inst.realizable:
            return f"realizable={payload['realizable']}"
        if not inst.realizable:
            return None
        return compare_tree(parse_newick(payload["tree"]), inst, "rel")
    if op.command == "nj":
        got = parse_newick(_read(op.out_path))
        if inst.d is None:  # non-additive input: any tree on 1..n will do
            return None if got.n == inst.n else f"tree has {got.n} leaves"
        return compare_tree(got, inst, "rel")
    raise ValueError(f"no grader for {op.command}")


def to_newick(tree):
    """Newick of a gen.Tree rooted at the neighbour of leaf 1."""
    adj = tree.adjacency()
    root = adj[1][0][0]

    def render(v, parent):
        kids = [(y, w) for y, w in adj[v] if y != parent]
        if not kids:
            return str(v)
        return "(" + ",".join(f"{render(y, v)}:{float(w)!r}" for y, w in kids) + ")"

    return render(root, None) + ";"


def self_check(workdir):
    """True when the grader passes a right answer and fails wrong ones: a
    tree with one edge moved, and a wrong exit code."""
    import os

    import workloads

    os.makedirs(workdir, exist_ok=True)
    inst = workloads.Maker("self-check", 0).pairs("self", 6, "grid", False, False)
    key_tree = inst.tree
    op = workloads.Op("nj", inst, out_path=os.path.join(workdir, "out.txt"))
    u, v, w = key_tree.edges[0]
    wrong = gen.Tree(inst.n, [(u, v, w + 1)] + key_tree.edges[1:])
    verdicts = []
    for tree_, rc in ((key_tree, 0), (wrong, 0), (key_tree, 1)):
        with open(op.out_path, "w", encoding="utf-8") as fh:
            fh.write(to_newick(tree_) + "\n")
        verdicts.append(grade(op, rc) is None)
    return verdicts == [True, False, False]
