"""Timing wrappers around the package's public functions, from outside.

The package binds imported names at import time (``from .weights import
star_table``), so a wrapper has to replace the name in every module
namespace that calls it, not only where it is defined.  ``LAYERS`` lists
each (namespace, attribute) pair with the layer name it is reported under
and an optional work counter computed from the arguments or the result.

Spans carry an operation id and a parent span id and stay in memory;
``Tracer.dump`` writes them when the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of
one operation sum to the duration of its root span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from math import comb

from treeweights import cli, nj, oracle, reconstruct, tree, weights


def _entries_parse(c, args, kwargs, result):
    c["weights.parse.entries"] += comb(result.n, result.order)


def _dense_kind(c, args, kwargs, result):
    c["weights.dense." + ("none" if result is None else result[0])] += 1


def _entries_star_table(c, args, kwargs, result):
    w = args[0]
    rest = w.n - 2 if w.order == 2 else comb(w.n - 2, 2)
    c["weights.star_table.entries"] += comb(w.n, 2) * rest


def _entries_derived(c, args, kwargs, result):
    n = args[0].n
    c["weights.derived_pairwise_consistent.entries"] += comb(n, 2) * comb(n - 2, 3)


def _bells(c, args, kwargs, result):
    c["reconstruct.complete_pseudobells.bells"] += len(result)


def _entries_prune(c, args, kwargs, result):
    reduced, _ = result
    c["reconstruct.prune.entries"] += comb(reduced.n, reduced.order)


def _entries_s_matrix(c, args, kwargs, result):
    c["nj.s_matrix.entries"] += len(result.entries)


def _scan(c, args, kwargs, result):
    c["nj.cherry_scan.entries_examined"] += result.entries_examined
    c["nj.cherry_scan.pairs_found"] += len(result.pairs)


def _pruning_rounds(c, args, kwargs, result):
    _, rounds = result
    c["nj.pruning.rounds"] += len(rounds)
    c["nj.pruning.fallback_rounds"] += sum(1 for r in rounds if r["fallback"])


def _triple_nj_rounds(c, args, kwargs, result):
    c["nj.triple_rounds"] += max(args[0].n - 5, 0)


def _fit_hit(c, args, kwargs, result):
    c["oracle.fit_weights.hits"] += result is not None


_TOPOLOGY_COUNT = {}


def _oracle_topologies(c, args, kwargs, result):
    n = args[0].n
    if n not in _TOPOLOGY_COUNT:
        _TOPOLOGY_COUNT[n] = sum(1 for t in oracle.enumerate_topologies(n, True) if t.n == n)
    c["oracle.topologies"] += _TOPOLOGY_COUNT[n]


# (namespace, attribute, layer, counter)
LAYERS = [
    (weights, "parse_doubles", "weights.parse", _entries_parse),
    (weights, "parse_triples", "weights.parse", _entries_parse),
    (weights.DoubleWeights, "__init__", "weights.container_init", None),
    (weights.TripleWeights, "__init__", "weights.container_init", None),
    (weights.DoubleWeights, "dense", "weights.dense", _dense_kind),
    (weights.TripleWeights, "dense", "weights.dense", _dense_kind),
    (weights, "star_table", "weights.star_table", _entries_star_table),
    (reconstruct, "star_table", "weights.star_table", _entries_star_table),
    (nj, "star_condition_triples", "weights.star_condition", None),
    (reconstruct, "derived_pairwise_consistent", "weights.derived_pairwise_consistent",
     _entries_derived),
    (weights, "buneman_check", "weights.buneman_check", None),
    (weights, "metric_warnings", "weights.metric_warnings", None),
    (reconstruct, "doubles_of_tree", "weights.verify", None),
    (reconstruct, "triples_of_tree", "weights.verify", None),
    (tree, "all_pairwise_weights", "tree.all_pairwise_weights", None),
    (reconstruct, "reconstruct_from_doubles", "reconstruct.driver", None),
    (reconstruct, "reconstruct_from_triples", "reconstruct.driver", None),
    (reconstruct, "complete_pseudobells", "reconstruct.complete_pseudobells", _bells),
    (reconstruct, "prune_doubles", "reconstruct.prune", _entries_prune),
    (reconstruct, "prune_triples", "reconstruct.prune", _entries_prune),
    (nj, "prune_triples", "reconstruct.prune", _entries_prune),
    (reconstruct, "base_case_doubles", "reconstruct.base_case", None),
    (reconstruct, "_base_case_triples_5_record", "reconstruct.base_case", None),
    (nj, "nj_classic", "nj.driver", None),
    (nj, "nj_pruning", "nj.driver", None),
    (nj, "nj_pruning_detailed", "nj.pruning", _pruning_rounds),
    (nj, "nj_from_triples", "nj.driver", _triple_nj_rounds),
    (nj, "s_matrix", "nj.s_matrix", _entries_s_matrix),
    (nj, "s_matrix_triples", "nj.s_matrix", _entries_s_matrix),
    (nj, "cherry_scan", "nj.cherry_scan", _scan),
    (nj, "_classic_join", "nj.join", None),
    (nj, "_merge_bells", "nj.join", None),
    (tree, "to_newick", "tree.to_newick", None),
    (tree, "to_json_dict", "tree.to_json_dict", None),
    (reconstruct, "contract_zero_internal_edges", "tree.contract", None),
    (nj, "contract_zero_internal_edges", "tree.contract", None),
    (oracle, "contract_zero_internal_edges", "tree.contract", None),
    (oracle, "realizable_brute", "oracle.realizable_brute", _oracle_topologies),
    (oracle, "fit_weights", "oracle.fit_weights", _fit_hit),
]

ROOT = "cli.main"
SPAN_NAMES = sorted({layer for _, _, layer, _ in LAYERS} | {ROOT})

# work counts, summed by the counters above (levels from --report files)
COUNTERS = [
    "weights.parse.entries",
    "weights.dense.int",
    "weights.dense.float",
    "weights.dense.none",
    "weights.star_table.entries",
    "weights.derived_pairwise_consistent.entries",
    "reconstruct.complete_pseudobells.bells",
    "reconstruct.prune.entries",
    "reconstruct.levels",
    "reconstruct.pseudobells",
    "nj.s_matrix.entries",
    "nj.cherry_scan.entries_examined",
    "nj.cherry_scan.pairs_found",
    "nj.pruning.rounds",
    "nj.pruning.fallback_rounds",
    "nj.triple_rounds",
    "oracle.topologies",
    "oracle.fit_weights.hits",
]
RATIOS = [
    "oracle.fit_weights.hit_ratio",
    "nj.confirm_ratio",
    "trace.ops_per_s_untraced",
    "trace.ops_per_s_traced",
    "trace.overhead",
    "trace.self_coverage",
]


def per_layer_names():
    """Every per-layer metric, in report order."""
    spans = [f"{layer}.{stat}" for layer in SPAN_NAMES for stat in ("calls", "self_s")]
    return spans + COUNTERS + RATIOS


class Tracer:
    """Installs the wrappers for one operation at a time and collects spans
    (op, span id, parent id, layer, start, end) and counters."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._next_id = 0
        self._op = None
        self._patches = [
            (owner, attr, owner.__dict__[attr], self._wrap(layer, owner.__dict__[attr], counter))
            for owner, attr, layer, counter in LAYERS
        ]
        self._main = self._wrap(ROOT, cli.main, None)

    def _wrap(self, layer, fn, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((self._op, sid, parent, layer, start, end))
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return wrapper

    def run(self, op_id, argv):
        """``cli.main(argv)`` with every layer wrapped; returns its exit code."""
        self._op = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self._main(argv)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def self_times(self, op_id=None):
        """{layer: (calls, self seconds)} over all spans, or one operation's."""
        child = {}
        for op, sid, parent, layer, start, end in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for op, sid, parent, layer, start, end in self.spans:
            if op_id is not None and op != op_id:
                continue
            calls, total = out.get(layer, (0, 0.0))
            out[layer] = (calls + 1, total + (end - start) - child.get(sid, 0.0))
        return out

    def root_time(self, op_id):
        return sum(end - start for op, _, _, layer, start, end in self.spans
                   if op == op_id and layer == ROOT)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, layer, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": layer, "start": start, "end": end}) + "\n")
