"""Tree data model: weight queries, canonical form, generation, IO."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeweights import (
    Bell,
    LabelError,
    ParseError,
    WeightedTree,
    canonicalize,
    cherries,
    cherry_pair_set,
    contract_zero_internal_edges,
    doubles_of_tree,
    from_json,
    k_weight,
    parse_newick,
    random_tree,
    to_json,
    to_newick,
    tree_equal,
    triples_of_tree,
)
from treeweights.tree import from_json_dict, to_json_dict
from treeweights.weights import _preorder
from conftest import steiner_brute
from reference_loops import canonicalize_loop, parse_newick_walks
from test_bulk_reader import edited

_NEWICK_EDITS = "(),:;0123456789.-/ \tx"


def _read_or_error(parse, text, mode):
    """The edges *parse* reads from *text* (floats by ``hex``), or its
    ParseError text."""
    try:
        tree = parse(text, mode)
    except ParseError as exc:
        return "error", str(exc)
    return "tree", [(u, v, type(w), w.hex() if isinstance(w, float) else w) for u, v, w in tree.edges]


class TestWeightQueries:
    def test_single_edge(self):
        assert k_weight(WeightedTree([(1, 2, 7)]), [1, 2]) == 7

    def test_caterpillar_pairwise(self, caterpillar):
        assert k_weight(caterpillar, [1, 2]) == 3
        assert k_weight(caterpillar, [1, 4]) == 18

    def test_unknown_label(self, caterpillar):
        with pytest.raises(LabelError):
            k_weight(caterpillar, [1, 99])

    def test_equal_labels(self, caterpillar):
        with pytest.raises(ValueError):
            k_weight(caterpillar, [3, 3])

    def test_triple_weights(self, caterpillar):
        assert k_weight(caterpillar, [1, 2, 3]) == 12
        assert k_weight(caterpillar, [3, 4, 5]) == 19

    def test_triple_star(self):
        star = WeightedTree([(1, 4, 1), (2, 4, 1), (3, 4, 1)])
        assert k_weight(star, [1, 2, 3]) == 3

    def test_triple_distinct(self, caterpillar):
        with pytest.raises(ValueError):
            k_weight(caterpillar, [1, 1, 2])

    def test_k_weight_full_and_pair(self, caterpillar):
        assert k_weight(caterpillar, {1, 2, 3, 4, 5}) == 28
        assert k_weight(caterpillar, [1, 2]) == doubles_of_tree(caterpillar).value(1, 2)

    def test_k_weight_vs_brute(self, caterpillar):
        assert k_weight(caterpillar, [1, 2, 4, 5]) == 25
        assert steiner_brute(caterpillar, [1, 2, 4, 5]) == 25
        for subset in ([1, 3, 5], [2, 3, 4], [1, 2, 3, 4], [2, 5]):
            assert k_weight(caterpillar, subset) == steiner_brute(caterpillar, subset)

    def test_k_weight_too_small(self, caterpillar):
        with pytest.raises(ValueError):
            k_weight(caterpillar, [1])

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_k_weight_monotone_for_positive_weights(self, seed):
        t = random_tree(7, seed, Fraction(1, 10), 10)
        subset = [1, 3]
        previous = k_weight(t, subset)
        for extra in (5, 2, 7):
            subset.append(extra)
            current = k_weight(t, subset)
            assert current >= previous
            previous = current

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_triple_is_half_pairwise_sum(self, seed):
        t = random_tree(6, seed)
        d = doubles_of_tree(t)
        for i, j, k in ((1, 2, 3), (2, 4, 6), (1, 5, 6)):
            total = d.value(i, j) + d.value(i, k) + d.value(j, k)
            assert k_weight(t, [i, j, k]) == Fraction(1, 2) * total

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_walk_matches_kernel(self, n, mode):
        # the walk and the kernel add the edges in different orders, and a
        # triple is the kernel's half-sum of three pairs, so float values
        # may differ in the last bits (abs for values near 0)
        for seed in range(4):
            t = random_tree(n, seed, weight_min=-3, binary_only=seed % 2 == 0, mode=mode)
            for kernel in (doubles_of_tree(t), triples_of_tree(t)):
                for key, want in kernel.items():
                    got = k_weight(t, key)
                    if mode == "rational":
                        assert (type(got), got) == (Fraction, want), key
                    else:
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), key


class TestCanonicalize:
    def test_degree_two_suppression(self):
        path = WeightedTree([(1, 3, Fraction(3)), (3, 2, Fraction(4))])
        assert canonicalize(path).edges == ((1, 2, Fraction(7)),)

    def test_chain(self):
        chain = WeightedTree([(1, 10, 1), (10, 11, 2), (11, 2, 3)])
        assert canonicalize(chain).edges == ((1, 2, 6),)

    def test_fixpoint(self, caterpillar):
        assert canonicalize(caterpillar).edges == caterpillar.edges

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_subdivision_preserves_k_weights(self, seed, data):
        t = random_tree(6, seed)
        # split a random edge into two halves through a fresh node
        edges = list(t.edges)
        idx = data.draw(st.integers(0, len(edges) - 1))
        u, v, w = edges.pop(idx)
        mid = max(t.nodes) + 1
        half = Fraction(1, 2) * w
        edges += [(u, mid, half), (mid, v, half)]
        split = WeightedTree(edges)
        assert not split.is_canonical()
        back = canonicalize(split)
        assert tree_equal(back, t, 0)
        for subset in ([1, 2, 3], [2, 4, 5, 6], [1, 6]):
            assert k_weight(back, subset) == k_weight(t, subset)

    @given(st.integers(0, 10**6), st.sampled_from(["rational", "float"]), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_is_the_suppression_loop(self, seed, mode, count):
        """Degree-2 nodes inserted into random edges, chains of them too,
        under shuffled node ids: the one pass gives the loop's edges, weight
        types and float bits."""
        rng = random.Random(seed)
        t = random_tree(rng.randint(2, 12), seed, binary_only=False, mode=mode)
        edges = list(t.edges)
        ids = rng.sample(range(max(t.nodes) + 1, max(t.nodes) + 1 + 4 * count), count)
        for mid in ids:
            u, v, w = edges.pop(rng.randrange(len(edges)))
            part = w * (Fraction(rng.randint(0, 8), 8) if mode == "rational" else rng.random())
            edges += [(u, mid, part), (mid, v, w - part)]
        split = WeightedTree(edges)
        got, want = canonicalize(split), canonicalize_loop(split)
        assert [(u, v, type(w), repr(w)) for u, v, w in got.edges] == [
            (u, v, type(w), repr(w)) for u, v, w in want.edges
        ]

    def test_tree_equal_self_canonicalized(self, caterpillar):
        assert tree_equal(caterpillar, canonicalize(caterpillar), 0)

    def test_zero_edge_contraction(self):
        t = WeightedTree(
            [(1, 6, 1), (2, 6, 2), (6, 7, 0), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        c = contract_zero_internal_edges(t)
        assert len(c.internal_nodes) == 2
        # zero twigs stay
        t2 = WeightedTree([(1, 4, 0), (2, 4, 1), (3, 4, 2)])
        assert contract_zero_internal_edges(t2).edges == t2.edges

    def test_zero_chain_takes_the_smallest_id(self):
        # the zero chain 12 - 9 - 11 - 8 merges into its smallest node, 8
        t = WeightedTree(
            [(1, 12, 1), (2, 12, 2), (12, 9, 0), (3, 9, 3), (9, 11, 0), (4, 11, 4),
             (11, 8, 0), (8, 10, 6), (5, 10, 5), (6, 10, 6), (8, 7, 7)]
        )
        assert contract_zero_internal_edges(t).edges == (
            (1, 8, 1), (2, 8, 2), (3, 8, 3), (4, 8, 4), (5, 10, 5), (6, 10, 6),
            (7, 8, 7), (8, 10, 6),
        )


class TestNoRebuildWhenNothingChanges:
    """canonicalize and contract_zero_internal_edges return their input
    when there is nothing to suppress or contract; trees that do need
    them are written and compared as before."""

    def test_canonical_tree_is_returned_as_is(self, caterpillar, quartet):
        for t in (caterpillar, quartet, random_tree(30, 1, binary_only=False)):
            assert canonicalize(t) is t

    def test_no_zero_internal_edge_returns_the_input(self, caterpillar):
        # a zero twig is not contracted either
        twig = WeightedTree([(1, 4, 0), (2, 4, 1), (3, 4, 2)])
        for t in (caterpillar, twig, random_tree(30, 2, mode="float")):
            assert contract_zero_internal_edges(t) is t

    def test_degree_two_node_still_suppressed(self, quartet):
        # node 9 splits the quartet's inner edge of 5 into 2 + 3
        sub = WeightedTree([(1, 5, 1), (2, 5, 2), (5, 9, 2), (9, 6, 3), (3, 6, 3), (4, 6, 4)])
        assert canonicalize(sub) is not sub
        assert canonicalize(sub).edges == quartet.edges
        assert to_newick(sub) == to_newick(quartet) == "(1:1,2:2,(3:3,4:4):5);"
        assert tree_equal(sub, quartet, 0) and tree_equal(quartet, sub, 0)

    def test_zero_internal_edge_still_contracted(self):
        t = WeightedTree(
            [(1, 6, 1), (2, 6, 2), (6, 7, 0), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        c = contract_zero_internal_edges(t)
        assert c is not t
        assert c.edges == ((1, 6, 1), (2, 6, 2), (3, 6, 3), (4, 8, 4), (5, 8, 5), (6, 8, 7))
        assert to_newick(t) == "(1:1,2:2,(3:3,(4:4,5:5):7):0);"
        assert to_newick(c) == "(1:1,2:2,3:3,(4:4,5:5):7);"
        assert not tree_equal(t, c, 0) and tree_equal(c, c, 0)


class TestTreeEqual:
    def test_reflexive(self, caterpillar):
        assert tree_equal(caterpillar, caterpillar, 0)

    def test_weight_mismatch_beyond_tol(self, caterpillar):
        other = WeightedTree(
            [(1, 6, 1.5), (2, 6, 2), (6, 7, 6), (3, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        assert not tree_equal(caterpillar, other, 0.1)
        assert tree_equal(caterpillar, other, 0.5)

    def test_topology_mismatch(self, caterpillar):
        swapped = WeightedTree(
            [(1, 6, 1), (3, 6, 2), (6, 7, 6), (2, 7, 3), (7, 8, 7), (4, 8, 4), (5, 8, 5)]
        )
        assert not tree_equal(caterpillar, swapped, 10)

    def test_leaf_set_mismatch(self, caterpillar, quartet):
        assert not tree_equal(caterpillar, quartet, 100)


class TestRandomTree:
    def test_two_leaves_forced(self):
        t = random_tree(2, 123, 1, 1)
        assert t.edges == ((1, 2, Fraction(1)),)

    def test_binary_counts(self):
        t = random_tree(5, 7, Fraction(1, 10), 10, binary_only=True)
        assert len(t.internal_nodes) == 3
        assert len(t.edges) == 7

    def test_deterministic(self):
        assert tree_equal(random_tree(9, 4), random_tree(9, 4), 0)
        assert to_newick(random_tree(9, 4)) == to_newick(random_tree(9, 4))

    def test_weights_in_range(self):
        t = random_tree(10, 11, 2, 3)
        assert all(2 <= w <= 3 for _, _, w in t.edges)

    def test_float_mode(self):
        t = random_tree(6, 5, 0.5, 1.5, mode="float")
        assert all(isinstance(w, float) for _, _, w in t.edges)

    def test_multifurcating_valid_and_canonical(self):
        for seed in range(12):
            t = random_tree(8, seed, binary_only=False)
            assert t.is_canonical()
            assert t.leaves == tuple(range(1, 9))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            random_tree(1, 0)

    @pytest.mark.parametrize(
        "n, seed, mode, newick, internal",
        [
            (6, 0, "rational",
             "(1:8.641,(((2:3.79,6:6.373):3.007,4:5.392):9.217,3:9.919):9.361,5:4.294);",
             (7, 8, 9, 10)),
            (9, 3, "rational",
             "(1:7.606,2:5.329,(3:5.977,4:8.704,(5:6.058,7:4.654,8:6.886):3.133):2.386,"
             "6:5.383,9:8.929);",
             (10, 11, 14)),
            (12, 5, "rational",
             "(1:9.442,(2:8.992,(3:8.056,(5:2.467,(6:8.02,7:8.344,9:2.278,10:6.688,"
             "11:6.688):9.955):1.009):2.161,4:4.582,12:5.095):2.215,8:1.657);",
             (13, 15, 16, 17, 18)),
            (6, 0, "float",
             "(1:8.46867613293,(((2:9.71019995428,6:2.25346334678):8.19462316673,"
             "4:9.02494593839):2.2577120647,3:4.22244437225):1.85347687129,5:2.96598454224);",
             (7, 8, 9, 10)),
            (9, 3, "float",
             "(1:9.96080351959,2:5.2323715677,(3:8.52815306147,4:5.28717887829,"
             "(5:6.7516132649,7:6.71374592457,8:8.81240776429):7.04270327833):7.67126670581,"
             "6:2.35554781621,9:5.70863089345);",
             (10, 11, 14)),
            (12, 5, "float",
             "(1:9.24710834628,(2:7.89152906466,(3:2.43643791122,(5:2.24890676559,"
             "(6:6.5570726842,7:2.14029309295,9:8.84264270252,10:2.88510744246,"
             "11:2.93933052302):5.85301121984):9.65330190055):8.85166988893,"
             "4:8.17432292288,12:9.84178997943):3.60374650972,8:1.01597375982);",
             (13, 15, 16, 17, 18)),
        ],
    )
    def test_multifurcating_pinned(self, n, seed, mode, newick, internal):
        # the shape, the merged nodes' ids and the weights drawn per edge
        t = random_tree(n, seed, binary_only=False, mode=mode)
        assert to_newick(t) == newick
        assert t.internal_nodes == internal
        weight_type = Fraction if mode == "rational" else float
        assert all(type(w) is weight_type for _, _, w in t.edges)

    @pytest.mark.parametrize("seed", range(6))
    def test_binary_trees_have_cherries(self, seed):
        t = random_tree(4 + seed, seed)
        assert cherries(t)


class TestCherries:
    def test_caterpillar(self, caterpillar):
        bells = cherries(caterpillar)
        assert [b.members for b in bells] == [(1, 2), (4, 5)]
        assert bells[0].twig_lengths == {1: 1, 2: 2}
        assert bells[1].twig_lengths == {4: 4, 5: 5}

    def test_star(self):
        star = WeightedTree([(i, 9, i) for i in range(1, 5)])
        bells = cherries(star)
        assert len(bells) == 1 and bells[0].members == (1, 2, 3, 4)

    def test_two_leaf_midpoint_convention(self):
        bell = cherries(WeightedTree([(1, 2, 7)]))[0]
        assert bell.stalk is None
        assert bell.members == (1, 2)
        assert bell.twig_lengths == {1: Fraction(7, 2), 2: Fraction(7, 2)}

    def test_requires_canonical(self):
        split = WeightedTree([(1, 3, 1), (3, 4, 1), (4, 2, 1), (4, 5, 1)])
        # node 3 is an internal degree-2 node
        with pytest.raises(ValueError):
            cherries(split)

    def test_pair_set(self, caterpillar):
        assert cherry_pair_set(caterpillar) == {(1, 2), (4, 5)}


class TestNewick:
    def test_emit_caterpillar(self, caterpillar):
        assert to_newick(caterpillar) == "(1:1,2:2,(3:3,(4:4,5:5):7):6);"

    def test_round_trip_exact(self, caterpillar):
        back = parse_newick(to_newick(caterpillar), mode="rational")
        assert tree_equal(back, caterpillar, 0)

    def test_two_leaf_midpoint_root(self):
        t = WeightedTree([(1, 2, 7)])
        s = to_newick(t)
        assert s == "(1:3.5,2:3.5);"
        assert tree_equal(parse_newick(s, "rational"), t, 0)

    def test_twelve_significant_digits(self):
        t = WeightedTree([(1, 2, 1.0000000000001)])  # 13 significant digits
        assert to_newick(t) == "(1:0.5,2:0.5);"

    def test_branch_beyond_float_range(self):
        big = WeightedTree([(1, 4, 10**400), (2, 4, Fraction(-(2**1100), 3)), (3, 4, 1)])
        assert to_newick(big) == "(1:1e+400,2:-4.5276617635e+330,3:1);"
        # values inside the float range keep the float formatting
        near = WeightedTree([(1, 4, Fraction(10**300, 3)), (2, 4, 2), (3, 4, 1)])
        assert to_newick(near) == f"(1:{10**300 / 3:.12g},2:2,3:1);"

    def test_parse_rooted_binary(self):
        t = parse_newick("((1:1,2:2):3,3:4);", "rational")
        assert k_weight(t, [1, 3]) == 8

    @pytest.mark.parametrize(
        "bad",
        [
            "(1:1,2:2)",  # missing semicolon
            "(1:1,2);",  # missing branch length
            "(x:1,2:2);",  # non-integer label
            "(1:1,1:2);",  # duplicate labels
            "(1:1,2:2));",  # unbalanced
            "(1:1/0,2:2);",  # zero denominator
            "(1:inf,2:2);",  # infinite branch length
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_newick(bad)

    def test_root_stem_dropped(self):
        # a root with one child is a stem, not a leaf: its child is the root
        t = parse_newick("((1:1,2:2):3);", "rational")
        assert t.leaves == (1, 2) and k_weight(t, [1, 2]) == 3
        t = parse_newick("(((1:1,2:2,4:1):3):4);", "rational")
        assert t.leaves == (1, 2, 4)
        assert to_newick(t) == "(1:1,2:2,4:1);"
        with pytest.raises(ParseError, match="a tree needs at least two leaves"):
            parse_newick("(1:1);")

    def test_deep_caterpillar_round_trip(self):
        # the walks are iterative, so depth is not bounded by recursion
        n = 3000
        edges = [(1, n + 1, 1), (2, n + 1, 2)]
        for k in range(3, n):
            edges += [(n + k - 2, n + k - 1, k), (k, n + k - 1, Fraction(k, 7))]
        edges.append((n, 2 * n - 2, n))
        cat = WeightedTree(edges)
        text = to_newick(cat)
        assert text.startswith("(1:1,2:2,(3:0.428571428571,(4:0.571428571429,")
        back = parse_newick(text, "rational")
        assert to_newick(back) == text
        assert tree_equal(back, cat, 1e-9)
        assert tree_equal(cat, cat, 0)
        heavier = WeightedTree([(u, v, w + (n in (u, v))) for u, v, w in edges])
        assert not tree_equal(heavier, cat, 0)

    @given(st.integers(1000, 2000), st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_deep_caterpillars_round_trip(self, n, seed):
        # shuffled labels, weights on a quarter grid (exact in 12 digits)
        rng = random.Random(seed)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)

        def w():
            return Fraction(rng.randint(1, 4000), 4)

        edges = [(labels[0], n + 1, w()), (labels[1], n + 1, w())]
        for k in range(2, n - 1):
            edges += [(n + k - 1, n + k, w()), (labels[k], n + k, w())]
        edges.append((labels[n - 1], 2 * n - 2, w()))
        cat = WeightedTree(edges)
        assert tree_equal(parse_newick(to_newick(cat), "rational"), cat, 0)

    @given(st.integers(0, 10**6), st.integers(3, 10))
    @settings(max_examples=40, deadline=None)
    def test_random_round_trip(self, seed, n):
        t = random_tree(n, seed, binary_only=seed % 2 == 0)
        assert tree_equal(parse_newick(to_newick(t), "rational"), t, 0)

    @given(
        st.integers(0, 10**6),
        st.integers(2, 12),
        st.sampled_from(["rational", "float"]),
        st.booleans(),
        st.lists(st.sampled_from(["", "x", "7", "0.5"]), max_size=2),
        st.sampled_from(["", " ", "\t", " \n "]),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.sampled_from(_NEWICK_EDITS)),
                 max_size=3),
    )
    @settings(max_examples=400, deadline=None)
    def test_one_walk_reads_as_the_walks_did(self, seed, n, mode, binary, stems, space, edits):
        # a tree's Newick in stems with internal names, spaced out, then
        # edited: the same edges, weights bit for bit, or the same error
        text = to_newick(random_tree(n, seed, binary_only=binary, mode=mode))[:-1]
        for name in stems:
            text = f"({text}){name}" + (":3" if name else "")
        text = text.replace(",", f"{space},{space}").replace("(", f"({space}") + ";"
        text = edited(text, edits)
        assert _read_or_error(parse_newick, text, mode) == _read_or_error(
            parse_newick_walks, text, mode
        )

    def test_internal_names_and_stems(self):
        t = parse_newick("(( (1:1,2:2)x:3 ,\t3:4 )y:5);", "rational")
        assert to_newick(t) == to_newick(parse_newick("(1:1,2:2,3:7);", "rational"))
        # groups take their ids in the order read, after the largest label
        assert t.edges == ((1, 5, 1), (2, 5, 2), (3, 4, 4), (4, 5, 3))


class TestJson:
    def test_round_trip(self, caterpillar):
        assert tree_equal(from_json(to_json(caterpillar)), caterpillar, 0)

    def test_rational_weights_survive(self):
        t = WeightedTree([(1, 2, Fraction(1, 3))])
        back = from_json(to_json(t))
        assert back.weight(1, 2) == Fraction(1, 3)

    def test_float_weights(self):
        t = WeightedTree([(1, 2, 0.125)])
        back = from_json(to_json(t), mode="float")
        assert back.weight(1, 2) == 0.125

    @staticmethod
    def _edge(weight_text, mode):
        return from_json(f'{{"edges": [{{"u": 1, "v": 2, "weight": {weight_text}}}]}}', mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_weights_refused(self, text, mode):
        with pytest.raises(ParseError):
            self._edge(text, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("text", ["true", "false"])
    def test_bool_weights_refused(self, text, mode):
        with pytest.raises(ParseError):
            self._edge(text, mode)

    def test_out_of_float_range_int_refused(self):
        with pytest.raises(ParseError):
            self._edge("1" + "0" * 400, "float")
        # exact mode reads the same integer exactly
        assert self._edge("1" + "0" * 400, "rational").weight(1, 2) == 10**400

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_bad_weight_strings_refused(self, mode):
        for text in ('"abc"', '"1/0"', '"inf"'):
            with pytest.raises(ParseError):
                self._edge(text, mode)

    @pytest.mark.parametrize("end", ["u", "v"])
    @pytest.mark.parametrize("node", [1.9, True, "3", 2.0])
    def test_endpoints_must_be_json_integers(self, end, node):
        # int() would read 1.9 and True as label 1, "3" as 3 and 2.0 as 2
        edge = {"u": 1, "v": 3, "weight": 1, end: node}
        with pytest.raises(ParseError, match=f"{end}={node!r} .* in edge"):
            from_json_dict({"edges": [edge, {"u": 2, "v": 3, "weight": 1}]})

    @given(st.integers(0, 10**6), st.integers(2, 12), st.sampled_from(["rational", "float"]))
    @settings(max_examples=30, deadline=None)
    def test_json_dict_round_trip(self, seed, n, mode):
        t = random_tree(n, seed, binary_only=seed % 2 == 0, mode=mode)
        back = from_json_dict(json.loads(json.dumps(to_json_dict(t))), mode)
        assert back.edges == t.edges and to_json_dict(back) == to_json_dict(t)

    @pytest.mark.parametrize(
        "edges, why",
        [
            ([(1, 1)], "self-loop at node 1"),
            ([], "a tree needs at least one edge"),
            ([(1, 2), (2, 1)], "duplicate edge"),
            ([(1, 4), (2, 4), (1, 2)], "not a tree"),  # a cycle
            ([(1, 2), (3, 4), (4, 5), (3, 5)], "not connected"),
            ([(0, 2)], "node ids must be positive"),
            ([(-1, 2), (2, 3)], "node ids must be positive"),
        ],
    )
    def test_edge_lists_that_are_no_tree_refused(self, edges, why):
        # the constructor's refusal, as the ParseError of malformed JSON
        text = json.dumps({"edges": [{"u": u, "v": v, "weight": 1} for u, v in edges]})
        with pytest.raises(ParseError, match=f"malformed tree JSON: .*{why}"):
            from_json(text)

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000])
    def test_over_long_number_and_deep_nesting_refused(self, text):
        # json.loads raises ValueError past Python's int digit limit and
        # RecursionError on deep nesting, not JSONDecodeError
        with pytest.raises(ParseError, match="bad JSON"):
            from_json(text)

    @given(
        st.integers(0, 10**6),
        st.integers(2, 8),
        st.sampled_from(["rational", "float"]),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.sampled_from('{}[]":,-.0123456789 eux')),
                 min_size=1, max_size=3),
    )
    @settings(max_examples=500, deadline=None)
    def test_edited_json_is_a_tree_or_a_parse_error(self, seed, n, mode, edits):
        text = edited(to_json(random_tree(n, seed, binary_only=seed % 2 == 0, mode=mode)), edits)
        try:
            tree = from_json(text, mode)
        except ParseError:
            return
        assert isinstance(tree, WeightedTree)

    def test_from_json_dict_refuses_nan(self):
        edges = [{"u": 1, "v": 2, "weight": float("nan")}]
        for mode in ("float", "rational"):
            with pytest.raises(ParseError):
                from_json_dict({"edges": edges}, mode)

    def test_finite_numbers_read_as_before(self):
        for text, mode, want in [
            ("3", "float", 3.0),
            ("-0.0", "float", -0.0),
            ("0.1", "float", 0.1),
            ("2.5e-3", "float", 0.0025),
            ("3", "rational", Fraction(3)),
            ("0.1", "rational", Fraction(1, 10)),
            ("-2.5e-3", "rational", Fraction(-1, 400)),
            ('"1/3"', "rational", Fraction(1, 3)),
            ('"1/4"', "float", 0.25),
        ]:
            got = self._edge(text, mode).weight(1, 2)
            assert (type(got), repr(got)) == (type(want), repr(want)), (text, mode)


class TestValidation:
    def test_not_a_tree(self):
        with pytest.raises(ValueError):
            WeightedTree([(1, 2, 1), (2, 3, 1), (3, 1, 1)])

    def test_disconnected(self):
        with pytest.raises(ValueError):
            WeightedTree([(1, 2, 1), (3, 4, 1), (1, 3, 1), (2, 4, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            WeightedTree([(1, 2, 1), (2, 1, 2)])

    def test_self_loop(self):
        with pytest.raises(ValueError):
            WeightedTree([(1, 1, 1)])

    def test_bool_node_refused(self):
        # True == 1, and to_newick would write it as a leaf named "True"
        for edges in ([(True, 4, 1), (2, 4, 1), (3, 4, 1)], [(1, 4, 1), (2, 4, 1), (3, True, 1)]):
            with pytest.raises(ValueError, match="node ids must be ints"):
                WeightedTree(edges)

    def test_bell_pairs_helper(self):
        b = Bell(stalk=9, members=(1, 2, 5), twig_lengths={1: 1, 2: 1, 5: 1})
        assert b.pairs() == [(1, 2), (1, 5), (2, 5)]


class TestPreorder:
    """``weights._preorder``, the one walk the tree code and the path-sum
    kernel share, against depths and edges read off the tree itself."""

    @staticmethod
    def _cases():
        for n in (2, 3, 4, 7, 13):
            for seed in range(3):
                for binary in (True, False):
                    yield random_tree(n, seed, binary_only=binary)
        yield WeightedTree([(i, 20, i) for i in range(1, 8)])  # a star

    @staticmethod
    def _depths(t, root):
        """Edge count from *root* per node, breadth first."""
        depth, frontier = {root: 0}, [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y, _ in t.neighbors(x):
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        nxt.append(y)
            frontier = nxt
        return depth

    def test_walk(self):
        for t in self._cases():
            for root in (t.leaves[0], t.nodes[-1], t.leaves[-1]):
                pre, parent = _preorder(t._adj, root)
                assert pre[0] == root and sorted(pre) == list(t.nodes)
                assert parent[root] == (None, None)
                pos = {v: k for k, v in enumerate(pre)}
                depth = self._depths(t, root)
                below = {v: [] for v in pre}
                for v in pre[1:]:
                    p, w = parent[v]
                    assert depth[p] == depth[v] - 1  # the neighbour towards the root
                    assert pos[p] < pos[v]
                    assert w == t.weight(p, v)
                    x = p
                    while x is not None:
                        below[x].append(v)
                        x = parent[x][0]
                for v, desc in below.items():
                    # the descendants follow their ancestor in one run
                    k = pos[v]
                    assert sorted(pre[k + 1 : k + 1 + len(desc)]) == sorted(desc), (t, root, v)

    def test_sizes_two_and_three(self):
        pre, parent = _preorder(WeightedTree([(1, 2, 5)])._adj, 2)
        assert pre == [2, 1] and parent == {2: (None, None), 1: (2, 5)}
        star = WeightedTree([(1, 4, 1), (2, 4, 2), (3, 4, 3)])
        pre, parent = _preorder(star._adj, 1)
        assert pre[:2] == [1, 4] and sorted(pre[2:]) == [2, 3]
        assert {v: parent[v] for v in (2, 3, 4)} == {2: (4, 2), 3: (4, 3), 4: (1, 1)}
