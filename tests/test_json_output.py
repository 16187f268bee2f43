"""The CLI's JSON documents: the one-pass writer against the reference walk,
and every JSON-writing command's output in canonical form."""

import json
import math
from collections import OrderedDict, namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loops import jsonable
from treeweights import WeightedTree, doubles_of_tree, random_tree, triples_of_tree
from treeweights.cli import _dump, main
from treeweights.weights import emit_doubles, emit_triples


def reference(payload):
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


# every code point, surrogates and control characters included
texts = st.text(st.characters(exclude_categories=()), max_size=6)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300, math.inf, -math.inf, math.nan]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.fractions(),
    floats,
    texts,
)
# int keys on both sides of 10, so that "10" sorts before "9", and str
# keys that may collide with them ("3" beside 3: the later value wins)
keys = st.one_of(st.integers(0, 20), st.integers(0, 20).map(str), texts)
homogeneous = st.one_of(*(st.lists(s, max_size=6) for s in
                          (st.integers(), st.fractions(), floats, texts, st.booleans())))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    )


payloads = st.recursive(st.one_of(scalars, homogeneous), containers, max_leaves=30)


class TestWriterMatchesReference:
    @given(payloads)
    @settings(max_examples=400, deadline=None)
    def test_generated(self, payload):
        assert _dump(payload) == reference(payload)

    def test_int_keys_sort_as_text(self):
        payload = {9: "a", 10: "b", "1": [3, 2], 2: {11: None, 3: True}}
        text = _dump(payload)
        assert text == reference(payload)
        assert list(json.loads(text)) == ["1", "10", "2", "9"]

    def test_empty_containers(self):
        for payload in ([], (), {}, {"a": [], "b": {}, "c": ()}, [[], {}]):
            assert _dump(payload) == reference(payload)

    def test_subclasses(self):
        Pair = namedtuple("Pair", "u w")
        payload = {
            "named": Pair(3, Fraction(1, 2)),
            "named_list": [Pair(1, 0.5), Pair(2, -0.0)],
            "ordered": OrderedDict([("z", 1), (2, [np.float64(0.1)]), ("a", Pair(4, None))]),
            "float64": np.float64(1e-310),
            "float64_list": [np.float64(math.nan), np.float64(-math.inf), np.float64(2.5)],
        }
        text = _dump(payload)
        assert text == reference(payload)
        assert json.loads(text)["named"] == [3, "1/2"]

    @pytest.mark.parametrize("bad", [{1, 2}, np.int64(3)])
    def test_unsupported_types_raise(self, bad):
        for payload in (bad, [bad], {"k": bad}, {"k": [1, bad]}):
            with pytest.raises(TypeError):
                _dump(payload)
            with pytest.raises(TypeError):
                reference(payload)


def canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestCommandsWriteCanonicalJSON:
    """Each JSON document the CLI writes is what ``json.dumps`` with sorted
    keys and a two-space indent writes for its own parse."""

    def _inputs(self, tmp):
        files = {}
        files["d_accept"] = emit_doubles(doubles_of_tree(random_tree(9, 2)))
        files["d_small"] = emit_doubles(doubles_of_tree(random_tree(6, 2)))
        files["d_reject"] = "5\n1 2 3\n1 3 9.5\n1 4 10\n1 5 4\n2 3 10\n2 4 11\n2 5 5\n3 4 7\n3 5 8\n4 5 9\n"
        triples = emit_triples(triples_of_tree(random_tree(7, 3)))
        lines = triples.splitlines()
        lines[5] = lines[5].rsplit(" ", 1)[0] + " 1/3"
        files["t_accept"], files["t_reject"] = triples, "\n".join(lines) + "\n"
        negative = WeightedTree([(1, 9, 1), (2, 9, 2), (9, 10, -1), (3, 10, 3), (10, 11, 2),
                                 (4, 11, 1), (5, 11, 2), (11, 12, 3), (6, 12, 1), (7, 12, 1)])
        files["negative"] = emit_doubles(doubles_of_tree(negative))
        files["tree"] = "((1:1,2:2):1,3:1/2,4:3);\n"
        files["tree_b"] = "((1:1,3:2):1,2:1/2,4:3);\n"
        paths = {}
        for name, text in files.items():
            paths[name] = tmp / f"{name}.txt"
            paths[name].write_text(text)
        return {k: str(v) for k, v in paths.items()}

    def test_every_json_output(self, tmp_path, capsys):
        f = self._inputs(tmp_path)
        report = str(tmp_path / "report.json")
        runs = []
        for order, prefix in ((2, "d"), (3, "t")):
            for mode, tol in (("rational", "0"), ("float", "1e-9")):
                for verdict, rc in (("accept", 0), ("reject", 2)):
                    argv = ["check", "--order", str(order), "--mode", mode, "--tol", tol,
                            "--in", f[f"{prefix}_{verdict}"]]
                    runs.append((argv, rc, None))
        rec = ["reconstruct", "--order", "2", "--report", report]
        runs += [
            (rec + ["--in", f["d_accept"]], 0, report),
            (rec + ["--in", f["d_reject"]], 2, report),
            (rec + ["--in", f["negative"], "--require-positive"], 2, report),
            (["reconstruct", "--order", "3", "--report", report, "--in", f["t_accept"]], 0, report),
            (["compare", f["tree"], f["tree"]], 0, None),
            (["compare", f["tree"], f["tree_b"], "--tol", "1/3"], 2, None),
            (["oracle", "--order", "2", "--in", f["d_small"]], 0, None),
            (["oracle", "--order", "2", "--in", f["d_reject"]], 2, None),
            (["bench", "--sizes", "8"], 0, None),
        ]
        traced = 0
        for argv, rc, report_path in runs:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == rc, argv
            docs = [] if argv[0] == "reconstruct" and rc == 0 else [out]
            if report_path is not None:
                docs.append(Path(report_path).read_text(encoding="utf-8"))
            assert docs, argv
            for text in docs:
                assert text == canonical(text), argv
            if report_path is not None:
                traced += json.loads(docs[-1])["trace"] is not None
        # the accepts and the positivity failure carry a trace
        assert traced == 3
