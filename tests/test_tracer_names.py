"""Every package name the benchmark's tracer wraps is still bound.

``perfbench/tracer.py`` looks each wrapped (namespace, attribute) pair up
when a :class:`Tracer` is built; a refactor that drops or renames one of
them fails here, in seconds, as well as in the benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patches = tracer.Tracer()._patches
    assert len(patches) == len(tracer.LAYERS) > 0
    for owner, attr, original, _ in patches:
        assert getattr(owner, attr) is original, (owner, attr)
