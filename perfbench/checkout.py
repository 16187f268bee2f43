"""Where the package under test lives: ``src/`` of this checkout, only."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    pass


def bootstrap():
    """Put the checkout's ``src`` and this directory first on sys.path and
    import the package from there; raises SetupError if that fails."""
    if not (SRC / "treeweights" / "__init__.py").is_file():
        raise SetupError(f"no treeweights sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import treeweights

    if Path(treeweights.__file__).resolve().parent != SRC / "treeweights":
        raise SetupError(f"treeweights imported from {treeweights.__file__}, not {SRC}")
