"""Set-up probe: one fresh process doing exactly the runner's set-up.

    python3 perfbench/probe.py MANIFEST

Imports the package from the checkout, reads every input file the manifest
lists and runs its warm-up command lines (which fill the package's lazy
caches), then prints ``ready``, the CPU seconds the process has used so
far (its set-up time) and the median CPU seconds of three runs of the
reference loop made right after, which the runner scales it by.
"""

import json
import statistics
import sys
import time

from checkout import SetupError, bootstrap


def main(manifest_path):
    try:
        bootstrap()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    from treeweights import cli

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for path in manifest["inputs"]:
        with open(path, encoding="utf-8") as fh:
            fh.read()
    for argv in manifest["warm"]:
        cli.main(argv)
    cpu = time.process_time()
    import reference

    ref = statistics.median(reference.timed() for _ in range(3))
    print(f"ready {cpu!r} {ref!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
