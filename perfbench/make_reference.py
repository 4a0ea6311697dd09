"""Write the reference outputs that ``oracle.py`` compares every run against.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload (all by default) and each of the ``SLOTS`` seed slots this
runs the experiment once at ``--threads 1`` and stores its CSVs in
``perfbench/reference/<workload>.json``.  The committed references were taken
from the package as it stood when the benchmark was added; regenerating them
from a later commit would make the oracle accept whatever that commit computes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, SCRATCH_DIR, Bench
from oracle import snapshot
from workloads import SLOTS, WORKLOADS


def main(names: list[str]) -> int:
    root = HERE.parent
    (root / SCRATCH_DIR).mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        slots = {}
        for slot in range(SLOTS):
            scratch = Path(tempfile.mkdtemp(dir=root / SCRATCH_DIR))
            try:
                result = Bench(root, WORKLOADS[name], slot, scratch).child(1)
                if result.get("exit") != 0:
                    print(f"{name} slot {slot} failed: {result.get('error')}", file=sys.stderr)
                    return 1
                slots[str(slot)] = snapshot(Path(result["run_dir"]))
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            print(f"{name} slot {slot}: {result['wall_s']:.2f} s", file=sys.stderr)
        out = HERE / "reference" / f"{name}.json"
        out.write_text(json.dumps({"workload": name, "slots": slots}, indent=1, sort_keys=True) + "\n")
    (root / SCRATCH_DIR).rmdir()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
