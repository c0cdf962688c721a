"""Write reference.json: the expected output of every benchmark point.

The reference pins the outputs of the package as it was when the
benchmark was defined; a later change that moves any of them by more
than the tolerances in ``workloads.check`` fails the benchmark.  Only
regenerate it for a change that is meant to alter results.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from workloads import POINTS, REFERENCE, compute, import_package, point_key


def main() -> int:
    cg = import_package()
    refs = {workload: {point_key(p): compute(cg, workload, p)
                       for p in points}
            for workload, points in POINTS.items()}
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
