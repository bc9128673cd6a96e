"""Set-up probe: a fresh interpreter imports gkmloc and runs one operation.

Usage: python3 benchmarks/probe.py <workload> <seed>

Runs and checks the first operation of the seeded stream of an in-process
workload, and exits 0 only if its answer is right. The caller times the
whole process.
"""

import sys
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main(name, seed):
    workload = workloads.WORKLOADS[name]()
    inp = next(workload.inputs(Random(seed)))
    return 0 if workload.check(inp, workload.run(inp)) == workloads.OK else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
