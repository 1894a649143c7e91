"""Set-up time of one workload, measured in a fresh process (started by run.py).

Prints one JSON line ``{"setup_s": seconds}``.  The time covers
``import cscskit`` plus the first, cold construction of every problem,
spectrum and operator the workload uses; the seeded inputs are generated
before the clock starts, so only the library's work is timed.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from alloc import retain_freed_memory  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    retain_freed_memory()       # as in the untraced run that starts this process
    inputs = make_inputs(args.workload, args.seed, args.tiny)
    t0 = time.perf_counter()
    import cscskit  # noqa: F401  (the import is part of what is timed)
    t1 = time.perf_counter()
    import workloads
    t2 = time.perf_counter()
    workloads.construct(inputs)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
