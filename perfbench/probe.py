"""Set-up probe: start, import what a workload needs, generate its inputs.

Run as ``python3 perfbench/probe.py WORKLOAD SEED WORK_DIR`` from the root
of a checkout.  The last line of output is ``time.monotonic()`` at the
moment the first op could start; the parent subtracts the moment it
launched this process.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import workloads

    workloads.make(name, seed, work, src)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
