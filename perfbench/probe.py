"""Set-up probe: a fresh interpreter that gets ready and prints the clock.

Usage: python3 probe.py MODE SEED

MODE ``bare`` only starts the interpreter, ``import`` also imports qubitrd,
and a workload name also runs that workload's warm-up. The probe prints
``time.perf_counter()`` when it is ready; on Linux that clock is
CLOCK_MONOTONIC, shared with the parent, which subtracts its own reading
taken just before it started the probe.
"""

import sys
import time


def main(mode: str, seed: int) -> None:
    if mode != "bare":
        import qubitrd

        if mode != "import":
            import workloads

            workloads.WORKLOADS[mode](seed).warm_up(qubitrd)
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
