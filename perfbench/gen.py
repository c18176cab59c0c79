"""Write one workload's inputs into a directory, from a seed.

Usage: python3 perfbench/gen.py WORKLOAD SEED SIZE DIR

`run.py` starts this in its own process, so that input generation counts
neither in the measured process's set-up time nor in its peak memory.
"""

import sys

import env

env.pin_threads()


def main(argv: list[str]) -> int:
    workload, seed, size, out_dir = argv
    gs = env.import_groundsent()
    import workloads

    workloads.generate(gs, workload, int(seed), workloads.SIZES[size], out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
