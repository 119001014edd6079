"""Fixed reference work that measures the machine's speed of the moment.

Usage: python3 perfbench/reference.py SCRATCH_FILE

run.py starts this script as a child process between the command-line
invocations it times, and scales every timing by how long this script
took around it (see run.py, REFERENCE_S). The work mirrors the mix of
the command line without touching otstereo: interpreter start and the
numpy import, writing and parsing a text grid, and a loop of calls on
small arrays like a solver's iterations. The script prints the seconds
of that loop alone. It never changes, so a change to the program cannot
move it.
"""
import sys
import time

import numpy as np

ROWS, COLS, STEPS = 120, 640, 3000


def main(path: str) -> int:
    grid = np.random.default_rng(0).random((ROWS, COLS))
    with open(path, "w", encoding="ascii") as out:
        out.write("\n".join(",".join(f"{x:.6f}" for x in row) for row in grid) + "\n")
    with open(path, encoding="ascii") as src:
        back = np.array([line.split(",") for line in src.read().splitlines()], dtype=float)
    start = time.perf_counter()
    row = back[0]
    for _ in range(STEPS):
        row = np.exp(row - np.logaddexp.reduce(row)) + back[1]
    print(time.perf_counter() - start)
    return 0 if np.isfinite(row).all() else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
