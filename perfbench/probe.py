"""Set-up probe: time ``import dweyl`` plus parsing one workload's op lines.

Usage: python3 probe.py SRC_DIR WORKLOAD < op-lines

Run as a fresh interpreter.  Prints the seconds from before the import to
the last op parsed, then the speed probe's seconds measured right after;
exits 3 if dweyl was not imported from SRC_DIR.
"""

import sys
import time

import oplines
import speed

src, workload = sys.argv[1], sys.argv[2]
lines = sys.stdin.read().splitlines()
sys.path.insert(0, src)
start = time.perf_counter()
dw = oplines.load(workload)
oplines.parse_all(dw, workload, lines)
elapsed = time.perf_counter() - start
if not dw.__file__.startswith(src):
    sys.exit(3)
print(repr(elapsed), repr(speed.probe(3)))
