"""Set-up probe: import the CLI and build one workload's algebra and
context, then exit.  Timed from spawn to exit by bench/run.py.

    python3 bench/probe.py n                 # build_gn(n)
    python3 bench/probe.py n N ALPHA_JSON    # PhaseContext(n, N, rows)
"""

import json
import sys
from fractions import Fraction

import gnlab.cli  # noqa: F401  (the import a CLI run pays for)
from gnlab.algebra import build_gn
from gnlab.coalgebra import PhaseContext

if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 1:
        build_gn(int(args[0]))
    else:
        rows = {i: [Fraction(v) for v in row]
                for i, row in enumerate(json.loads(args[2]), 1)}
        PhaseContext(int(args[0]), int(args[1]), rows)
