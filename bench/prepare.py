"""Set-up of one workload in a fresh interpreter: import, families, inputs.

    python3 bench/prepare.py WORKLOAD SEED WORKDIR

The benchmark runs this several times and reports the median wall time as
``setup_s``; the files it writes (the vectors workload's CLI inputs) are the
ones the timed CLI calls read.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import Ledger  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](workdir, seed, Ledger())
