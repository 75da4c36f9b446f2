#!/usr/bin/env python3
"""Print the SHA-256 of every file that a fixed list of fig4 commands writes.

The commands run in this process through ``cvqec.cli.main`` of the
checkout that holds this script (its ``src/``), each into a fresh
directory.  One line per written file: ``sha256  command  file``; a
command that exits non-zero prints ``FAILED rc=N  command`` and makes the
script exit 1.  Two checkouts write the same bytes when

    diff <(A/scripts/output_digest.py) <(B/scripts/output_digest.py)

prints nothing.

The list: the fig4 commands of the benchmark workloads (dephasing and
bosonic sweeps, and the Monte Carlo checks of the analytic workload) at
seeds 7, 8 and 9, then root seeds at the top of and just past one 32-bit
word, and a binomial sigma sweep over the default points.

Usage: scripts/output_digest.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cvqec import cli  # noqa: E402

STATES = (["--state", "coherent"],
          ["--state", "coherent", "--amplitude", "1.5"],
          ["--state", "fock1"])


def commands() -> list[list[str]]:
    out = []
    for seed in ("7", "8", "9"):
        out += [["fig4", "--code", code, *state, "--sweep", "pphi",
                 "--trajectories", "160", "--seed", seed]
                for code in ("none", "three_qubit") for state in STATES]
        points = ["--points", "0.1", "0.15", "0.2"]
        out += [["fig4", "--code", "binomial", "--sweep", "sigma", *points,
                 "--trajectories", "400", "--seed", seed],
                ["fig4", "--code", "shor", "--sweep", "sigma", *points,
                 "--trajectories", "50", "--seed", seed]]
        out += [["fig4", "--code", "none", *state, "--points", "0", "--sigma", "0.1",
                 "--trajectories", "800", "--seed", seed] for state in STATES]
    out += [["fig4", "--code", "three_qubit", "--trajectories", "300", "--seed", seed]
            for seed in (str(2**32 - 1), str(2**32))]
    out.append(["fig4", "--code", "binomial", "--sweep", "sigma",
                "--trajectories", "200", "--seed", "7"])
    return out


def main() -> int:
    status = 0
    for argv in commands():
        command = " ".join(argv)
        with tempfile.TemporaryDirectory() as tmp:
            rc = cli.main(argv + ["--out", tmp])
            if rc != 0:
                print(f"FAILED rc={rc}  {command}")
                status = 1
                continue
            for path in sorted(Path(tmp).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {command}  {path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
