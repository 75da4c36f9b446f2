#!/usr/bin/env python3
"""Print the SHA-256 of every file that a fixed list of cvqec commands writes.

The commands run in this process through ``cvqec.cli.main`` of the
checkout that holds this script (its ``src/``), each into a fresh
directory.  One line per written file: ``sha256  command  file``; a
command that exits non-zero prints ``FAILED rc=N  command`` and makes the
script exit 1.  Two checkouts write the same bytes when

    diff <(A/scripts/output_digest.py) <(B/scripts/output_digest.py)

prints nothing.

The list: the analytic commands (fig2, fig3 to d = 9 and the four
optimize schemes, which write through --out-file, then fig2 at sigma
0.2, fig3 to d = 15, the qudit optimum at d = 15 and the squeezed optimum
at sigma 0.2, where the qudit sums have 8 or more outcomes), then the fig4
commands of the benchmark workloads (dephasing and bosonic sweeps, and
the Monte Carlo checks of the analytic workload) at seeds 7, 8 and 9,
then root seeds at the top of and just past one 32-bit word, and a
binomial sigma sweep over the default points.

With --trajectories it prints instead every trajectory of one fixed plan
per ancilla kind at sigma 0.15, then of a binomial plan at sigma 0.2 with
400 trajectories and a shor9 plan at sigma 0.25 with 105 trajectories
(five chunks), as ``kind sigma index float.hex(infidelity) unrecoverable
complement`` (the flags as 0/1): the CSV's %.9g hides last-bit changes,
and a changed binomial Kraus choice or best-effort shor9 correction shows
in the flags where the infidelity barely moves.  The values are the ones the chunks of
a branch_decomposition_run return (montecarlo._run_chunk is wrapped while
the run executes), not one-row replays of single trajectories.

With --header it first prints the numpy version and the BLAS name and
version as ``#`` lines.  tests/data/output_digest.txt and
tests/data/trajectories.txt are the two outputs with --header, and
tests/test_output_digest.py compares them with this checkout's output:

    scripts/output_digest.py --header > tests/data/output_digest.txt
    scripts/output_digest.py --header --trajectories > tests/data/trajectories.txt

Usage: scripts/output_digest.py [--trajectories] [--header]
"""

import argparse
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
    out = [["fig2", "--sigma", "0.1"], ["fig3", "--sigma", "0.1", "--dmax", "9"]]
    out += [["optimize", "--scheme", scheme, "--sigma", "0.1"]
            for scheme in ("qubit_p", "two_qubit", "squeezed", "qudit")]
    out += [["fig2", "--sigma", "0.2"], ["fig3", "--sigma", "0.1", "--dmax", "15"],
            ["optimize", "--scheme", "qudit", "--sigma", "0.1", "--d", "15"],
            ["optimize", "--scheme", "squeezed", "--sigma", "0.2"]]
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


def trajectory_lines() -> list[str]:
    from cvqec import montecarlo, protocol

    run_chunk = montecarlo._run_chunk
    lines = []
    cases = [(kind, 0.15, 100) for kind in montecarlo.ANCILLA_KINDS]
    for kind, sigma, n in cases + [("binomial_n3", 0.2, 400), ("shor9", 0.25, 105)]:
        p_phi = 0.1 if kind in ("bare", "three_qubit_phase") else 0.0
        plan = montecarlo.TrajectoryPlan(sigma=sigma, ancilla=kind, p_phi=p_phi,
                                         n_trajectories=n, root_seed=7,
                                         zeta=protocol.optimal_zeta())
        values = []

        def recording(*args):
            result = run_chunk(*args)
            values.extend(zip(*(part.tolist() for part in result)))
            return result

        montecarlo._run_chunk = recording
        try:
            montecarlo.branch_decomposition_run(plan)
        finally:
            montecarlo._run_chunk = run_chunk
        lines += [f"{kind} {sigma} {i} {value.hex()} {int(unrec)} {int(comp)}"
                  for i, (value, unrec, comp) in enumerate(values)]
    return lines


def file_digest_lines() -> list[str]:
    """One line per file that the commands write; a failing command gives
    one ``FAILED`` line instead."""
    lines = []
    for argv in commands():
        command = " ".join(argv)
        with tempfile.TemporaryDirectory() as tmp:
            target = (["--out-file", str(Path(tmp) / "result.json")]
                      if argv[0] == "optimize" else ["--out", tmp])
            rc = cli.main(argv + target)
            if rc != 0:
                lines.append(f"FAILED rc={rc}  {command}")
                continue
            for path in sorted(Path(tmp).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {command}  {path.name}")
    return lines


def header_lines() -> list[str]:
    """The numpy and BLAS build that the digests depend on, as comments."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return [f"# numpy {numpy.__version__}",
            f"# blas {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trajectories", action="store_true",
                        help="print per-trajectory infidelities and flags instead of file digests")
    parser.add_argument("--header", action="store_true",
                        help="first print the numpy and BLAS build as '#' lines")
    args = parser.parse_args()
    lines = trajectory_lines() if args.trajectories else file_digest_lines()
    print("\n".join((header_lines() if args.header else []) + lines))
    return int(any(line.startswith("FAILED") for line in lines))


if __name__ == "__main__":
    sys.exit(main())
