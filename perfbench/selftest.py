"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs one small instance of every checked command through the same code
the benchmark uses, confirms that the real outputs pass, then feeds each
check one corrupted copy and confirms that the benchmark counts it as a
failed command.  Exits 1 if a real output fails or a corruption is
missed.  Writes only under ``.perfbench_runs/selftest``.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cvqec.cli  # noqa: E402  (before worker, which snapshots its caches)

import checks  # noqa: E402
import worker  # noqa: E402

worker.CLI = cvqec.cli
OUT = ROOT / ".perfbench_runs" / "selftest"
SEED = 7

COMMANDS = [
    ["fig2"],
    ["fig3", "--dmax", "5"],
    ["optimize", "--scheme", "qubit_p"],
    ["optimize", "--scheme", "two_qubit"],
    ["optimize", "--scheme", "squeezed"],
    ["optimize", "--scheme", "qudit", "--d", "4"],
    ["fig4", "--code", "none", "--points", "0", "0.1", "--trajectories", "200",
     "--seed", str(SEED)],
    ["fig4", "--code", "binomial", "--sweep", "sigma", "--points", "0.1", "0.2",
     "--trajectories", "100", "--seed", str(SEED)],
    ["fig4", "--code", "shor", "--sweep", "sigma", "--points", "0.1", "0.2",
     "--trajectories", "10", "--seed", str(SEED)],
]


def edit_csv(data: bytes, edit) -> bytes:
    """Apply ``edit(rows)`` to the rows (dicts of floats) and re-serialize."""
    rows = checks.read_csv(data)
    edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: repr(v) for k, v in r.items()} for r in rows)
    return buf.getvalue().encode()


def edit_json(data: bytes, edit) -> bytes:
    payload = checks.read_json(data)
    edit(payload)
    return json.dumps(payload).encode()


def _swap_rows(rows, i, j, key):
    rows[i][key], rows[j][key] = rows[j][key], rows[i][key]


def _set(row, key, value):
    row[key] = value


def _shift_endpoint(rows):
    r = next(r for r in rows if r["pphi"] == 0.0)
    r["infidelity"] += 10 * r["std_error"]


def _shor_above_binomial(binomial_rows):
    def edit(rows):
        for r, b in zip(rows, binomial_rows):
            r["infidelity"] = b["infidelity"] + 10 * math.hypot(r["std_error"],
                                                                b["std_error"])
    return edit


def corruptions(records):
    """(description, command index, file name, corrupted bytes)."""
    by_cmd = {" ".join(r["argv"][:3]): (k, r) for k, r in enumerate(records)}

    def target(prefix, suffix):
        k, rec = by_cmd[prefix]
        name = next(n for n in rec["files"] if n.endswith(suffix))
        return k, name, rec["files"][name]

    k, name, data = target("fig2", "variance.csv")

    def fig2_edit(rows):
        r = next(r for r in rows if r["is_opt"] == 1.0)
        r["var_p"] *= 1.001

    yield "fig2 optimal variance off by 0.1%", k, name, edit_csv(data, fig2_edit)
    k, name, data = target("fig3 --dmax 5", "qudit.csv")
    yield ("fig3 var_opt rows d=3 and d=4 swapped", k, name,
           edit_csv(data, lambda rows: _swap_rows(rows, 1, 2, "var_opt")))
    yield ("fig3 d=2 var_opt shifted by 1e-8", k, name,
           edit_csv(data, lambda rows: _set(rows[0], "var_opt", rows[0]["var_opt"] + 1e-8)))
    yield ("fig3 d=5 var_at_alpha_s above the bound", k, name,
           edit_csv(data, lambda rows: _set(rows[3], "var_at_alpha_s", 2 * rows[3]["bound"])))
    for scheme, key, factor in (("qubit_p", "alpha_opt", 1.001),
                                ("two_qubit", "alpha_opt", 0.999),
                                ("squeezed", "zeta_opt", 1.01),
                                ("squeezed", "total_variance", 1.001),
                                ("qudit", "var_p", 2.0)):
        k, name, data = target(f"optimize --scheme {scheme}", "result.json")
        yield (f"optimize {scheme} {key} scaled by {factor}", k, name,
               edit_json(data, lambda p, key=key, factor=factor: _set(p, key, p[key] * factor)))
    k, name, data = target("fig4 --code none", ".csv")
    yield "fig4 p_phi=0 mean shifted by 10 SE", k, name, edit_csv(data, _shift_endpoint)
    _, _, bdata = target("fig4 --code binomial", ".csv")
    k, name, data = target("fig4 --code shor", ".csv")
    yield ("fig4 shor9 10 SE above binomial", k, name,
           edit_csv(data, _shor_above_binomial(checks.read_csv(bdata))))


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    ok = True

    def report(description, failed, expect_fail):
        nonlocal ok
        good = bool(failed) == expect_fail
        ok &= good
        verdict = ("caught" if failed else "MISSED") if expect_fail else (
            "passes" if not failed else "FAILS")
        print(f"{'ok ' if good else 'BAD'} {verdict:7s} {description}"
              + (f": {failed[0]}" if failed and not good else ""))

    records = worker.run_round(COMMANDS, OUT / "real")
    worker.check_round(records)
    for rec in records:
        report("real output of " + " ".join(rec["argv"]), rec["problems"], False)

    for description, k, name, data in corruptions(records):
        bad = copy.deepcopy(records)
        for rec in bad:
            rec["problems"] = []
        bad[k]["files"][name] = data
        worker.check_round(bad)
        failed = [p for rec in bad for p in rec["problems"]]
        report(description, failed, True)

    # Rerun and one-thread byte identity: one flipped byte.
    rerun = copy.deepcopy(records)
    for rec in rerun:
        rec["problems"] = []
    name = next(iter(rerun[0]["files"]))
    flipped = bytearray(rerun[0]["files"][name])
    flipped[-2] ^= 1
    rerun[0]["files"][name] = bytes(flipped)
    worker.check_repeats([records, rerun])
    report("rerun with one flipped byte", rerun[0]["problems"], True)

    # Branch versus dense per trajectory, on the real engines.
    plan_rec = [{"argv": ["fig4", "--code", "three_qubit"], "problems": []}]
    worker.check_trajectories(plan_rec, SEED)
    report("branch vs dense trajectories", plan_rec[0]["problems"], False)
    from cvqec import montecarlo, protocol

    plan = montecarlo.TrajectoryPlan(sigma=0.1, ancilla="three_qubit_phase", p_phi=0.2,
                                     zeta=protocol.optimal_zeta(), root_seed=SEED)
    f = montecarlo.trajectory_fidelity(plan, 0, "branch")
    report("dense fidelity shifted by 1e-6",
           checks.check_branch_vs_dense([(0, f, f + 1e-6)]), True)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
