"""One workload in a fresh process.

Imports cvqec from the checkout's ``src/`` (recording the import time as
``import_s``), runs timed rounds of the workload's CLI commands through
``cvqec.cli.main``, checks every file the commands wrote, and writes
``result.json`` into ``--out``.  With ``--trace 1`` it instead alternates
traced and untraced rounds, runs the coverage commands and the layer
probes, and writes the spans to ``spans.npz``.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --out DIR        (normally started by run.py)
       python3 perfbench/worker.py --setup-only
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cvqec.cli
    seconds = time.perf_counter() - t0
    if SRC.resolve() not in Path(cvqec.cli.__file__).resolve().parents:
        raise ImportError(f"cvqec was imported from {cvqec.cli.__file__}, "
                          f"not from {SRC}")
    return cvqec.cli, seconds


CLI = SETUP_S = None  # set below when run as a script, or by an importer

if __name__ == "__main__":
    try:
        CLI, SETUP_S = _import_cli()
    except ImportError as exc:
        print(f"worker: cannot import cvqec from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if sys.argv[1:] == ["--setup-only"]:
        print(repr(SETUP_S))
        sys.exit(0)

import argparse  # noqa: E402  (after the timed import, so it is not pre-loaded)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import checks  # noqa: E402
import envinfo  # noqa: E402
import reference  # noqa: E402
from workloads import COVERAGE, SIGMA, WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
TRACED_ROUNDS = 2
TRAJECTORY_CHECK_INDICES = (0, 1, 2)


def _cache_resets() -> list:
    """Callables that return every module-level memo of cvqec (functools
    caches and module-level dicts) to its state right after import.

    Each CLI invocation is a fresh process that fills these memos again,
    so every command here starts from them empty.  Collected once, before
    the tracer wraps any function.
    """
    resets = []
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "cvqec":
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                resets.append(value.cache_clear)
            elif type(value) is dict:
                resets.append(lambda d=value, saved=dict(value): (d.clear(), d.update(saved)))
    return resets


RESETS = _cache_resets()


# --- running commands --------------------------------------------------------


def run_command(argv: list[str], out_dir: Path) -> dict:
    """Run one CLI command; a raising command is a failed operation."""
    out_dir.mkdir(parents=True)
    target = (["--out-file", str(out_dir / "result.json")] if argv[0] == "optimize"
              else ["--out", str(out_dir)])
    for reset in RESETS:
        reset()
    error = None
    t0 = time.perf_counter()
    try:
        rc = CLI.main(argv + target)
    except Exception:  # the benchmark must keep going and report the failure
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    rec = {"argv": argv, "rc": rc, "error": error, "seconds": seconds,
           "files": files, "trajectories": 0, "problems": []}
    if rc != 0:
        rec["problems"].append(f"exit code {rc}" if error is None else error)
    elif argv[0] == "fig4":
        csv_name = next(n for n in files if n.endswith(".csv"))
        rec["trajectories"] = int(sum(r["n"] for r in checks.read_csv(files[csv_name])))
    return rec


def run_round(cmds: list[list[str]], out_dir: Path, scale: bool = False) -> list[dict]:
    """With ``scale``, run the reference kernel before and after every
    command and record the command's wall time at nominal machine speed
    as ``scaled_s`` (see reference.py)."""
    records = []
    ref = reference.seconds() if scale else None
    for k, argv in enumerate(cmds):
        rec = run_command(argv, out_dir / f"c{k}")
        if scale:
            after = reference.seconds()
            rec["ref_s"] = (ref + after) / 2
            rec["scaled_s"] = rec["seconds"] * reference.NOMINAL_S / rec["ref_s"]
            ref = after
        records.append(rec)
    return records


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _points(argv):
    if "--points" not in argv:
        return None
    i = argv.index("--points") + 1
    out = []
    while i < len(argv) and not argv[i].startswith("--"):
        out.append(float(argv[i]))
        i += 1
    return out


# --- correctness -------------------------------------------------------------


def _exact_squeezed(files: dict) -> float:
    from cvqec import protocol

    config = checks.read_json(next(v for k, v in files.items()
                                   if k.endswith("_config.json")))["config"]
    noise = protocol.run_squeezed_scheme(config["sigma"], config["alpha"],
                                         config["zeta"])
    return protocol.exact_infidelity(config["state"], noise)


def check_round(records: list[dict]) -> None:
    """Append check failures to each record's ``problems``."""
    from cvqec import protocol

    binomial = {tuple(_points(r["argv"]) or ()): r for r in records
                if r["argv"][0] == "fig4" and _opt(r["argv"], "--code") == "binomial"}
    for rec in records:
        if rec["problems"]:
            continue
        argv, files = rec["argv"], rec["files"]
        sigma = float(_opt(argv, "--sigma", SIGMA))
        csvs = {k: checks.read_csv(v) for k, v in files.items() if k.endswith(".csv")}
        if argv[0] == "fig2":
            rec["problems"] += checks.check_fig2(csvs["fig2_variance.csv"], sigma)
        elif argv[0] == "fig3":
            rec["problems"] += checks.check_fig3(csvs["fig3_qudit.csv"], sigma)
        elif argv[0] == "optimize":
            rec["problems"] += checks.check_optimize(
                checks.read_json(files["result.json"]), protocol.optimal_zeta())
        elif _opt(argv, "--sweep", "pphi") == "pphi":
            points = _points(argv)
            if points is None or 0.0 in points:
                (rows,) = csvs.values()
                rec["problems"] += checks.check_pphi_endpoint(rows, _exact_squeezed(files))
        elif _opt(argv, "--code") == "shor":
            other = binomial.get(tuple(_points(argv) or ()))
            if other is not None and not other["problems"]:
                (rows,) = csvs.values()
                (brows,) = (checks.read_csv(v) for k, v in other["files"].items()
                            if k.endswith(".csv"))
                rec["problems"] += checks.check_shor_vs_binomial(rows, brows)


def check_repeats(rounds: list[list[dict]]) -> None:
    """Every rerun of an argv writes the same bytes as its first run."""
    first = {}
    for rec in (r for records in rounds for r in records):
        ref = first.setdefault(tuple(rec["argv"]), rec)
        if ref is not rec and not rec["problems"] and not ref["problems"]:
            rec["problems"] += checks.check_same_bytes(
                rec["files"], ref["files"], "rerun " + " ".join(rec["argv"]))


def check_trajectories(records: list[dict], seed: int) -> None:
    """Branch and dense engines agree per trajectory on each dephasing
    command's plan at p_phi = 0.2 (untimed)."""
    from cvqec import montecarlo, protocol

    codes = {"none": "bare", "three_qubit": "three_qubit_phase"}
    for rec in records:
        argv = rec["argv"]
        if argv[0] != "fig4" or _opt(argv, "--code") not in codes:
            continue
        plan = montecarlo.TrajectoryPlan(
            sigma=float(_opt(argv, "--sigma", SIGMA)), ancilla=codes[_opt(argv, "--code")],
            p_phi=0.2, n_trajectories=1, root_seed=seed, zeta=protocol.optimal_zeta(),
            state_kind=_opt(argv, "--state", "coherent"),
            coherent_amplitude=complex(float(_opt(argv, "--amplitude", "0"))))
        pairs = [(i, montecarlo.trajectory_fidelity(plan, i, "branch"),
                  montecarlo.trajectory_fidelity(plan, i, "dense"))
                 for i in TRAJECTORY_CHECK_INDICES]
        rec["problems"] += checks.check_branch_vs_dense(pairs)


def check_thread_pool(records: list[dict], out_dir: Path) -> None:
    """The same argv on a two-thread CVQEC_THREADS pool writes the same
    bytes as the timed one-thread run (untimed)."""
    saved = os.environ.get("CVQEC_THREADS")
    os.environ["CVQEC_THREADS"] = "2"
    try:
        for k, rec in enumerate(records):
            pooled = run_command(rec["argv"], out_dir / f"c{k}")
            if pooled["problems"]:
                rec["problems"] += ["pooled replay: " + p for p in pooled["problems"]]
            elif not rec["problems"]:
                rec["problems"] += checks.check_same_bytes(
                    pooled["files"], rec["files"], "pooled " + " ".join(rec["argv"]))
    finally:
        if saved is None:
            del os.environ["CVQEC_THREADS"]
        else:
            os.environ["CVQEC_THREADS"] = saved


# --- measurement -------------------------------------------------------------


def _wall(records, key="seconds"):
    return sum(r[key] for r in records)


def _traj_per_s(records):
    mc = [r for r in records if r["trajectories"]]
    return sum(r["trajectories"] for r in mc) / _wall(mc, "scaled_s") if mc else None


def round_seed(seed: int, r: int) -> int:
    """Seed of round r: each round samples fresh trajectories, so the run's
    median averages over the seed-dependent cost of rare branches."""
    return seed * 100 + r


def timed_rounds(workload, seed: int, seconds: float, out_dir: Path) -> list[list[dict]]:
    rounds, ends = [], [time.perf_counter()]
    while True:
        cmds = workload(round_seed(seed, len(rounds)))
        rounds.append(run_round(cmds, out_dir / f"r{len(rounds)}", scale=True))
        ends.append(time.perf_counter())
        # Stop before a round that would end past the requested time.
        lengths = [b - a for a, b in zip(ends, ends[1:])]
        if (len(rounds) >= MIN_ROUNDS
                and ends[-1] - ends[0] + statistics.median(lengths) > seconds):
            return rounds


def traced_rounds(cmds, out: Path):
    import tracing

    out_dir = out / "cli"
    tracer = tracing.Tracer()
    rounds = [run_round(cmds, out_dir / "warm")]
    traced, untraced = [], []
    for rep in range(TRACED_ROUNDS):
        lo, before = len(tracer), Counter(tracer.counts)
        tracing.install(tracer)
        try:
            records = run_round(cmds, out_dir / f"t{rep}")
        finally:
            tracer.remove()
        traced.append((records, tracer.summarize(lo, len(tracer)),
                       tracer.counts - before, len(tracer) - lo))
        untraced.append(run_round(cmds, out_dir / f"u{rep}"))
    rounds += [t[0] for t in traced] + untraced

    lo, before = len(tracer), Counter(tracer.counts)
    tracing.install(tracer)
    try:
        coverage = [run_command(argv, out_dir / "coverage" / f"c{k}")
                    for k, argv in enumerate(COVERAGE)]
    finally:
        tracer.remove()
    check_round(coverage)
    cov_summary, cov_counts = tracer.summarize(lo, len(tracer)), tracer.counts - before

    # Counts repeat exactly between the traced rounds.
    first, second = traced[0], traced[1]
    calls = [{k: v["calls"] for k, v in t[1].items()} for t in (first, second)]
    if calls[0] != calls[1] or first[2] != second[2]:
        second[0][0]["problems"].append(
            f"traced counts differ between rounds: {calls} {first[2]} {second[2]}")

    per_round = []
    for records, summary, counts, _ in traced:
        written = sum(len(b) for r in records + coverage for b in r["files"].values())
        per_round.append(tracing.layer_metrics(
            tracing.merge_summaries(summary, cov_summary), counts + cov_counts, written))
    metrics = {k: (statistics.median(m[k][0] for m in per_round), per_round[0][k][1])
               for k in per_round[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(_wall(t[0]) for t in traced)
        - statistics.median(_wall(r) for r in untraced), "s")
    metrics["trace.spans"] = (traced[0][3], "count")
    tracing.write_spans(tracer, out / "spans.npz")
    return rounds, coverage, metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    coverage = []
    if args.trace:
        # All traced-run rounds share one seed, so their counts must match.
        cmds = workload(round_seed(args.seed, 0))
        rounds, coverage, metrics = traced_rounds(cmds, args.out)
    else:
        rounds = timed_rounds(workload, args.seed, args.seconds, args.out / "cli")
        walls = [_wall(r, "scaled_s") for r in rounds]
        rates = [x for x in map(_traj_per_s, rounds) if x]  # empty only if every fig4 failed
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "traj_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024.0, "MB")}
    # Checks run after all timing.
    for records in rounds:
        check_round(records)
    check_repeats(rounds)
    if args.workload == "mc_dephasing":
        check_trajectories(rounds[0], round_seed(args.seed, 0))
    replay = [r for r in rounds[0] if r["argv"][0] == "fig4"
              and _opt(r["argv"], "--code") != "shor"]
    check_thread_pool(replay[-1:], args.out / "cli" / "pooled")
    if args.trace:
        import probes

        metrics.update(probes.run_all(args.seed))

    records = [r for rs in rounds for r in rs] + coverage
    failed = [r for r in records if r["problems"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_walls_s": [_wall(r) for r in rounds],
        "round_scaled_s": [] if args.trace else [_wall(r, "scaled_s") for r in rounds],
        "command_s": [[r["seconds"] for r in rs] for rs in rounds],
        "command_ref_s": [] if args.trace else [[r["ref_s"] for r in rs] for rs in rounds],
        "import_s": SETUP_S,
        "attempted": len(records),
        "failed": len(failed),
        "problems": [{"argv": r["argv"], "problems": r["problems"]} for r in failed],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": envinfo.record(SRC),
    }
    (args.out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
