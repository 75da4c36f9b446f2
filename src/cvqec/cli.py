"""Command line front end: emits the figure data as CSV with JSON sidecars.

All numbers are written with 9 significant digits and no locale
dependence; sidecars embed the full configuration and seed (never a
timestamp), so rerunning the same invocation reproduces the files
byte-identically.

Exit codes: 0 success, 2 bad arguments, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, montecarlo, protocol
from .gaussian import gaussian_pdf

_FMT = "%.9g"

_CODE_BY_FLAG = {
    "none": "bare",
    "three_qubit": "three_qubit_phase",
    "binomial": "binomial_n3",
    "shor": "shor9",
}

_DEFAULT_PPHI_SWEEP = (0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2)
_DEFAULT_SIGMA_SWEEP = (0.05, 0.1, 0.15, 0.2)


def _fmt(x) -> str:
    return _FMT % (x,)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_sidecar(path: Path, config: dict) -> None:
    payload = {"version": f"cvqec-v{__version__}", "config": config}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def cmd_fig2(args) -> None:
    sigma = args.sigma
    out = Path(args.out)
    alpha_opt, _ = protocol.optimize_qubit_alpha(sigma)

    alphas = np.concatenate(([0.0], np.linspace(0.1 / sigma, 6.0 / sigma, 60),
                             [alpha_opt]))
    alphas = np.unique(alphas)
    var_rows = [(a, protocol._qubit_var_p(sigma, a),
                 "1" if abs(a - alpha_opt) < 1e-9 else "0") for a in alphas]
    _write_csv(out / "fig2_variance.csv", ["alpha", "var_p", "is_opt"], var_rows)

    noise = protocol.run_qubit_p_scheme(sigma, alpha_opt)
    grid = np.linspace(-4.0 * sigma, 4.0 * sigma, 201)
    corrected = np.zeros_like(grid)
    for br in noise.p.branches:
        shifted = grid + br.mean
        corrected += gaussian_pdf(shifted, sigma) * br.filter_values(shifted)
    dist_rows = [(b, gaussian_pdf(np.array([b]), sigma)[0], c)
                 for b, c in zip(grid, corrected)]
    _write_csv(out / "fig2_distribution.csv",
               ["beta_p", "p_uncorrected", "p_corrected"], dist_rows)

    _write_sidecar(out / "fig2_config.json",
                   {"command": "fig2", "sigma": sigma, "alpha_opt": alpha_opt})


def cmd_fig3(args) -> None:
    sigma, dmax, s = args.sigma, args.dmax, args.s
    if dmax > 32:
        raise ValueError("dmax must be <= 32")
    out = Path(args.out)
    rows = []
    for d in range(2, dmax + 1):
        alpha_opt, var_opt = protocol.optimize_qudit_alpha(sigma, d)
        var_at_s = protocol.run_qudit_scheme(sigma, math.pi / (s * sigma), d).var_p
        bound = protocol.qudit_bound(sigma, s, d)
        rows.append((float(d), alpha_opt, var_opt, var_at_s, bound))
    _write_csv(out / "fig3_qudit.csv",
               ["d", "alpha_opt", "var_opt", "var_at_alpha_s", "bound"], rows)
    _write_sidecar(out / "fig3_config.json",
                   {"command": "fig3", "sigma": sigma, "dmax": dmax, "s": s})


def _fig4_plan(args, key: float) -> montecarlo.TrajectoryPlan:
    zeta = protocol.optimal_zeta()
    common = dict(
        ancilla=_CODE_BY_FLAG[args.code],
        n_trajectories=args.trajectories,
        root_seed=args.seed,
        zeta=zeta,
        state_kind=args.state,
        coherent_amplitude=complex(args.amplitude),
    )
    if args.sweep == "pphi":
        return montecarlo.TrajectoryPlan(sigma=args.sigma, p_phi=key, **common)
    return montecarlo.TrajectoryPlan(sigma=key, **common)


def cmd_fig4(args) -> None:
    bosonic = args.code in ("binomial", "shor")
    if args.sweep == "pphi" and bosonic:
        raise ValueError("pphi sweeps apply to dephasing ancillas; "
                         "sweep sigma for bosonic codes")
    if args.sweep == "sigma" and not bosonic:
        raise ValueError("sigma sweeps are for bosonic-code ancillas")
    keys = (args.points if args.points else
            (_DEFAULT_PPHI_SWEEP if args.sweep == "pphi" else _DEFAULT_SIGMA_SWEEP))
    out = Path(args.out)
    rows = []
    sweep = tuple(sorted(keys)) if args.sweep == "pphi" else ()
    for key in sorted(keys):
        result = montecarlo.branch_decomposition_run(_fig4_plan(args, key), sweep)
        rows.append((key, result.infidelity.mean, result.infidelity.std_error,
                     str(result.infidelity.n), str(result.unrecoverable_count),
                     str(result.complement_count)))
    stem = f"fig4_{args.code}_{args.state}_{args.sweep}"
    _write_csv(out / f"{stem}.csv",
               [args.sweep, "infidelity", "std_error", "n",
                "unrecoverable", "complement"], rows)
    ref_plan = _fig4_plan(args, keys[0])
    _write_sidecar(out / f"{stem}_config.json", {
        "command": "fig4", "state": args.state, "code": args.code,
        "sweep": args.sweep, "points": list(keys),
        "trajectories": args.trajectories, "seed": args.seed,
        "sigma": args.sigma, "amplitude": args.amplitude,
        "zeta": ref_plan.zeta, "alpha": ref_plan.effective_alpha,
        "engine": "branch",
    })


def cmd_optimize(args) -> None:
    sigma = args.sigma
    if args.scheme == "qubit_p":
        alpha, var = protocol.optimize_qubit_alpha(sigma)
        payload = {"scheme": "qubit_p", "sigma": sigma,
                   "alpha_opt": alpha, "var_p": var}
    elif args.scheme == "squeezed":
        zeta, total = protocol.optimize_zeta(sigma)
        payload = {"scheme": "squeezed", "sigma": sigma, "zeta_opt": zeta,
                   "total_variance": total,
                   "squeezing_db": protocol.squeezing_db(zeta)}
    elif args.scheme == "two_qubit":
        alpha, var = protocol.optimize_qubit_alpha(sigma)
        payload = {"scheme": "two_qubit", "sigma": sigma, "alpha_opt": alpha,
                   "var_q": var, "var_p": var}
    else:
        alpha, var = protocol.optimize_qudit_alpha(sigma, args.d)
        payload = {"scheme": "qudit", "sigma": sigma, "d": args.d,
                   "alpha_opt": alpha, "var_p": var}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out_file:
        Path(args.out_file).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqec",
        description="Ancilla-assisted displacement-error correction: "
                    "figure data and parameter optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("fig2", help="qubit-scheme corrected variance data")
    p2.add_argument("--sigma", type=float, default=0.1)
    p2.add_argument("--out", default=".")
    p2.set_defaults(func=cmd_fig2)

    p3 = sub.add_parser("fig3", help="qudit-scheme variance vs d")
    p3.add_argument("--sigma", type=float, default=0.1)
    p3.add_argument("--dmax", type=int, default=15)
    p3.add_argument("--s", type=float, default=5.0)
    p3.add_argument("--out", default=".")
    p3.set_defaults(func=cmd_fig3)

    p4 = sub.add_parser("fig4", help="concatenated Monte Carlo sweeps")
    p4.add_argument("--state", choices=("coherent", "fock1"), default="coherent")
    p4.add_argument("--code", choices=tuple(_CODE_BY_FLAG), default="none")
    p4.add_argument("--sweep", choices=("pphi", "sigma"), default="pphi")
    p4.add_argument("--trajectories", type=int, default=2000)
    p4.add_argument("--seed", type=int, default=0)
    p4.add_argument("--sigma", type=float, default=0.1,
                    help="data-mode sigma (fixed for pphi sweeps)")
    p4.add_argument("--amplitude", type=float, default=0.0,
                    help="coherent-state amplitude of the data mode")
    p4.add_argument("--points", type=float, nargs="*", default=None,
                    help="explicit sweep values (default grid otherwise)")
    p4.add_argument("--out", default=".")
    p4.set_defaults(func=cmd_fig4)

    po = sub.add_parser("optimize", help="scheme parameter optimization")
    po.add_argument("--scheme", choices=("qubit_p", "two_qubit", "squeezed", "qudit"),
                    required=True)
    po.add_argument("--sigma", type=float, default=0.1)
    po.add_argument("--d", type=int, default=8)
    po.add_argument("--out-file", default=None)
    po.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"cvqec: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cvqec: i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
