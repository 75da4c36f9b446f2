"""Correctness checks on the files the CLI wrote.

Each check takes parsed output (and, where it needs one, a reference
value computed by the caller) and returns a list of failure messages; an
empty list means the output passed.  The checks are deterministic or hold
with a wide statistical margin (5 standard errors), so they pass on any
seed.  ``selftest.py`` feeds each of them one corrupted output.
"""

from __future__ import annotations

import csv
import io
import json
import math

E_FACTOR = 1.0 - math.exp(-1.0)
N_SE = 5.0


def read_csv(data: bytes) -> list[dict[str, float]]:
    rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def read_json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def check_fig2(rows, sigma: float) -> list[str]:
    """The marked optimum is the smallest variance and equals the closed
    form (1 - 1/e) sigma^2 / 2 (acceptance 1)."""
    opt = [r for r in rows if r["is_opt"] == 1.0]
    if len(opt) != 1:
        return [f"fig2: {len(opt)} rows marked optimal"]
    out = []
    target = E_FACTOR * sigma**2 / 2.0
    if abs(opt[0]["var_p"] - target) > 1e-9:
        out.append(f"fig2: optimal var_p {opt[0]['var_p']!r} != {target!r}")
    if min(r["var_p"] for r in rows) < opt[0]["var_p"]:
        out.append("fig2: a non-optimal alpha has a smaller variance")
    return out


def check_fig3(rows, sigma: float) -> list[str]:
    """Acceptance 4: d=2 matches the qubit optimum to 1e-9, var_opt is
    nonincreasing in d, and var_at_alpha_s is below the bound for d >= 4."""
    out = []
    ds = [int(r["d"]) for r in rows]
    if ds != list(range(2, len(rows) + 2)):
        out.append(f"fig3: rows are not d = 2, 3, ...: {ds}")
        return out
    target = E_FACTOR * sigma**2 / 2.0
    if abs(rows[0]["var_opt"] - target) > 1e-9:
        out.append(f"fig3: d=2 var_opt {rows[0]['var_opt']!r} != {target!r}")
    for prev, cur in zip(rows, rows[1:]):
        if cur["var_opt"] > prev["var_opt"]:
            out.append(f"fig3: var_opt rises from d={int(prev['d'])} "
                       f"to d={int(cur['d'])}")
    for r in rows:
        if r["d"] >= 4 and not r["var_at_alpha_s"] < r["bound"]:
            out.append(f"fig3: d={int(r['d'])} var_at_alpha_s "
                       f"{r['var_at_alpha_s']!r} not below bound {r['bound']!r}")
    return out


def check_optimize(payload: dict, optimal_zeta: float) -> list[str]:
    """Acceptance 1 and 2 for the qubit schemes and the squeezed scheme;
    the qudit optimum must not be worse than the qubit one."""
    sigma = payload["sigma"]
    scheme = payload["scheme"]
    qubit_var = E_FACTOR * sigma**2 / 2.0
    if scheme in ("qubit_p", "two_qubit"):
        ref = 1.0 / (2.0 * math.sqrt(2.0) * sigma)
        if abs(payload["alpha_opt"] - ref) > 1e-4 * ref:
            return [f"optimize {scheme}: alpha {payload['alpha_opt']!r} "
                    f"not within rel 1e-4 of {ref!r}"]
        return []
    if scheme == "squeezed":
        out = []
        if abs(payload["zeta_opt"] - optimal_zeta) > 1e-4:
            out.append(f"optimize squeezed: zeta {payload['zeta_opt']!r} "
                       f"!= {optimal_zeta!r}")
        target = sigma**2 * math.sqrt(E_FACTOR)
        if abs(payload["total_variance"] - target) > 1e-6:
            out.append(f"optimize squeezed: total variance "
                       f"{payload['total_variance']!r} != {target!r}")
        return out
    if not 0.0 < payload["var_p"] <= qubit_var:
        return [f"optimize qudit: var_p {payload['var_p']!r} outside "
                f"(0, {qubit_var!r}]"]
    return []


def check_pphi_endpoint(rows, exact: float) -> list[str]:
    """The p_phi = 0 point (undephased ancilla) is the squeezed scheme:
    its Monte Carlo mean lies within 5 SE of exact_infidelity."""
    zero = [r for r in rows if r["pphi"] == 0.0]
    if len(zero) != 1:
        return [f"fig4: {len(zero)} rows at p_phi = 0"]
    r = zero[0]
    if not abs(r["infidelity"] - exact) <= N_SE * r["std_error"]:
        return [f"fig4: p_phi=0 infidelity {r['infidelity']!r} is more than "
                f"{N_SE} SE ({r['std_error']!r}) from exact {exact!r}"]
    return []


def check_shor_vs_binomial(shor_rows, binomial_rows) -> list[str]:
    """Acceptance 8: the nine-qubit ancilla is never worse than the
    binomial one by more than 5 combined standard errors."""
    binom = {r["sigma"]: r for r in binomial_rows}
    out = []
    for r in shor_rows:
        b = binom.get(r["sigma"])
        if b is None:
            out.append(f"fig4: no binomial point at sigma={r['sigma']!r}")
            continue
        err = math.hypot(r["std_error"], b["std_error"])
        if r["infidelity"] > b["infidelity"] + N_SE * err:
            out.append(f"fig4: shor {r['infidelity']!r} exceeds binomial "
                       f"{b['infidelity']!r} + {N_SE} SE at sigma={r['sigma']!r}")
    return out


def check_same_bytes(files: dict[str, bytes], reference: dict[str, bytes],
                     what: str) -> list[str]:
    """Byte identity of one command's files against a reference run."""
    if files.keys() != reference.keys():
        return [f"{what}: files {sorted(files)} != {sorted(reference)}"]
    return [f"{what}: {name} differs" for name in sorted(files)
            if files[name] != reference[name]]


def check_branch_vs_dense(pairs, tol: float = 1e-9) -> list[str]:
    """Per-trajectory fidelities of the branch and dense engines agree."""
    return [f"trajectory {i}: branch {b!r} vs dense {d!r}"
            for i, b, d in pairs if not abs(b - d) <= tol]
