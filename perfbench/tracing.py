"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the cvqec modules at the attribute
their callers look up (module globals, or the class for
``DisplacementEngine`` methods), so nothing in ``src/`` changes.  Each
call records one span (name, start, end, parent) in flat in-memory
arrays; ``summarize`` turns a contiguous range of spans into per-name
totals and self times (duration minus the union of the child spans).
Counters that are not spans (quadrature calls, decoder outcomes,
optimizer evaluations, trajectory outcome counts) are kept alongside.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int) -> int:
        stack = self._stack()
        # A thread-pool worker's first span belongs to the span its
        # submitter (the main thread, blocked in pool.map) has open.
        parents = stack or self._main_stack
        parent = parents[-1] if parents else -1
        with self._lock:
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack().pop()

    def bump(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- patching ----------------------------------------------------------

    def _replace(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Record a span around every call of ``owner.attr``.  ``before``
        may rewrite the positional arguments; ``after`` sees the result."""
        orig = vars(owner)[attr]
        nid = self.name_id(name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            i = self._open(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(result)
            return result

        self._replace(owner, attr, traced)

    def count(self, owner, attr: str, key: str):
        """Count calls of ``owner.attr`` without timing them."""
        orig = vars(owner)[attr]

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            self.bump(key)
            return orig(*args, **kwargs)

        self._replace(owner, attr, counted)

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # --- analysis ----------------------------------------------------------

    def summarize(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per-name call count, total duration and total self time of the
        spans with index in [lo, hi).  Spans named ``fock.apply`` whose
        parent is a ``fock.matrix`` span are reported as
        ``fock.apply_in_matrix``."""
        n = hi - lo
        names = np.array(self.name[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64)
        start = np.array(self.start[lo:hi])
        end = np.array(self.end[lo:hi])
        dur = end - start
        covered = np.zeros(n)
        child = np.nonzero(parent >= lo)[0]
        if len(child):
            order = child[np.lexsort((start[child], parent[child]))]
            groups = np.split(order, np.nonzero(np.diff(parent[order]))[0] + 1)
            for g in groups:
                s, e = start[g], end[g]
                reach = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
                covered[parent[g[0]] - lo] = np.maximum(0.0, e - np.maximum(s, reach)).sum()
        self_time = dur - covered

        labels = list(self.names)
        if "fock.matrix" in self._ids and "fock.apply" in self._ids:
            nested = np.zeros(n, dtype=bool)
            inside = parent >= lo
            nested[inside] = ((names[inside] == self._ids["fock.apply"])
                              & (names[parent[inside] - lo] == self._ids["fock.matrix"]))
            names = names.copy()
            names[nested] = len(labels)
            labels.append("fock.apply_in_matrix")
        out = {}
        for nid in np.unique(names):
            m = names == nid
            out[labels[nid]] = {"calls": int(m.sum()), "s": float(dur[m].sum()),
                                "self_s": float(self_time[m].sum())}
        return out

    def __len__(self) -> int:
        return len(self.start)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every cvqec layer."""
    from cvqec import cli, dvcodes, fock, gaussian, montecarlo, protocol

    tracer.wrap(cli, "main", "cli.main")
    for cmd in ("fig2", "fig3", "fig4", "optimize"):
        tracer.wrap(cli, f"cmd_{cmd}", f"cli.{cmd}")

    def run_counts(result):
        tracer.bump("montecarlo.trajectories", result.infidelity.n)
        tracer.bump("montecarlo.unrecoverable", result.unrecoverable_count)
        tracer.bump("montecarlo.complement", result.complement_count)

    tracer.wrap(montecarlo, "branch_decomposition_run", "montecarlo.run",
                after=run_counts)
    tracer.count(montecarlo, "confinement_kraus", "channels.confinement_calls")

    engine = fock.DisplacementEngine
    tracer.wrap(engine, "__init__", "fock.engine_build")
    tracer.wrap(engine, "apply", "fock.apply")
    tracer.wrap(engine, "matrix", "fock.matrix")

    def decode_outcome(result):
        if not result[2]:
            tracer.bump("dvcodes.best_effort")

    tracer.wrap(dvcodes, "correction_matrix", "dvcodes.correction",
                after=decode_outcome)
    for fn in ("stabilizer_matrices", "binomial_recovery_kraus",
               "three_qubit_phase_code", "shor9_code", "binomial_code"):
        tracer.wrap(dvcodes, fn, f"dvcodes.{fn}")

    # protocol imported the moment function into its own namespace.
    tracer.wrap(protocol, "qudit_filtered_moments", "gaussian.moments")
    quad = gaussian._sciint.quad

    def counted_quad(*args, **kwargs):
        tracer.bump("gaussian.quad")
        return quad(*args, **kwargs)

    tracer._replace(gaussian, "_sciint", types.SimpleNamespace(quad=counted_quad))

    for fn in ("run_qubit_p_scheme", "run_two_qubit_scheme",
               "run_squeezed_scheme", "run_qudit_scheme", "qudit_bound",
               "optimize_qubit_alpha", "optimize_qubit_alpha_for",
               "optimize_qudit_alpha", "optimize_zeta", "exact_infidelity"):
        tracer.wrap(protocol, fn, f"protocol.{fn}")

    def count_evals(args):
        f = args[0]

        def counted(x):
            tracer.bump("optimize.evals")
            return f(x)

        return (counted,) + tuple(args[1:])

    tracer.wrap(protocol, "minimize_scalar", "optimize.minimize_scalar",
                before=count_evals)


def layer_metrics(spans: dict, counts: Counter, bytes_written: int) -> dict:
    """Per-layer metrics from ``Tracer.summarize`` output and counters."""

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    protocol_self = sum(v["self_s"] for k, v in spans.items()
                        if k.startswith("protocol."))
    traj = counts["montecarlo.trajectories"]
    corrections = get("dvcodes.correction", "calls")
    moments = get("gaussian.moments", "calls")
    m = {
        "cli.fig2_s": (get("cli.fig2", "s"), "s"),
        "cli.fig3_s": (get("cli.fig3", "s"), "s"),
        "cli.fig4_s": (get("cli.fig4", "s"), "s"),
        "cli.optimize_s": (get("cli.optimize", "s"), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "montecarlo.run_s": (get("montecarlo.run", "s"), "s"),
        "montecarlo.self_s": (get("montecarlo.run", "self_s"), "s"),
        "montecarlo.unrecoverable_ratio":
            (counts["montecarlo.unrecoverable"] / traj if traj else 0.0, "ratio"),
        "montecarlo.complement_ratio":
            (counts["montecarlo.complement"] / traj if traj else 0.0, "ratio"),
        "fock.apply_calls": (get("fock.apply", "calls"), "count"),
        "fock.apply_s": (get("fock.apply", "s"), "s"),
        "fock.matrix_calls": (get("fock.matrix", "calls"), "count"),
        "fock.matrix_s": (get("fock.matrix", "s"), "s"),
        "fock.engine_builds": (get("fock.engine_build", "calls"), "count"),
        "fock.engine_build_s": (get("fock.engine_build", "s"), "s"),
        "dvcodes.correction_calls": (corrections, "count"),
        "dvcodes.best_effort_ratio":
            (counts["dvcodes.best_effort"] / corrections if corrections else 0.0,
             "ratio"),
        "gaussian.moment_calls": (moments, "count"),
        "gaussian.moment_s": (get("gaussian.moments", "s"), "s"),
        "gaussian.adaptive_share":
            (counts["gaussian.quad"] / (3 * moments) if moments else 0.0, "ratio"),
        "protocol.run_qudit_calls": (get("protocol.run_qudit_scheme", "calls"), "count"),
        "protocol.run_qudit_s": (get("protocol.run_qudit_scheme", "s"), "s"),
        "protocol.self_s": (protocol_self, "s"),
        "optimize.calls": (get("optimize.minimize_scalar", "calls"), "count"),
        "optimize.evals": (counts["optimize.evals"], "count"),
        "optimize.self_s": (get("optimize.minimize_scalar", "self_s"), "s"),
        "channels.confinement_calls": (counts["channels.confinement_calls"], "count"),
    }
    return m


def merge_summaries(a: dict, b: dict) -> dict:
    out = {k: dict(v) for k, v in a.items()}
    for k, v in b.items():
        cur = out.setdefault(k, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in cur:
            cur[key] += v[key]
    return out


def write_spans(tracer: Tracer, path) -> None:
    np.savez_compressed(path, names=np.array(tracer.names),
                        name=np.array(tracer.name, dtype=np.int32),
                        parent=np.array(tracer.parent, dtype=np.int32),
                        start=np.array(tracer.start), end=np.array(tracer.end))
