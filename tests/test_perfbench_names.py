"""The benchmark's tracer (perfbench/tracing.py) wraps cvqec functions by
the names their callers look up.  A renamed or dropped name breaks the
traced benchmark run; this checks the qudit search's names in the tier-1
suite, so such a change fails here too."""

from pathlib import Path

from cvqec import protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_sees_the_qudit_search(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        protocol.optimize_qudit_alpha(0.1, 3)
    finally:
        tracer.remove()
    spans = tracer.summarize(0, len(tracer))
    assert spans["optimize.minimize_scalar"]["calls"] == 1
    assert spans["protocol.optimize_qudit_alpha"]["calls"] == 1
    assert tracer.counts["optimize.evals"] > 0
