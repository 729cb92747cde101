"""The benchmark's tracer (perfbench/harness/tracing.py) wraps library
functions and methods by name, so a rename breaks every traced benchmark
run; this test fails first."""

from pathlib import Path

from oscillab import criteria as cr
from oscillab import dyadic, leibov
from oscillab import symbols as sym

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_reach_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from harness import tracing
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        sweep = cr.CriterionSweep(sym.Polynomial((0.5, 0.5)),
                                  cr.SweepSettings(depth=5, angles=4, w2_angles=4))
        for kind in ("L", "W2", "S1", "A-double"):
            sweep.profile(kind)
        core = dyadic.density_core(dyadic.ArcSet.from_json([[0, 1, 1, 4], [1, 2, 5, 8]]))
        dyadic.verify_density_bound(core)
        bases = leibov.TestSequence.geometric(3).base_points
        leibov.gamma_combination(bases, (1.0, -0.5, 0.25), leibov.GapPoint(0.25, 0.1))
    finally:
        tracer.unpatch()
    metrics = tracer.layer_metrics()
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    assert metrics["criteria.l_values.calls"] > 0
    assert metrics["hardy.poisson_gamma_sweep.calls"] > 0
    assert metrics["dyadic.density_core.calls"] == 1
    assert metrics["leibov.gamma_combination.calls"] == 1
