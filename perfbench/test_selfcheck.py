"""Self-check of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_selfcheck.py

Takes about three minutes: it runs the benchmark itself, twice traced.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from harness import inputs, tracing, workloads  # noqa: E402
from oscillab import criteria, gallery, nevanlinna, symbols  # noqa: E402

#: counts that must repeat exactly between two traced runs of one seed
DETERMINISTIC = ("hardy.poisson_gamma_sweep.kernel_evals", "criteria.l_values.kernel_evals",
                 "nevanlinna.preimages.calls", "hardy.garsia_gamma.grid_rounds",
                 "criteria.l_statistic.grid_rounds", "criteria.tau_cap_hits",
                 "criteria.levels.unresolved", "gallery.tasks")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    return result


def test_same_seed_gives_same_inputs():
    names = tuple(e.name for e in gallery.GALLERY)
    assert inputs.zoo_inputs(7) == inputs.zoo_inputs(7)
    assert inputs.cross_inputs(7, names).to_json() == inputs.cross_inputs(7, names).to_json()


def test_different_seed_gives_different_inputs():
    names = tuple(e.name for e in gallery.GALLERY)
    assert inputs.zoo_inputs(7) != inputs.zoo_inputs(8)
    assert inputs.cross_inputs(7, names).to_json() != inputs.cross_inputs(8, names).to_json()


def test_zoo_candidates_have_their_slot_cost_class():
    for slot, (_, _, _, points) in enumerate(inputs.ZOO_SLOTS):
        for index in range(inputs.ZOO_CANDIDATES):
            assert inputs.s1_points(inputs.zoo_candidate(slot, index)["symbol"]) == points


def test_zoo_reference_keeps_every_candidate():
    """Failing candidates stay in the pool, recorded with their exception."""
    reference = json.loads((workloads.REFERENCE_DIR / "zoo.json").read_text(encoding="utf-8"))
    for slot, (name, *_) in enumerate(inputs.ZOO_SLOTS):
        recorded = reference["candidates"][name]
        assert len(recorded) == inputs.ZOO_CANDIDATES
        for index, entry in enumerate(recorded):
            assert entry["symbol"] == inputs.zoo_candidate(slot, index)["symbol"]
            assert ("rows" in entry) != ("raises" in entry)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER + run.RUN_LEVEL)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_and_deterministic_counts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    untraced = bench("cross-checks", 3, 0)
    assert list(untraced["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    for workload in ("cross-checks", "symbol-zoo", "gallery-pool"):
        first, second = bench(workload, 3, 1), bench(workload, 3, 1)
        assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
        for name in DETERMINISTIC:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_not_runnable_without_the_library(tmp_path):
    """In a directory holding only the benchmark, a run fails without a result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    subprocess.run(["cp", "-r", str(HERE), str(tmp_path / "perfbench")], check=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cross-checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# Known defects, counted as expected failures by the timed workloads.  Each
# asserts the correct behaviour and is expected to fail; when a fix lands it
# passes, the strict marker turns that into a failure, and the zoo reference
# (record_reference.py) and ``workloads.KNOWN_FAILURES`` should be updated.

@pytest.mark.xfail(strict=True, raises=nevanlinna.RationalFormError,
                   reason="S1 lowering of degree-5 Blaschke composites near the circle")
def test_known_defect_s1_degree5_blaschke():
    phi = symbols.Blaschke(1, (0.5, 0.5j, -0.5, -0.5j, 0.3))
    value = nevanlinna.s1_statistic(phi, 1.0 - 2.0 ** -8)
    assert 0.0 <= value.value <= 1.0


@pytest.mark.xfail(strict=True, reason="taylor route stops at its 2^22 cap unconverged")
def test_known_defect_square_routes_at_gap_2_9():
    a = (1.0 - 2.0 ** -9) * complex(math.cos(0.2 * math.pi), math.sin(0.2 * math.pi))
    routes = criteria.composite_norm_routes(gallery.entry_by_name("square").symbol, a)
    assert routes.spread() <= 1e-8
