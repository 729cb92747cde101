"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE nn PASS/FAIL`` line (run with ``pytest -s``
to see them on a green run) and then asserts.  Two checks are expected to
fail as stated and document sharp constants instead:

* 03: the level-set measure statistic for (1+z)/2 at cutoff 3/4 crosses
  0.05 only around t = 1 - 2^-12 (the supremum behaves like
  2.66 * sqrt(1 - t)), not by t = 1 - 2^-10;
* 09: the lower Poisson bound 1/(4|I(a)|) is false near arc endpoints once
  |a| > ~0.65; the sharp endpoint constant is 2/(1 + pi^2) = 0.18400.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oscillab import criteria as cr
from oscillab import dyadic as dy
from oscillab import hardy
from oscillab import leibov as lb
from oscillab import nevanlinna as nev
from oscillab import symbols as s
from oscillab.gallery import DEFAULT_KINDS, GALLERY, run_gallery
from oscillab.geometry import arc_of, poisson_kernel

SEED = 20260810


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def gallery_run():
    return run_gallery(DEFAULT_KINDS, cr.SweepSettings(), workers=1)


def test_criterion_01_identity_suite():
    """Three routes to the squared composite norm agree to 1e-8."""
    rng = np.random.default_rng(SEED)
    radius = 1.0 - 2.0 ** -10
    points = radius * np.sqrt(rng.uniform(0, 1, 20)) * np.exp(
        2j * math.pi * rng.uniform(0, 1, 20))
    worst, where = 0.0, ""
    for entry in GALLERY:
        for a in points:
            routes = cr.composite_norm_routes(entry.symbol, complex(a), base_n=4096)
            if routes.spread() > worst:
                worst, where = routes.spread(), f"{entry.name} at a={complex(a):.4f}"
    ok = worst < 1e-8
    report(1, ok, f"max spread over 8 symbols x 20 points = {worst:.3e} ({where})")
    assert ok, f"route spread {worst:.3e} at {where}"


def test_criterion_02_closed_form_anchor():
    """Quadrature gamma for sigma_b - b matches sqrt(1 - |sigma_b(a)|^2)."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        b = 0.99 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        a = 0.99 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        got = hardy.garsia_gamma(lb.test_function(complex(b)), complex(a))
        worst = max(worst, abs(got - lb.gamma_closed_form(b, a)))
    ok = worst < 1e-8
    report(2, ok, f"max |quadrature - closed form| over 1000 pairs = {worst:.3e}")
    assert ok


def test_criterion_03_half_shift_counterexample(gallery_run):
    """(1+z)/2: norm ladder climbs above 0.8 while the measure statistic decays."""
    row = next(r for r in gallery_run.rows if r.name == "half-shift")
    profiles = gallery_run.profiles["half-shift"]
    l_points = [(a, v) for a, v in profiles["L"].points]
    l_vals = [v for _, v in l_points]
    l_ok = (all(y >= x - 1e-9 for x, y in zip(l_vals, l_vals[1:]))
            and l_vals[-1] > 0.8)
    s2_at_k10 = {}
    for prof in profiles["S2"]:
        t10 = 1.0 - 2.0 ** -10
        val = next(v for t, v in prof.points if abs(t - t10) < 1e-12)
        s2_at_k10[prof.metadata["R"]] = val
    s2_ok = all(v < 0.05 for v in s2_at_k10.values())
    verdict_ok = (row.report.classification == "non-compact-evidence"
                  and row.report.s2_flag == "satisfied")
    ok = l_ok and s2_ok and verdict_ok
    detail = (f"L final={l_vals[-1]:.6f} nondecreasing={l_ok}; "
              f"S2 at t=1-2^-10: " +
              ", ".join(f"R={R:g}: {v:.4f}" for R, v in sorted(s2_at_k10.items())) +
              f"; verdict={row.report.classification}/{row.report.s2_flag}")
    report(3, ok, detail)
    assert l_ok, f"norm ladder: {l_vals}"
    assert verdict_ok, row.report
    assert s2_ok, (
        f"measure statistic at t = 1-2^-10 not below 0.05 for every cutoff: "
        f"{s2_at_k10}; the cutoff-3/4 supremum decays like 2.66*sqrt(1-t) and "
        f"crosses 0.05 only near t = 1-2^-12")


def test_criterion_04_counting_closed_form():
    """N(z^n, w) = log(1/|w|) to 1e-10."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        r = 2.0 ** -10 + (1 - 2.0 ** -9) * rng.uniform()
        w = complex(r * np.exp(2j * math.pi * rng.uniform()))
        psi = nev.to_rational(s.power(s.Identity(), n))
        worst = max(worst, abs(nev.counting_function(psi, w) - math.log(1 / abs(w))))
    ok = worst < 1e-10
    report(4, ok, f"max |N(z^n, w) - log(1/|w|)| over 100 draws = {worst:.3e}")
    assert ok


def test_criterion_05_equivalence_coherence(gallery_run):
    """The equivalence family must be unanimous for every gallery entry."""
    problems = []
    for row in gallery_run.rows:
        family = {k: v for k, v in row.report.sub_verdicts.items()
                  if k in cr.STRICT_FAMILY}
        kinds = set(family.values())
        if not row.report.consistent or len(kinds) != 1:
            problems.append((row.name, family))
        if not row.matches:
            problems.append((row.name, row.report.classification))
    ok = not problems and gallery_run.exit_code == 0
    report(5, ok, f"unanimous sub-verdicts on all 8 entries; exit={gallery_run.exit_code}"
           + (f"; problems={problems}" if problems else ""))
    assert ok, problems


def test_criterion_06_hyperbolic_coherence():
    """rho^2 and capped-tau^p arc averages agree in verdict on polynomial symbols."""
    settings = cr.SweepSettings()
    metrics = ("rho2", ("tau", 0.5), ("tau", 1.0), ("tau", 2.0))
    poly_entries = [e for e in GALLERY if s.as_polynomial(e.symbol) is not None]
    problems = []
    for entry in poly_entries:
        sweep = cr.CriterionSweep(entry.symbol, settings)
        classes = {}
        for metric in metrics:
            prof = sweep.profile_a_hyp_double(metric)
            classes[cr._metric_name(metric)] = cr.classify_profile(
                prof, settings.epsilon, settings.delta)
        expected = "vanishing" if entry.expected == "compact" else "failing"
        if set(classes.values()) != {expected}:
            problems.append((entry.name, classes))
    ok = not problems
    report(6, ok, f"{len(poly_entries)} polynomial symbols x 4 metrics agree"
           + (f"; problems={problems}" if problems else ""))
    assert ok, problems


def _fuzz_arcset(rng: random.Random) -> dy.ArcSet:
    pairs = []
    for _ in range(rng.randint(1, 8)):
        level = rng.randint(1, 10)
        denom = 2 ** level
        lo = rng.randrange(denom)
        hi = rng.randrange(lo + 1, denom + 1)
        pairs.append((Fraction(lo, denom), Fraction(hi, denom)))
    return dy.ArcSet.from_pairs(pairs)


def test_criterion_07_dyadic_lemmas_exact():
    """Sandwich, zero residue and core density hold exactly on 1000 fuzz sets."""
    rng = random.Random(SEED)
    checked = 0
    while checked < 1000:
        e = _fuzz_arcset(rng)
        if e.measure == 0 or e.measure == 1:
            continue
        lam = (1 + e.measure) / 2
        res = dy.wik_decomposition(e, lam)
        assert res.residue == 0, (e, res)
        for q in res.arcs:
            inter = dy.intersect_measure(res.source, q)
            assert lam * q.measure / 2 <= inter <= lam * q.measure, (e, q)
        core = dy.density_core(e)
        target = core.source.measure
        for zeta in core.core.interior_sample_angles(16):
            for k in range(1, 13):
                length = Fraction(1, 2 ** k)
                lo = zeta - length / 2
                inter = dy.intersect_measure(core.source, (lo, lo + length))
                assert 8 * inter >= target * length, (e, zeta, k)
        checked += 1
    ok = checked == 1000
    report(7, ok, f"{checked} fuzzed sets: exact sandwich, coverage and density bounds")
    assert ok


def test_criterion_08_selection_certificate():
    """Depth-6 certificate exists; combinations respect the seminorm window."""
    cert = lb.select_subsequence(lb.TestSequence.geometric(130), 6)
    assert cert.depth == 6 and cert.verified()
    rng = np.random.default_rng(SEED + 3)
    worst_lo, worst_hi = math.inf, -math.inf
    for _ in range(50):
        size = int(rng.integers(1, 7))
        lam = tuple(complex(rng.normal(), rng.normal()) for _ in range(size))
        sup = max(abs(c) for c in lam)
        if sup == 0.0:
            continue
        est = lb.combination_seminorm(cert, lam)
        worst_lo = min(worst_lo, est.value / sup)
        worst_hi = max(worst_hi, est.value / sup)
        assert 0.25 * sup <= est.value <= 2.0 * sup + 1e-6
    ok = True
    report(8, ok, f"depth-6 certificate verified; 50 combinations in window, "
           f"value/sup in [{worst_lo:.4f}, {worst_hi:.4f}]")


def test_criterion_09_poisson_sandwich():
    """1/(4|I|) <= P_a <= 2/|I| on sampled points of I(a)."""
    rng = np.random.default_rng(SEED + 4)
    total, low_viol, high_viol = 0, 0, 0
    min_ratio, max_ratio = math.inf, -math.inf
    per_arc = 10 ** 4 // (12 * 16) + 1
    for k in range(1, 13):
        r = 1.0 - 2.0 ** -k
        for j in range(16):
            a = r * np.exp(2j * math.pi * j / 16)
            arc = arc_of(a)
            lo, _ = arc.span()
            t = float(lo) + float(arc.length) * rng.uniform(0, 1, per_arc)
            zeta = np.exp(2j * math.pi * t)
            ratio = poisson_kernel(a, zeta) * float(arc.length)
            total += per_arc
            low_viol += int(np.count_nonzero(ratio < 0.25))
            high_viol += int(np.count_nonzero(ratio > 2.0))
            min_ratio = min(min_ratio, float(np.min(ratio)))
            max_ratio = max(max_ratio, float(np.max(ratio)))
    ok = low_viol == 0 and high_viol == 0
    report(9, ok, f"{total} samples: min P|I| = {min_ratio:.5f}, max = {max_ratio:.5f}, "
           f"lower-bound violations = {low_viol}, upper = {high_viol}")
    assert high_viol == 0
    assert low_viol == 0, (
        f"the 1/4 lower bound fails at {low_viol}/{total} sampled points near arc "
        f"endpoints (min ratio {min_ratio:.5f}); the sharp endpoint constant is "
        f"2/(1+pi^2) = {2 / (1 + math.pi ** 2):.5f}")


def test_criterion_10_w2_dominates_l():
    """The shifted seminorm at b = phi(a) dominates the composite norm at a."""
    settings = cr.SweepSettings()
    grid = settings.grid()
    picks = [grid[i] for i in (0, 37, 150, 333, 520, 700)]
    worst = math.inf
    for entry in GALLERY:
        for a in picks:
            a = complex(a)
            b = complex(entry.symbol.eval(a))
            w2 = cr.w2_statistic(entry.symbol, b, settings, extra_points=(a,))
            l_val = cr.l_statistic(entry.symbol, a)
            worst = min(worst, w2 - l_val)
            assert w2 >= l_val - 1e-10, (entry.name, a, w2, l_val)
    report(10, True, f"min(w2 - l) over 8 symbols x 6 points = {worst:.3e} >= -1e-10")


def test_criterion_11_reproducibility(tmp_path):
    """gallery --depth 10 gives byte-identical outputs for 1 and 3 workers."""
    outs = []
    for workers, sub in ((1, "a"), (3, "b")):
        out = tmp_path / sub
        cmd = [sys.executable, "-m", "oscillab.cli", "gallery", "--depth", "10",
               "--out", str(out), "--seed", "5", "--workers", str(workers)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    diffs = [n for n in names if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    ok = not diffs
    report(11, ok, f"{len(names)} output files byte-identical across worker counts"
           + (f"; differing: {diffs}" if diffs else ""))
    assert ok, diffs
