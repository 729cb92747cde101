"""The four workloads: set-up, one timed round, and the correctness gate.

Every workload is a closed loop: one client drains a fixed task list, where a
task is one profile computation (gallery, symbol zoo) or one validation
kernel call (cross-checks).  A round runs the whole list once and returns its
wall and CPU time, per-task times and the gate's failure counts.  A task
fails if it raises, if its symbol's verdict is wrong or inconsistent, or if
a value leaves the reference tolerance; failures are counted, never
retried, and the round goes on.  A failure is *expected* when it is a known
defect recorded with the benchmark (a zoo candidate whose reference is the
exception it raises, a cross-check listed in ``KNOWN_FAILURES``); expected
failures count in ``failed`` and ``failed_frac`` but do not fail the gate,
any other failure does.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import inputs
from .tasks import TASK_LOG_ENV, ProfileTimer, read_task_log, timed_profile_task

HERE = Path(__file__).resolve().parent.parent
REFERENCE_DIR = HERE / "reference"

#: ladder depth of the gallery workloads (see README: depth 12 does not fit
#: the benchmark's time budget; depth 11 runs the same code on half-size grids)
GALLERY_DEPTH = 11

#: tolerance of profile values against the recorded reference (gamma_tol)
VALUE_TOL = 1e-8

#: tolerance of the cross-check identities (``oscillab identities --tol``)
IDENTITY_TOL = 1e-8

#: cross-check tasks that fail at this commit, by (kind, gallery entry)
KNOWN_FAILURES = {
    ("routes", "square"): "the Taylor route stops unconverged at its 2^22-coefficient cap "
                          "for |a| >= 1 - 2^-9; route spread 7e-8 to 3e-7",
}


@dataclass
class RoundResult:
    wall: float
    cpu: float
    task_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    levels: int = 0
    unresolved: int = 0
    worker_peak_kb: int = 0
    digest: str | None = None


def _cpu() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _report(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def read_profile_csv(path: Path) -> dict[str, list]:
    """{label: [[approach, value], ...]} from a profiles.csv."""
    rows: dict[str, list] = {}
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    for line in lines:
        label, approach, value, _, _ = line.split(",")
        rows.setdefault(label, []).append([float(approach), float(value)])
    return rows


def kind_of(label: str) -> str:
    return label.split("[")[0]


def off_reference(rows: dict, reference: dict) -> set[str]:
    """Kinds whose rows differ from the reference beyond VALUE_TOL."""
    bad = set()
    for label in set(rows) | set(reference):
        got, want = rows.get(label, []), reference.get(label, [])
        if len(got) != len(want) or any(
                g[0] != w[0] or abs(g[1] - w[1]) > VALUE_TOL for g, w in zip(got, want)):
            bad.add(kind_of(label))
    return bad


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Gallery:
    """The built-in gallery, all ten kinds, written as ``oscillab gallery`` does."""

    def __init__(self, name: str, workers: int, out_root: Path):
        self.name = name
        self.workers = workers
        self.dir = out_root / name

    def setup(self, seed: int) -> None:
        from oscillab import criteria, gallery, symbols
        self.kinds = gallery.DEFAULT_KINDS + gallery.EXTRA_KINDS
        for entry in gallery.GALLERY:
            symbols.certificate(entry.symbol)
        criteria.SweepSettings(depth=GALLERY_DEPTH).grid()
        reference = json.loads((REFERENCE_DIR / "gallery.json").read_text(encoding="utf-8"))
        if reference["depth"] != GALLERY_DEPTH or reference["kinds"] != list(self.kinds):
            raise RuntimeError("gallery reference was recorded with other settings")
        self.reference = reference["entries"]
        self.tasks_per_round = len(gallery.GALLERY) * len(self.kinds)

    def start_pool(self):
        """Pool start-up as the gallery pays it (probe only)."""
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=self.workers)
        for future in [pool.submit(os.getpid) for _ in range(self.workers)]:
            future.result()
        return pool

    def round(self) -> RoundResult:
        from oscillab import cli, gallery
        out = self.dir / "out"
        log = self.dir / "tasks.log"
        shutil.rmtree(out, ignore_errors=True)
        self.dir.mkdir(parents=True, exist_ok=True)
        log.unlink(missing_ok=True)
        os.environ[TASK_LOG_ENV] = str(log)
        argv = ["gallery", "--depth", str(GALLERY_DEPTH), "--out", str(out),
                "--workers", str(self.workers), "--seed", "0", "--criteria", *self.kinds]
        original = gallery._profile_task
        gallery._profile_task = timed_profile_task
        wall0, cpu0 = time.perf_counter(), _cpu()
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:
            _report(traceback.format_exc())
            code = None
        finally:
            gallery._profile_task = original
        failed = self._gate(out, code)
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
        rows = read_task_log(log) if log.exists() else []
        peaks: dict[int, int] = {}
        for row in rows:
            if row["pid"] != os.getpid():
                peaks[row["pid"]] = max(peaks.get(row["pid"], 0), row["peak_kb"])
        return RoundResult(
            wall, cpu, [row["s"] for row in rows], self.tasks_per_round, len(failed),
            len(failed), sum(row["levels"] for row in rows),
            sum(row["unresolved"] for row in rows), sum(peaks.values()),
            tree_digest(out) if code is not None else None)

    def _gate(self, out: Path, code) -> set:
        """Failed (entry, kind) tasks of one round."""
        every = {(e, k) for e in self.reference for k in self.kinds}
        if code is None:
            return every
        failed = set()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        for row in summary["rows"]:
            if not (row["match"] and row["consistent"]):
                _report(f"{self.name}: {row['entry']} classified {row['classification']}, "
                        f"expected {row['expected']}")
                failed |= {(row["entry"], k) for k in self.kinds}
        for entry, reference in self.reference.items():
            for kind in off_reference(read_profile_csv(out / f"{entry}.profiles.csv"), reference):
                _report(f"{self.name}: {entry} {kind} is off the reference")
                failed.add((entry, kind))
        if code != 0 and not failed:
            _report(f"{self.name}: oscillab gallery exited {code}")
            return every
        return failed


class SymbolZoo:
    """Seeded symbols beyond the gallery, each through ``sweep.run_sweep``."""

    name = "symbol-zoo"

    def __init__(self, out_root: Path):
        self.dir = out_root / self.name

    def setup(self, seed: int) -> None:
        from oscillab import sweep, symbols
        self.entries = inputs.zoo_inputs(seed)
        reference = json.loads((REFERENCE_DIR / "zoo.json").read_text(encoding="utf-8"))
        self.configs, self.reference = [], []
        for entry in self.entries:
            recorded = reference["candidates"][entry["slot"]][entry["candidate"]]
            if recorded["symbol"] != entry["symbol"]:
                raise RuntimeError(f"zoo reference does not match candidate "
                                   f"{entry['slot']}/{entry['candidate']}")
            self.reference.append(recorded)
            config = inputs.zoo_config(entry, seed, str(self.dir / entry["slot"]))
            text = json.dumps(config)
            symbols.certificate(symbols.symbol_from_json(sweep.SweepConfig.from_json(text).symbol))
            self.configs.append(text)

    def round(self) -> RoundResult:
        from oscillab import criteria, sweep
        shutil.rmtree(self.dir, ignore_errors=True)
        per_symbol = len(inputs.ZOO_CRITERIA)
        failed = unexpected = 0
        wall0, cpu0 = time.perf_counter(), _cpu()
        with ProfileTimer(criteria.CriterionSweep) as timer:
            for entry, text, reference in zip(self.entries, self.configs, self.reference):
                label = f"{self.name}: {entry['slot']}/{entry['candidate']}"
                try:
                    result = sweep.run_sweep(sweep.SweepConfig.from_json(text))
                except Exception as exc:
                    failed += per_symbol
                    if reference.get("raises") != type(exc).__name__:
                        _report(f"{label} raised\n{traceback.format_exc()}")
                        unexpected += per_symbol
                    continue
                want = f"{entry['expected']}-evidence"
                if result.report.classification != want or not result.report.consistent:
                    _report(f"{label} classified {result.report.classification}, expected {want}")
                    failed += per_symbol
                    unexpected += per_symbol
                    continue
                if "raises" in reference:
                    _report(f"{label} no longer raises {reference['raises']}: "
                            f"re-record the reference to check its values")
                    continue
                bad = off_reference(read_profile_csv(Path(result.csv_path)), reference["rows"])
                if bad:
                    _report(f"{label} off the reference for {sorted(bad)}")
                failed += len(bad)
                unexpected += len(bad)
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
        rows = timer.rows
        return RoundResult(wall, cpu, [r["s"] for r in rows], per_symbol * len(self.entries),
                           failed, unexpected, sum(r["levels"] for r in rows),
                           sum(r["unresolved"] for r in rows))


class CrossChecks:
    """The lab's validation kernels on seeded inputs, each task checked."""

    name = "cross-checks"

    def setup(self, seed: int) -> None:
        from oscillab import gallery, symbols
        self.symbols = {e.name: e.symbol for e in gallery.GALLERY}
        for phi in self.symbols.values():
            symbols.certificate(phi)
        self.inputs = inputs.cross_inputs(seed, tuple(self.symbols))
        self.tasks = self._task_list()

    def _task_list(self) -> list:
        from oscillab import criteria, dyadic, hardy, leibov
        data = self.inputs

        def route(name, points):
            spreads = [criteria.composite_norm_routes(self.symbols[name], a).spread()
                       for a in points]
            return max(spreads) <= IDENTITY_TOL

        def gamma(pairs):
            return all(abs(hardy.garsia_gamma(leibov.test_function(b), a)
                           - leibov.gamma_closed_form(b, a)) <= IDENTITY_TOL for b, a in pairs)

        def density(rows):
            result = dyadic.density_core(dyadic.ArcSet.from_json(rows))
            checks = dyadic.verify_density_bound(result)
            return result.core.measure > 0 and all(c["ok"] for c in checks)

        def wik(rows, lam):
            result = dyadic.wik_decomposition(dyadic.ArcSet.from_json(rows), Fraction(*lam))
            v = dyadic.verify_wik(result)
            return v["sandwich_ok"] and v["interiors_disjoint"] and v["residue_zero"]

        def selection(lam):
            cert = leibov.select_subsequence(
                leibov.TestSequence.geometric(inputs.LEIBOV_COUNT), inputs.LEIBOV_DEPTH)
            est = leibov.combination_seminorm(cert, lam)
            top = max(abs(c) for c in lam)
            return cert.verified() and 0.25 * top <= est.value <= 2.0 * top + 1e-6

        return ([("routes", task[0], route, task) for task in data.routes]
                + [("gamma", i, gamma, (p,)) for i, p in enumerate(data.gamma_pairs)]
                + [("density", i, density, (r,)) for i, r in enumerate(data.density_sets)]
                + [("wik", i, wik, (r, lam)) for i, (r, lam) in enumerate(data.wik_sets)]
                + [("leibov", i, selection, (lam,)) for i, lam in enumerate(data.leibov_lams)])

    def round(self) -> RoundResult:
        times, failed, unexpected = [], 0, 0
        wall0, cpu0 = time.perf_counter(), _cpu()
        for kind, key, task, args in self.tasks:
            start = time.perf_counter()
            try:
                ok = task(*args)
            except Exception:
                _report(traceback.format_exc())
                ok = False
            times.append(time.perf_counter() - start)
            if not ok:
                failed += 1
                if (kind, key) not in KNOWN_FAILURES:
                    _report(f"{self.name}: {kind} task failed its check on {args!r}")
                    unexpected += 1
        return RoundResult(time.perf_counter() - wall0, _cpu() - cpu0, times,
                           len(self.tasks), failed, unexpected)


def make(name: str, out_root: Path):
    if name == "gallery-serial":
        return Gallery(name, 1, out_root)
    if name == "gallery-pool":
        return Gallery(name, 2, out_root)
    if name == "symbol-zoo":
        return SymbolZoo(out_root)
    if name == "cross-checks":
        return CrossChecks()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("gallery-serial", "gallery-pool", "symbol-zoo", "cross-checks")
