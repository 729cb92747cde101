"""The built-in symbol gallery and the gallery runner.

Eight desk-scale symbols with known compactness verdicts exercise every
criterion: strict maps whose boundary-approach ladders are vacuous, inner
maps whose profiles pin at 1, and boundary-touching polynomials where the
interplay between criteria is nontrivial (the half-shift map satisfies the
level-set measure condition yet fails every norm criterion).

Profiles are computed per (entry, kind) task.  Within one process the
tasks of an entry share a single CriterionSweep, so the kinds built on the
same cached sweep state (L, VMOA-iii and W2 on ``l_values``; the four arc
kinds on ``arc_values``, and A-double and A-hyp-double on each arc's
pairwise rho values) compute it once.  The tasks are therefore grouped into
jobs, one per (entry, shared state) and one per task of a kind without
shared state, and every job runs in one process.  Jobs are independent and
a worker pool may execute them in any order, but results are merged in
task order so outputs are byte-identical for every worker count.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import criteria as cr
from . import symbols as sym

DEFAULT_KINDS = ("L", "S1", "A-double", "A-prime", "W2", "S2")

EXTRA_KINDS = ("VMOA-iii", "A-hyp-double", "A-hyp-center", "W1")


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    symbol: sym.Symbol
    expected: str           # "compact" | "non-compact"
    note: str


GALLERY: tuple[GalleryEntry, ...] = (
    GalleryEntry("const-0.3", sym.Constant(0.3), "compact",
                 "constant map; every boundary-approach ladder is vacuous"),
    GalleryEntry("half-z", sym.Scale(0.5, sym.Identity()), "compact",
                 "strict contraction; sup|phi| = 1/2"),
    GalleryEntry("identity", sym.Identity(), "non-compact",
                 "the composition operator is the identity"),
    GalleryEntry("square", sym.Polynomial((0j, 0j, 1 + 0j)), "non-compact",
                 "inner polynomial; boundary modulus one everywhere"),
    GalleryEntry("moebius-0.5", sym.Moebius(0.5), "non-compact",
                 "disc automorphism; the operator is invertible"),
    GalleryEntry("half-shift", sym.Polynomial((0.5 + 0j, 0.5 + 0j)), "non-compact",
                 "(1+z)/2: passes the level-set measure test, fails the norm tests"),
    GalleryEntry("nested-scale", sym.Compose(sym.Moebius(0.7), sym.Scale(0.9, sym.Identity())),
                 "compact", "automorphism of a strict contraction; sup|phi| < 0.982"),
    GalleryEntry("quad-touch", sym.Polynomial((0j, 0.5 + 0j, 0.5 + 0j)), "non-compact",
                 "z(1+z)/2: boundary contact at 1 with derivative 3/2"),
)


def entry_by_name(name: str) -> GalleryEntry:
    for entry in GALLERY:
        if entry.name == name:
            return entry
    raise KeyError(f"no gallery entry named {name!r}")


@functools.lru_cache(maxsize=len(GALLERY))
def _entry_sweep(name: str, settings: cr.SweepSettings) -> cr.CriterionSweep:
    """The CriterionSweep every task of one (entry, settings) pair reuses."""
    return cr.CriterionSweep(entry_by_name(name).symbol, settings)


def _profile_task(args):
    name, kind, settings = args
    return name, kind, _entry_sweep(name, settings).profile(kind)


def _run_tasks(profile_task, tasks) -> list:
    """One job: its tasks one after another, in one process."""
    return [profile_task(t) for t in tasks]


def _jobs(tasks) -> list[list]:
    """Tasks grouped into jobs by (entry, the cached sweep state the kind
    reads), in order of first appearance; a kind without shared state is a
    job of its own."""
    jobs: dict = {}
    for pos, task in enumerate(tasks):
        name, kind, _ = task
        _, shared = cr.CriterionSweep.PROFILES[kind]
        jobs.setdefault((name, shared) if shared else pos, []).append(task)
    return list(jobs.values())


def resolve_workers(workers: int | None) -> int:
    """The worker count: ``workers``, at least one; one when it is None."""
    return 1 if workers is None else max(1, int(workers))


def compute_gallery_profiles(kinds=DEFAULT_KINDS, settings: cr.SweepSettings | None = None,
                             workers: int | None = None) -> dict:
    """Profiles for every entry, as {entry_name: {kind: profile-or-list}}."""
    settings = settings or cr.SweepSettings()
    tasks = [(entry.name, kind, settings) for entry in GALLERY for kind in kinds]
    jobs = _jobs(tasks)
    # _profile_task is passed by reference, so a stand-in installed on this
    # module reaches the workers as well
    run = functools.partial(_run_tasks, _profile_task)
    # a pool larger than the job list only starts idle processes
    count = min(resolve_workers(workers), len(jobs))
    if count <= 1:
        done = [run(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=count) as pool:
            done = list(pool.map(run, jobs, chunksize=1))
    profiles = {(name, kind): profile for results in done for name, kind, profile in results}
    return {entry.name: {kind: profiles[entry.name, kind] for kind in kinds}
            for entry in GALLERY}


@dataclass(frozen=True)
class GalleryRow:
    name: str
    expected: str
    report: cr.VerdictReport

    @property
    def matches(self) -> bool:
        want = "compact-evidence" if self.expected == "compact" else "non-compact-evidence"
        return self.report.classification == want


@dataclass(frozen=True)
class GalleryRun:
    rows: tuple
    profiles: dict

    @property
    def mismatches(self) -> list[str]:
        return [row.name for row in self.rows if not row.matches]

    @property
    def inconsistencies(self) -> list[str]:
        return [row.name for row in self.rows if not row.report.consistent]

    @property
    def exit_code(self) -> int:
        if self.inconsistencies:
            return 3
        if self.mismatches:
            return 2
        return 0


def run_gallery(kinds=DEFAULT_KINDS, settings: cr.SweepSettings | None = None,
                workers: int | None = None) -> GalleryRun:
    """Compute profiles and verdicts for every entry; no file output here.

    Raises ConfigError, before any profile runs, for kinds without L (the
    verdict needs it).
    """
    settings = settings or cr.SweepSettings()
    if "L" not in kinds:
        raise cr.ConfigError(f"the gallery verdict needs the L criterion, got {list(kinds)}")
    profiles = compute_gallery_profiles(kinds, settings, workers)
    rows = tuple(
        GalleryRow(entry.name, entry.expected,
                   cr.verdict(entry.symbol, profiles[entry.name], settings))
        for entry in GALLERY)
    return GalleryRun(rows, profiles)
