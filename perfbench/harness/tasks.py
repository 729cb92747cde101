"""Timing of single profile tasks, seen from outside the library.

``timed_profile_task`` stands in for ``oscillab.gallery._profile_task`` while
a gallery round runs.  It is a module-level function, so a process pool can
pickle it by reference; a pool worker (forked or spawned) appends one line
per task to the file named by ``TASK_LOG_ENV``.  ``timed_profile`` wraps
``CriterionSweep.profile`` the same way for in-process sweeps.
"""

from __future__ import annotations

import os
import resource
import time

from oscillab import gallery

TASK_LOG_ENV = "OSCBENCH_TASK_LOG"

_profile_task = gallery._profile_task


def level_counts(profile) -> tuple[int, int]:
    """(all, unresolved) ladder levels of a profile or a list of profiles."""
    total = unresolved = 0
    for prof in profile if isinstance(profile, list) else [profile]:
        levels = prof.metadata.get("levels", [])
        total += len(levels)
        unresolved += sum(1 for lev in levels if lev["status"] == "unresolved")
    return total, unresolved


def timed_profile_task(args):
    start = time.perf_counter()
    total = unresolved = 0
    ok = 0
    try:
        result = _profile_task(args)
        total, unresolved = level_counts(result[2])
        ok = 1
        return result
    finally:
        end = time.perf_counter()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(os.environ[TASK_LOG_ENV], "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {args[0]} {args[1]} {start!r} {end!r} "
                     f"{peak_kb} {ok} {total} {unresolved}\n")


def read_task_log(path: str) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            pid, entry, kind, start, end, peak, ok, total, unresolved = line.split()
            rows.append({"pid": int(pid), "entry": entry, "kind": kind,
                         "s": float(end) - float(start), "peak_kb": int(peak),
                         "ok": ok == "1", "levels": int(total),
                         "unresolved": int(unresolved)})
    return rows


class ProfileTimer:
    """Wraps ``CriterionSweep.profile`` to time each in-process profile task."""

    def __init__(self, sweep_class):
        self.sweep_class = sweep_class
        self.original = sweep_class.profile
        self.rows: list[dict] = []

    def __enter__(self):
        original, rows = self.original, self.rows

        def timed_profile(sweep, kind, *args, **kwargs):
            start = time.perf_counter()
            total = unresolved = 0
            try:
                result = original(sweep, kind, *args, **kwargs)
                total, unresolved = level_counts(result)
                return result
            finally:
                rows.append({"kind": kind, "s": time.perf_counter() - start,
                             "levels": total, "unresolved": unresolved})

        self.sweep_class.profile = timed_profile
        return self

    def __exit__(self, *exc):
        self.sweep_class.profile = self.original
        return False
