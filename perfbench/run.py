"""oscillab benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload gallery-serial --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ``src/`` of the
same checkout.  A run measures set-up in fresh processes, then repeats the
workload's task list in rounds (library caches cleared before each) until
``--seconds`` have passed, and reports medians over rounds.  ``--trace 1``
skips the set-up probes, runs untraced rounds for half of ``--seconds``,
then one traced round, and reports per-layer metrics and the tracing
overhead instead.  The exit code is 1 when the correctness gate fails (a
failure that is not a recorded known defect), 2 when the library cannot be
imported.
"""

import os

# BLAS pinned to one thread before numpy loads, here and in every process
# started from here, so gallery-pool runs 2 workers x 1 thread on 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: fresh-process set-up probes per run, half before the rounds and half after,
#: so that one slow or fast stretch of the host does not set the median alone
SETUP_PROBES = 16

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("task_p50_s", "s"), ("task_tail_s", "s"))

#: per-layer metrics computed here rather than by the tracer
RUN_LEVEL = (("trace.overhead_s", "s"), ("failed_frac", "ratio"), ("unresolved_frac", "ratio"))


def import_library():
    try:
        import oscillab
    except ImportError as exc:
        print(f"cannot import oscillab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(oscillab.__file__).resolve().parent.parent != ROOT / "src":
        print(f"oscillab was imported from {oscillab.__file__}, not from this checkout",
              file=sys.stderr)
        sys.exit(2)


def clear_caches() -> None:
    """Empty every functools cache in oscillab, so each round starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "oscillab" or name.startswith("oscillab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def setup_probe(args) -> None:
    from harness import workloads
    workload = workloads.make(args.workload, OUT)
    workload.setup(args.seed)
    pool = workload.start_pool() if getattr(workload, "workers", 1) > 1 else None
    print("ready", flush=True)
    if pool is not None:
        pool.shutdown()


def measure_setup(args, count: int) -> list[float]:
    """Seconds from process start to the first task, in ``count`` fresh processes."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                sys.exit(f"set-up probe for {args.workload} failed")
        times.append(elapsed)
    return times


def tail(values: list[float]) -> float:
    """The value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def tail_percentile(n: int) -> float:
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def summarize(rounds, setup_times) -> tuple[dict, dict]:
    # a round whose run aborted before any task finished has no task times
    timed = [r.task_s for r in rounds if r.task_s] or [[0.0]]
    per_round_p50 = [statistics.median(t) for t in timed]
    per_round_tail = [tail(t) for t in timed]
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "wall_s": statistics.median(r.wall for r in rounds),
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "peak_rss_mb": (own_kb + max(r.worker_peak_kb for r in rounds)) / 1024.0,
        "task_p50_s": statistics.median(per_round_p50),
        "task_tail_s": statistics.median(per_round_tail),
    }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    unexpected = sum(r.unexpected for r in rounds)
    levels = sum(r.levels for r in rounds)
    notes = {
        "rounds": len(rounds),
        "tasks_per_round": rounds[0].attempted,
        "timed_tasks": len(timed[0]),
        "task_tail_percentile": tail_percentile(len(timed[0])),
        "setup_samples": setup_times,
        "round_wall_s": [r.wall for r in rounds],
        "round_task_s": [r.task_s for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "failed_frac": failed / attempted,
        "unresolved_frac": sum(r.unresolved for r in rounds) / levels if levels else 0.0,
        "digests": sorted({r.digest for r in rounds if r.digest}),
    }
    return values, notes


def gallery_digest_consistent(name: str, digests: list[str], source: str) -> bool:
    """Serial and pool outputs must be byte-identical: compare with the last
    run of the other gallery workload in this checkout, on the same source."""
    if len(digests) != 1:
        print(f"{name}: {len(digests)} distinct output digests over the rounds",
              file=sys.stderr)
        return False
    path = OUT / "gallery-digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    mine = known.setdefault(source, {})
    mine[name] = digests[0]
    path.write_text(json.dumps(known, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if len(set(mine.values())) > 1:
        print(f"gallery outputs differ between workloads: {mine}", file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_library()
    from harness import meta, workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args)
        return 0

    OUT.mkdir(exist_ok=True)
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_times = measure_setup(args, probes)
    workload = workloads.make(args.workload, OUT)
    workload.setup(args.seed)

    # Rounds repeat while another one still fits in the measuring time, so a
    # run lasts about --seconds however long its rounds are (at least one).
    untraced_for = args.seconds / 2 if args.trace else args.seconds
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + rounds[-1].wall <= untraced_for:
        clear_caches()
        rounds.append(workload.round())
    setup_times += measure_setup(args, probes)
    values, notes = summarize(rounds, setup_times)

    traced = None
    if args.trace:
        from harness import tracing
        clear_caches()
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            traced = workload.round()
        finally:
            tracer.unpatch()
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = traced.wall - values["wall_s"]
        layer["failed_frac"] = notes["failed_frac"]
        layer["unresolved_frac"] = notes["unresolved_frac"]
        tracer.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"))
        notes["traced_wall_s"] = traced.wall
        notes["traced_failed"] = traced.failed

    info = meta.run_metadata(ROOT)
    correct = notes["unexpected"] == 0 and (traced is None or traced.unexpected == 0)
    if isinstance(workload, workloads.Gallery):
        correct = gallery_digest_consistent(args.workload, notes["digests"],
                                            info["source_sha256"]) and correct

    if args.trace:
        units = dict(tracing.PER_LAYER + RUN_LEVEL)
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  rounds {notes['rounds']}  "
          f"tasks/round {notes['tasks_per_round']}  correct {correct}")
    for name, unit in END_TO_END:
        if values[name] is None:
            continue
        extra = ""
        if name == "setup_s":
            extra = f"median of {SETUP_PROBES} fresh processes"
        elif name == "task_tail_s":
            extra = (f"p{notes['task_tail_percentile']:.1f} of {notes['timed_tasks']} "
                     f"tasks per round, median over rounds")
        elif name == "task_p50_s":
            extra = f"median per round, median over {notes['rounds']} rounds"
        elif name in ("wall_s", "cpu_s"):
            extra = f"median over {notes['rounds']} rounds"
        print(f"  {name:<16}{values[name]:>14.6f} {unit:<6}{extra}")
    print(f"  {'failed_frac':<16}{notes['failed_frac']:>14.6f} ratio ({notes['failed']} of "
          f"{notes['attempted']} tasks, {notes['failed'] - notes['unexpected']} of them "
          f"known defects)")
    print(f"  {'unresolved_frac':<16}{notes['unresolved_frac']:>14.6f} ratio (ladder levels)")
    if traced is not None:
        print(f"  traced wall_s {traced.wall:.6f} s, overhead {layer['trace.overhead_s']:.6f} s")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "metrics": metrics,
              "notes": notes, "meta": info}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"meta": info}, sort_keys=True))
    attempted = notes["attempted"] + (traced.attempted if traced else 0)
    failed = notes["failed"] + (traced.failed if traced else 0)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
