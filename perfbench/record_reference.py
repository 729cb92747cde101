"""Record the reference profile values the benchmark gate compares against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/zoo.json`` (every candidate of every symbol-zoo
slot) and ``perfbench/reference/gallery.json`` (every gallery entry, all ten
kinds, at the gallery workloads' depth).  The zoo pool is never filtered
by outcome: a candidate on which ``run_sweep`` raises is recorded with the
exception's type as its expected failure, and a candidate whose verdict
differs from the one its construction settles stops the recording.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io
import json
import shutil
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from harness import inputs, workloads  # noqa: E402
from oscillab import cli, gallery, sweep  # noqa: E402

WORK = ROOT / ".bench_out" / "reference-work"


def dumps(data, indent: str = "") -> str:
    """JSON with one line per list of numbers or symbol, sorted keys."""
    if isinstance(data, dict) and "kind" not in data:
        inner = indent + " "
        items = [f"{inner}{json.dumps(k)}: {dumps(v, inner)}" for k, v in sorted(data.items())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(data, list) and any(isinstance(v, dict) for v in data):
        inner = indent + " "
        return "[\n" + ",\n".join(inner + dumps(v, inner) for v in data) + "\n" + indent + "]"
    return json.dumps(data, sort_keys=True)


def write(name: str, data: dict) -> None:
    path = workloads.REFERENCE_DIR / name
    path.write_text(dumps(data) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def record_gallery() -> None:
    kinds = gallery.DEFAULT_KINDS + gallery.EXTRA_KINDS
    out = WORK / "gallery"
    with redirect_stdout(io.StringIO()):
        code = cli.main(["gallery", "--depth", str(workloads.GALLERY_DEPTH), "--out", str(out),
                         "--workers", "1", "--seed", "0", "--criteria", *kinds])
    if code != 0:
        sys.exit(f"oscillab gallery exited {code}; no reference recorded")
    write("gallery.json", {
        "depth": workloads.GALLERY_DEPTH, "kinds": list(kinds),
        "entries": {e.name: workloads.read_profile_csv(out / f"{e.name}.profiles.csv")
                    for e in gallery.GALLERY}})


def record_zoo() -> None:
    candidates = {}
    for slot, (name, *_) in enumerate(inputs.ZOO_SLOTS):
        candidates[name] = []
        for index in range(inputs.ZOO_CANDIDATES):
            entry = inputs.zoo_candidate(slot, index)
            config = inputs.zoo_config(entry, 0, str(WORK / "zoo"))
            record = {"symbol": entry["symbol"], "expected": entry["expected"]}
            candidates[name].append(record)
            start = time.perf_counter()
            try:
                result = sweep.run_sweep(sweep.SweepConfig.from_json(json.dumps(config)))
            except Exception as exc:
                record["raises"] = type(exc).__name__
                print(f"{name}/{index}: raised {record['raises']}: {exc}")
                continue
            want = f"{entry['expected']}-evidence"
            if result.report.classification != want:
                sys.exit(f"{name}/{index}: classified {result.report.classification}, "
                         f"construction settles {want}")
            print(f"{name}/{index}: {want} in {time.perf_counter() - start:.2f} s")
            record["rows"] = workloads.read_profile_csv(Path(result.csv_path))
    write("zoo.json", {"settings": inputs.ZOO_SETTINGS, "criteria": list(inputs.ZOO_CRITERIA),
                       "candidates": candidates})


if __name__ == "__main__":
    shutil.rmtree(WORK, ignore_errors=True)
    record_zoo()
    record_gallery()
