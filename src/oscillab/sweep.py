"""Sweep configuration, deterministic output writers, and the sweep runner.

Outputs are designed for reproducibility: CSV files are UTF-8 with LF line
endings, a header row, rows sorted by (kind, approach) and floats printed
with 17 significant digits; JSON reports are emitted with sorted keys.
Identical configurations therefore produce byte-identical files no matter
how many workers computed the profiles.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

from . import criteria as cr
from . import symbols as sym
from .criteria import ConfigError


@dataclass(frozen=True, kw_only=True)
class SweepConfig(cr.SweepSettings):
    """JSON-serializable description of one criterion sweep: the symbol,
    the criteria to profile, where to write, and the sweep settings."""

    symbol: dict
    criteria: tuple = ("L",)
    seed: int = 0
    out_dir: str = "sweep-out"
    plots: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not self.criteria:
            raise ConfigError("no criteria selected")
        unknown = [k for k in self.criteria if k not in cr.PROFILE_KINDS]
        if unknown:
            raise ConfigError(f"unknown criteria {unknown}; known: {list(cr.PROFILE_KINDS)}")
        object.__setattr__(self, "criteria", tuple(self.criteria))
        if "S2" in self.criteria and self.depth < cr.S2_LEVEL_START:
            raise ConfigError(f"S2 needs depth >= {cr.S2_LEVEL_START}, got {self.depth}")
        try:
            sym.certificate(sym.symbol_from_json(self.symbol))
        except (sym.SymbolError, sym.NotSelfMapError) as exc:
            raise ConfigError(f"bad symbol: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "SweepConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config nests too deeply to decode: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        names = {f.name for f in fields(SweepConfig)}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        if "symbol" not in data:
            raise ConfigError("config needs a 'symbol' description")
        return SweepConfig(**data)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def profiles_to_rows(profiles: dict) -> list[tuple]:
    """Flatten {key: profile-or-list} to (kind, approach, value, grid, hits)."""
    rows = []
    for key in sorted(profiles):
        entries = profiles[key]
        if not isinstance(entries, list):
            entries = [entries]
        for prof in entries:
            label = prof.kind
            if prof.kind == "S2":
                label = cr.s2_label(prof)
            elif "metric" in prof.metadata:
                label = f"{prof.kind}[{prof.metadata['metric']}]"
            sizes = prof.metadata.get("grid_sizes", [0] * len(prof.points))
            hits = prof.metadata.get("tau_cap_hits", [0] * len(prof.points))
            for (approach, value), size, hit in zip(prof.points, sizes, hits):
                rows.append((label, approach, value, size, hit))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def write_profiles_csv(profiles: dict, path: str) -> None:
    lines = ["kind,approach,value,grid_size,tau_cap_hits"]
    for kind, approach, value, size, hits in profiles_to_rows(profiles):
        lines.append(f"{kind},{_fmt(float(approach))},{_fmt(float(value))},{size},{hits}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def profiles_svg(profiles: dict, title: str) -> str:
    """A small deterministic SVG line plot of all profiles (inspection aid)."""
    width, height, pad = 640, 400, 50
    rows = profiles_to_rows(profiles)
    labels = sorted({r[0] for r in rows})
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    points = {lab: [(r[1], r[2]) for r in rows if r[0] == lab] for lab in labels}
    all_x = [x for pts in points.values() for x, _ in pts]
    all_y = [y for pts in points.values() for _, y in pts]
    if not all_x:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = 0.0, max(max(all_y), 1e-9)
    sx = lambda x: pad + (width - 2 * pad) * ((x - x0) / (x1 - x0) if x1 > x0 else 0.5)
    sy = lambda y: height - pad - (height - 2 * pad) * (y - y0) / (y1 - y0)
    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
             f"<rect width='{width}' height='{height}' fill='white'/>",
             f"<text x='{pad}' y='24' font-size='14'>{title}</text>",
             f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' y2='{height - pad}' stroke='black'/>",
             f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' stroke='black'/>"]
    for i, lab in enumerate(labels):
        color = palette[i % len(palette)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points[lab])
        parts.append(f"<polyline fill='none' stroke='{color}' points='{pts}'/>")
        parts.append(f"<text x='{width - pad + 4}' y='{pad + 14 * i}' font-size='9'"
                     f" fill='{color}'>{lab}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    csv_path: str
    verdict_path: str
    report: cr.VerdictReport
    plot_path: str | None = None


def run_sweep(config: SweepConfig) -> SweepResult:
    """Compute the configured profiles, write CSV + verdict JSON."""
    phi = sym.symbol_from_json(config.symbol)
    sweepper = cr.CriterionSweep(phi, config)
    profiles = {kind: sweepper.profile(kind) for kind in config.criteria}
    if "L" not in profiles:
        profiles["L"] = sweepper.profile("L")
    report = cr.verdict(phi, profiles, config)
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, "profiles.csv")
    verdict_path = os.path.join(config.out_dir, "verdict.json")
    write_profiles_csv(profiles, csv_path)
    write_json({
        "symbol": config.symbol,
        "config": json.loads(config.to_json()),
        "verdict": report.to_json_dict(),
    }, verdict_path)
    plot_path = None
    if config.plots:
        plot_path = os.path.join(config.out_dir, "profiles.svg")
        with open(plot_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(profiles_svg(profiles, "criterion profiles"))
    return SweepResult(csv_path, verdict_path, report, plot_path)


def write_gallery_outputs(run, out_dir: str, settings: cr.SweepSettings,
                          seed: int, plots: bool = False) -> dict:
    """Write per-entry CSV/JSON plus a summary; returns the summary dict."""
    from .gallery import GALLERY
    os.makedirs(out_dir, exist_ok=True)
    summary_rows = []
    for row in run.rows:
        profiles = run.profiles[row.name]
        write_profiles_csv(profiles, os.path.join(out_dir, f"{row.name}.profiles.csv"))
        write_json({
            "entry": row.name,
            "expected": row.expected,
            "verdict": row.report.to_json_dict(),
        }, os.path.join(out_dir, f"{row.name}.verdict.json"))
        if plots:
            with open(os.path.join(out_dir, f"{row.name}.svg"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(profiles_svg(profiles, row.name))
        summary_rows.append({
            "entry": row.name,
            "expected": row.expected,
            "classification": row.report.classification,
            "consistent": row.report.consistent,
            "s2": row.report.s2_flag,
            "match": row.matches,
        })
    lines = ["entry,expected,classification,consistent,s2,match"]
    for r in summary_rows:
        lines.append(f"{r['entry']},{r['expected']},{r['classification']},"
                     f"{str(r['consistent']).lower()},{r['s2']},{str(r['match']).lower()}")
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {
        "rows": summary_rows,
        "exit_code": run.exit_code,
        "config": {"depth": settings.depth, "angles": settings.angles,
                   "base_n": settings.base_n, "seed": seed},
        "notes": {"entries": {e.name: e.note for e in GALLERY}},
    }
    write_json(summary, os.path.join(out_dir, "summary.json"))
    return summary
