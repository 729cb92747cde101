"""Command-line driver.

Subcommands:
  sweep       run configured criterion profiles for one symbol
  gallery     run the built-in gallery and check expected verdicts
  decompose   exact stopping-time decompositions of a boundary set
  leibov      build and serialize a c0-selection certificate
  identities  cross-module identity suite on the gallery

Exit codes: 0 success, 2 gallery verdict mismatch, 3 inconsistent
equivalence diagnostics (or failed identities, or quadrature routes that
do not agree at some witness point), 4 configuration errors (including
``decompose`` inputs that violate a construction's precondition, S1 on a
symbol that does not lower, a Leibov ladder too short for the depth, and
files that cannot be read or written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import criteria as cr
from . import dyadic
from . import leibov
from . import nevanlinna as nev
from . import sweep as sweep_mod
from . import symbols as sym
from .gallery import DEFAULT_KINDS, EXTRA_KINDS, GALLERY, run_gallery
from .hardy import BASE_N, MAX_GRID, QuadratureError, garsia_gamma
from .sweep import ConfigError, SweepConfig

EXIT_OK = 0
EXIT_INCONSISTENT = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _int_in(lo: int, hi: float = math.inf):
    """The argparse type of an integer in lo..hi."""
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            span = f"in {lo}..{hi}" if hi < math.inf else f">= {lo}"
            raise argparse.ArgumentTypeError(f"{value} is not {span}")
        return value
    parse.__name__ = "int"     # argparse names it in "invalid int value: ..."
    return parse


def _positive_float(text: str) -> float:
    """The argparse type of a positive finite float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
    return value


_positive_float.__name__ = "float"     # argparse names it in "invalid float value: ..."


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oscillab",
                     description="compactness criteria lab for disc self-maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run criterion profiles from a JSON config")
    p.add_argument("--config", required=True, help="path to a sweep config JSON")

    p = sub.add_parser("gallery", help="run the built-in gallery")
    p.add_argument("--depth", type=int, default=12, help="ladder depth K")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=_int_in(1), default=None)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--plots", action="store_true", help="emit SVG profile plots")
    p.add_argument("--criteria", nargs="*", default=list(DEFAULT_KINDS),
                   choices=sorted(set(DEFAULT_KINDS) | set(EXTRA_KINDS)),
                   metavar="KIND", help="criterion kinds to compute")

    p = sub.add_parser("decompose", help="stopping-time decompositions of an arc set")
    p.add_argument("--mode", required=True, choices=("density", "wik"))
    p.add_argument("--set", required=True, dest="set_path",
                   help="JSON file: list of [num_lo, den_lo, num_hi, den_hi] rows")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="density threshold p/q (wik mode only)")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    p = sub.add_parser("leibov", help="build a c0-selection certificate")
    p.add_argument("--depth", type=_int_in(0), default=6)
    # the gap 2^-count of the last base point underflows past 2^-1074
    p.add_argument("--count", type=_int_in(1, 1074), default=130,
                   help="length of the geometric base-point ladder")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    p = sub.add_parser("identities", help="cross-module identity suite on the gallery")
    p.add_argument("--n", type=_int_in(64, MAX_GRID), default=BASE_N,
                   help="base boundary grid size")
    p.add_argument("--points", type=_int_in(1), default=20, help="random base points per run")
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = SweepConfig.from_json(fh.read())
    result = sweep_mod.run_sweep(config)
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.verdict_path}")
    print(f"verdict: {result.report.classification}")
    if result.report.classification == "inconsistent":
        return EXIT_INCONSISTENT
    return EXIT_OK


def _cmd_gallery(args) -> int:
    settings = cr.SweepSettings(depth=args.depth)
    run = run_gallery(tuple(args.criteria), settings, args.workers)
    summary = sweep_mod.write_gallery_outputs(run, args.out, settings, args.seed,
                                              plots=args.plots)
    width = max(len(r["entry"]) for r in summary["rows"])
    for r in summary["rows"]:
        flag = "ok" if r["match"] else "MISMATCH"
        print(f"{r['entry']:<{width}}  expected={r['expected']:<11} "
              f"got={r['classification']:<22} s2={str(r['s2']):<13} {flag}")
    if run.inconsistencies:
        print(f"inconsistent equivalence family for: {run.inconsistencies}")
    elif run.mismatches:
        print(f"verdict mismatches: {run.mismatches}")
    return run.exit_code


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from exc


def _emit(payload: dict, out: str | None) -> None:
    """Write the payload as sorted JSON to ``out``, or to stdout."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _cmd_decompose(args) -> int:
    with open(args.set_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        arcs = dyadic.ArcSet.from_json(json.loads(text))
    except (ValueError, RecursionError) as exc:   # not JSON, too deep, or not arc rows
        raise ConfigError(f"cannot read arc set: {exc}") from exc
    if args.mode == "wik":
        if args.lam is None:
            raise ConfigError("wik mode needs --lambda p/q")
        lam = _parse_fraction(args.lam)
        try:
            result = dyadic.wik_decomposition(arcs, lam)
        except ValueError as exc:   # lambda outside (0, 1), or |E| > lambda
            raise ConfigError(str(exc)) from exc
        payload = {
            "mode": "wik",
            "lambda": [lam.numerator, lam.denominator],
            "snapped": result.snapped,
            "input": result.source.to_json(),
            "arcs": [[q.level, q.index] for q in result.arcs],
            "residue": [result.residue.numerator, result.residue.denominator],
            "verification": dyadic.verify_wik(result),
        }
    else:
        if args.lam is not None:
            raise ConfigError("density mode derives its own threshold; drop --lambda")
        try:
            result = dyadic.density_core(arcs)
        except ValueError as exc:   # |E| = 0, possibly only after the snap
            raise ConfigError(str(exc)) from exc
        checks = dyadic.verify_density_bound(result)
        payload = {
            "mode": "density",
            "lambda": [result.lam.numerator, result.lam.denominator],
            "snapped": result.snapped,
            "input": result.source.to_json(),
            "core": result.core.to_json(),
            "stopping": [[q.level, q.index] for q in result.stopping],
            "verification": {
                "samples": len(checks),
                "all_ok": all(c["ok"] for c in checks),
            },
        }
    _emit(payload, args.out)
    checks = (("sandwich_ok", "interiors_disjoint", "residue_zero") if args.mode == "wik"
              else ("all_ok",))
    ok = all(payload["verification"][k] for k in checks)
    return EXIT_OK if ok else EXIT_INCONSISTENT


def _cmd_leibov(args) -> int:
    seq = leibov.TestSequence.geometric(args.count)
    cert = leibov.select_subsequence(seq, args.depth)
    payload = cert.to_json()
    _emit(payload, args.out)
    return EXIT_OK if payload["verified"] else EXIT_INCONSISTENT


def _cmd_identities(args) -> int:
    rng = np.random.default_rng(args.seed)
    radius = 1.0 - 2.0 ** -10
    points = radius * np.sqrt(rng.uniform(0, 1, args.points)) * np.exp(
        2j * math.pi * rng.uniform(0, 1, args.points))
    failures = 0
    print(f"{'entry':<14} {'max route spread':<18} {'worst point'}")
    for entry in GALLERY:
        worst, worst_a, settled = -1.0, complex(points[0]), True
        for a in points:
            routes = cr.composite_norm_routes(entry.symbol, complex(a), args.n)
            if routes.spread() > worst:
                worst, worst_a, settled = routes.spread(), complex(a), routes.settled
        flag = ("  FAIL" if worst > args.tol else "") + ("" if settled else " UNSETTLED")
        if flag:
            failures += 1
        print(f"{entry.name:<14} {worst:<18.3e} {worst_a}{flag}")
    # closed-form anchors
    gamma_dev = 0.0
    for _ in range(100):
        b = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        a = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        got = garsia_gamma(leibov.test_function(complex(b)), complex(a))
        gamma_dev = max(gamma_dev, abs(got - leibov.gamma_closed_form(b, a)))
    print(f"gamma closed-form max deviation: {gamma_dev:.3e}")
    if gamma_dev > args.tol:
        failures += 1
    count_dev = 0.0
    for n in range(1, 9):
        psi = nev.to_rational(sym.power(sym.Identity(), n))
        for _ in range(12):
            w = (2.0 ** -10 + (1 - 2 ** -9) * rng.uniform()) * np.exp(
                2j * math.pi * rng.uniform())
            count_dev = max(count_dev, abs(nev.counting_function(psi, complex(w))
                                           - math.log(1.0 / abs(w))))
    print(f"counting closed-form max deviation: {count_dev:.3e}")
    if count_dev > 1e-10:
        failures += 1
    if failures:
        print(f"{failures} identity group(s) failed")
        return EXIT_INCONSISTENT
    print("all identities hold")
    return EXIT_OK


_COMMANDS = {"sweep": _cmd_sweep, "gallery": _cmd_gallery, "decompose": _cmd_decompose,
             "leibov": _cmd_leibov, "identities": _cmd_identities}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError, nev.RationalFormError, leibov.SelectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
