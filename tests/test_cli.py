import contextlib
import glob
import io
import json
import math
import os
import re
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from oscillab import cli
from oscillab import criteria as cr
from oscillab import sweep as sw
from oscillab import symbols as sym
from oscillab.gallery import GALLERY, entry_by_name, run_gallery
from oscillab.criteria import SweepSettings

FAST = SweepSettings(depth=8, angles=16, w2_angles=8, s2_boundary_n=1024,
                     arc_samples=64, w1_powers=(1, 2, 4, 8))


# JSON values for the config property: ints up to +-2^70 (small ones too, so
# that some configs pass the range checks) and beyond the float range,
# floats with NaN and the infinities, strings, bools, null, lists and random
# symbol trees
_numbers = st.one_of(st.integers(-8, 80), st.integers(-2 ** 70, 2 ** 70),
                     st.integers(2 ** 1024, 2 ** 1100),
                     st.floats(allow_nan=True, allow_infinity=True))
_scalars = st.one_of(_numbers, st.text(max_size=6), st.booleans(), st.none())
_cx = st.one_of(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
                st.lists(_scalars, max_size=3), _scalars)


def _node(kind, **parts):
    return st.fixed_dictionaries({"kind": st.just(kind), **parts})


symbol_trees = st.recursive(
    st.one_of(_node("identity"), _node("const", value=_cx),
              _node("poly", coefficients=st.lists(_cx, max_size=4)), _node("moebius", a=_cx),
              _node("blaschke", factor=_cx, zeros=st.lists(_cx, max_size=3)),
              st.dictionaries(st.text(max_size=6), _scalars, max_size=2)),
    lambda inner: st.one_of(_node("compose", outer=inner, inner=inner),
                            _node("scale", factor=_numbers, inner=inner)),
    max_leaves=6)

json_values = st.one_of(_scalars, st.lists(_scalars, min_size=1, max_size=4),
                        st.recursive(st.one_of(_scalars, symbol_trees),
                                     lambda inner: st.lists(inner, max_size=4), max_leaves=8))


class TestSweepConfig:
    def test_round_trip_is_byte_identical(self):
        cfg = sw.SweepConfig(symbol={"kind": "identity"}, criteria=("L", "S2"),
                             depth=8, out_dir="x")
        text = cfg.to_json()
        again = sw.SweepConfig.from_json(text)
        assert again == cfg
        assert again.to_json() == text

    def test_empty_criteria_rejected(self):
        with pytest.raises(sw.ConfigError, match="no criteria"):
            sw.SweepConfig(symbol={"kind": "identity"}, criteria=())

    def test_unknown_criteria_rejected(self):
        with pytest.raises(sw.ConfigError):
            sw.SweepConfig(symbol={"kind": "identity"}, criteria=("L", "Q7"))

    def test_bad_symbol_rejected(self):
        with pytest.raises(sw.ConfigError):
            sw.SweepConfig(symbol={"kind": "warp"})

    def test_threshold_ordering_enforced(self):
        with pytest.raises(sw.ConfigError):
            sw.SweepConfig(symbol={"kind": "identity"}, epsilon=0.05, delta=0.1)

    def test_unknown_fields_rejected(self):
        with pytest.raises(sw.ConfigError):
            sw.SweepConfig.from_json('{"symbol": {"kind": "identity"}, "zoom": 3}')

    def test_fields_are_settings_plus_run_fields(self):
        run_fields = {"symbol", "criteria", "seed", "out_dir", "plots"}
        assert ({f.name for f in fields(sw.SweepConfig)}
                == {f.name for f in fields(SweepSettings)} | run_fields)

    def test_settings_round_trip_every_field(self):
        values = dict(depth=9, angles=8, base_n=128, arc_samples=96, epsilon=0.2,
                      delta=0.12, s2_epsilon=0.06, tau_cap=40.0, tau_power=2.0,
                      s2_radii=(0.3, 0.6), s2_boundary_n=512, w1_powers=(1, 3),
                      w2_angles=12, level_start=5)
        assert set(values) == {f.name for f in fields(SweepSettings)}
        defaults = SweepSettings()
        assert all(getattr(defaults, k) != v for k, v in values.items())
        cfg = sw.SweepConfig(symbol={"kind": "identity"}, **values)
        assert isinstance(cfg, SweepSettings)
        assert {k: getattr(cfg, k) for k in values} == values
        assert sw.SweepConfig.from_json(cfg.to_json()) == cfg

    @settings(max_examples=500, deadline=None)
    @given(symbol_trees, st.lists(st.tuples(
        st.sampled_from([f.name for f in fields(sw.SweepConfig) if f.name != "symbol"]),
        json_values), min_size=1, max_size=3).map(dict))
    def test_from_json_returns_or_raises_config_error(self, symbol, data):
        # few fields per config, so that many pass the type checks and reach
        # the range checks and the symbol
        try:
            sw.SweepConfig.from_json(json.dumps({"symbol": symbol, **data}))
        except sw.ConfigError:
            pass

    def test_examples_parse(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
        paths = sorted(glob.glob(os.path.join(root, "*.json")))
        assert paths
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                sw.SweepConfig.from_json(fh.read())

    @pytest.mark.parametrize("w2_angles", [0, 3, 4097])
    def test_w2_angles_range_enforced(self, w2_angles):
        with pytest.raises(sw.ConfigError, match="w2_angles"):
            sw.SweepConfig(symbol={"kind": "identity"}, w2_angles=w2_angles)

    @pytest.mark.parametrize("powers", [(), (0,), (1, -2)])
    def test_w1_powers_must_be_positive(self, powers):
        with pytest.raises(sw.ConfigError, match="w1_powers"):
            sw.SweepConfig(symbol={"kind": "identity"}, w1_powers=powers)


class TestSymbolJson:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(symbol_trees)
    def test_from_json_returns_a_symbol_or_raises_symbol_error(self, data):
        try:
            phi = sym.symbol_from_json(data)
        except sym.SymbolError:
            return
        assert isinstance(phi, sym.Symbol)
        # a valid tree round-trips; compared as text, where NaN equals NaN
        text = json.dumps(sym.symbol_to_json(phi))
        assert json.dumps(sym.symbol_to_json(sym.symbol_from_json(json.loads(text)))) == text

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(symbol_trees)
    def test_sweep_exits_with_a_documented_code(self, symbol):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"symbol": symbol, "criteria": ["L"], "depth": 4, "angles": 4,
                           "out_dir": os.path.join(tmp, "out")}, fh)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(["sweep", "--config", path])
        assert code in (0, 2, 3, 4)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestRunSweep(object):
    def test_compact_constant(self, tmp_path):
        cfg = sw.SweepConfig(symbol={"kind": "const", "value": [0.3, 0.0]},
                             criteria=("L",), depth=8, angles=16,
                             out_dir=str(tmp_path / "out"))
        result = sw.run_sweep(cfg)
        assert result.report.classification == "compact-evidence"
        from pathlib import Path
        lines = Path(result.csv_path).read_text().splitlines()
        assert lines[0] == "kind,approach,value,grid_size,tau_cap_hits"
        assert all(line.split(",")[2] == "0" for line in lines[1:])
        verdict = json.loads(Path(result.verdict_path).read_text())
        assert verdict["verdict"]["classification"] == "compact-evidence"

    def test_non_self_map_is_config_error(self, tmp_path):
        with pytest.raises(sw.ConfigError, match="not at most 1"):
            sw.SweepConfig(symbol={"kind": "poly", "coefficients": [[0, 0], [2, 0]]},
                           criteria=("L",), out_dir=str(tmp_path / "out"))

    def test_close_s2_radii_get_their_own_rows_and_keys(self, tmp_path):
        radii = (0.1234561, 0.1234562, 0.5)
        cfg = sw.SweepConfig(symbol={"kind": "identity"}, criteria=("S2",), depth=5,
                             angles=4, s2_radii=radii, out_dir=str(tmp_path / "out"))
        result = sw.run_sweep(cfg)
        from pathlib import Path
        rows = [r.split(",") for r in Path(result.csv_path).read_text().splitlines()[1:]]
        labels = [f"S2[R={R!r}]" for R in radii]
        # depth 5 gives each radius the S2 levels 4 and 5
        assert sorted(r[0] for r in rows if r[0].startswith("S2")) == sorted(labels * 2)
        verdict = json.loads(Path(result.verdict_path).read_text())
        keys = {k for k in verdict["verdict"]["sub_verdicts"] if k.startswith("S2")}
        assert keys == set(labels)

    def test_plots_emitted(self, tmp_path):
        cfg = sw.SweepConfig(symbol={"kind": "identity"}, criteria=("L",),
                             depth=6, angles=8, out_dir=str(tmp_path / "out"),
                             plots=True)
        result = sw.run_sweep(cfg)
        from pathlib import Path
        assert result.plot_path and Path(result.plot_path).read_text().startswith("<svg")


class TestGalleryRunner:
    def test_all_entries_match_at_reduced_depth(self):
        run = run_gallery(("L", "S1", "A-double", "A-prime", "W2"), FAST, workers=1)
        assert run.exit_code == 0
        assert run.mismatches == [] and run.inconsistencies == []

    def test_entry_tasks_share_one_sweep(self, monkeypatch, tmp_path):
        # forked workers inherit the patches and append to one log file
        from oscillab import criteria as cr
        from oscillab import gallery
        log = tmp_path / "computed.log"
        for state in ("l_values", "arc_values"):
            real = getattr(cr.CriterionSweep, state)

            def logged(sweep, real=real, state=state):
                if getattr(sweep, f"_{state}") is None:
                    with open(log, "a", encoding="utf-8") as fh:
                        fh.write(f"{state} {sweep.phi!r}\n")
                return real(sweep)

            monkeypatch.setattr(cr.CriterionSweep, state, logged)
        kinds = cr.PROFILE_KINDS
        gallery._entry_sweep.cache_clear()
        pooled = gallery.compute_gallery_profiles(kinds, FAST, workers=2)
        once = sorted(f"{state} {e.symbol!r}" for e in GALLERY
                      for state in ("l_values", "arc_values"))
        assert sorted(log.read_text().splitlines()) == once
        log.unlink()
        gallery._entry_sweep.cache_clear()
        assert gallery.compute_gallery_profiles(kinds, FAST, workers=1) == pooled
        assert sorted(log.read_text().splitlines()) == once

    def test_jobs_cover_every_task_and_merge_in_task_order(self, monkeypatch):
        from oscillab import criteria as cr
        from oscillab import gallery
        kinds = ("W1", "L", "A-prime", "S1", "W2", "A-double")
        tasks = [(e.name, k, FAST) for e in GALLERY for k in kinds]
        jobs = gallery._jobs(tasks)
        assert sorted(t[:2] for job in jobs for t in job) == sorted(t[:2] for t in tasks)
        for job in jobs:
            keys = {(name, cr.CriterionSweep.PROFILES[kind][1]) for name, kind, _ in job}
            assert len(keys) == 1
            _, state = keys.pop()
            assert state is not None or len(job) == 1
        assert [kind for _, kind, _ in jobs[1]] == ["L", "W2"]

        order = []

        def fake_task(args):
            order.append(args[:2])
            return args[0], args[1], f"{args[0]}/{args[1]}"

        monkeypatch.setattr(gallery, "_profile_task", fake_task)
        out = gallery.compute_gallery_profiles(kinds, FAST, workers=1)
        assert len(order) == len(tasks) and order != [t[:2] for t in tasks]
        for entry in GALLERY:
            assert list(out[entry.name].items()) == [(k, f"{entry.name}/{k}") for k in kinds]

    def test_pool_asks_for_no_more_workers_than_jobs(self, monkeypatch):
        from oscillab import gallery
        asked = []

        class FakePool:
            """Records its size and maps in this process; starts nothing."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(gallery, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(gallery, "_profile_task", lambda args: (args[0], args[1], None))
        kinds = ("L", "S1", "W2")
        jobs = gallery._jobs([(e.name, k, FAST) for e in GALLERY for k in kinds])
        out = gallery.compute_gallery_profiles(kinds, FAST, workers=1000)
        assert asked == [len(jobs)] and len(jobs) < 1000
        assert set(out) == {e.name for e in GALLERY}

    def test_entry_lookup(self):
        assert entry_by_name("identity").expected == "non-compact"
        with pytest.raises(KeyError):
            entry_by_name("nope")

    def test_gallery_has_eight_entries_with_provenance(self):
        assert len(GALLERY) == 8
        assert all(e.note for e in GALLERY)
        assert all(e.expected in ("compact", "non-compact") for e in GALLERY)


class TestCliCommands:
    def test_sweep_command(self, tmp_path):
        cfg = sw.SweepConfig(symbol={"kind": "scale", "factor": 0.5,
                                     "inner": {"kind": "identity"}},
                             criteria=("L",), depth=8, angles=16,
                             out_dir=str(tmp_path / "out"))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert cli.main(["sweep", "--config", str(path)]) == 0

    def test_sweep_missing_config_exits_4(self, capsys):
        assert cli.main(["sweep", "--config", "/nonexistent.json"]) == 4

    def test_bad_symbol_json_exits_4(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"symbol": {"kind": "warp"}, "criteria": ["L"]}')
        assert cli.main(["sweep", "--config", str(path)]) == 4

    @pytest.mark.parametrize("symbol", [
        '{"kind": "const", "value": ["x", 0]}', '{"kind": "poly", "coefficients": 5}',
        '{"kind": "scale", "factor": "x", "inner": {"kind": "identity"}}',
        '{"kind": "blaschke", "factor": [1, 0], "zeros": 3}'])
    def test_malformed_symbol_exits_4(self, tmp_path, symbol):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"symbol": {symbol}, "criteria": ["L"], '
                        f'"out_dir": "{tmp_path / "out"}"}}')
        assert cli.main(["sweep", "--config", str(path)]) == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ['"w2_angles": 0', '"w1_powers": [0]'])
    def test_bad_w_settings_exit_4(self, tmp_path, field):
        path = tmp_path / "cfg.json"
        path.write_text('{"symbol": {"kind": "identity"}, "criteria": ["W1", "W2"], '
                        f'"depth": 6, "angles": 8, {field}, '
                        f'"out_dir": "{tmp_path / "out"}"}}')
        assert cli.main(["sweep", "--config", str(path)]) == 4

    @pytest.mark.parametrize("field", [
        '"w2_angles": "16"', '"tau_cap": "50"', '"w1_powers": ["x"]', '"w1_powers": [true]',
        '"s2_boundary_n": 0', '"angles": 8.5', '"plots": "no"', '"s2_radii": [0.5, 1.5]',
        '"s2_radii": ["0.5"]', '"s2_radii": []', '"criteria": "L"', '"out_dir": 3',
        '"tau_cap": NaN', '"tau_cap": 1' + '0' * 400, '"base_n": 2097152',
        '"s2_boundary_n": 1099511627776', '"arc_samples": 1048576',
        '"w1_powers": [1000000000000]', '"s2_radii": [0.5, 0.25, 0.5]',
        # S2's thresholds start at level 4, so depth 3 would give no S2 rows
        '"depth": 3, "level_start": 1'])
    def test_mistyped_config_exits_4(self, tmp_path, field):
        path = tmp_path / "cfg.json"
        path.write_text('{"symbol": {"kind": "identity"}, "criteria": ["L", "S2"], '
                        f'"depth": 6, "angles": 8, "out_dir": "{tmp_path / "out"}", '
                        f'{field}}}')
        assert cli.main(["sweep", "--config", str(path)]) == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("nodes", [600, 1200])
    def test_deeply_nested_symbol_exits_4(self, tmp_path, nodes):
        symbol = '{"kind": "identity"}'
        for _ in range(nodes):
            symbol = f'{{"kind": "compose", "outer": {{"kind": "identity"}}, "inner": {symbol}}}'
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"symbol": {symbol}, "criteria": ["L"], '
                        f'"out_dir": "{tmp_path / "out"}"}}')
        assert cli.main(["sweep", "--config", str(path)]) == 4
        assert not (tmp_path / "out").exists()

    def test_unsettled_quadrature_exits_3_with_witness(self, tmp_path, capsys):
        # depth 16 asks for more than the 2^20-point grid cap can resolve
        path = tmp_path / "cfg.json"
        path.write_text('{"symbol": {"kind": "poly", "coefficients": [[0, 0], [0.5, 0], [0.5, 0]]}, '
                        f'"criteria": ["L"], "depth": 16, "angles": 8, '
                        f'"out_dir": "{tmp_path / "out"}"}}')
        assert cli.main(["sweep", "--config", str(path)]) == 3
        assert "routes disagree" in capsys.readouterr().err

    def test_workers_is_not_a_config_field(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"symbol": {"kind": "identity"}, "workers": 2}')
        assert cli.main(["sweep", "--config", str(path)]) == 4
        assert "unknown config fields" in capsys.readouterr().err

    def test_usage_error_exits_4(self):
        assert cli.main(["decompose", "--mode", "entropy", "--set", "x"]) == 4

    def test_decompose_wik(self, tmp_path, capsys):
        arcset = tmp_path / "set.json"
        arcset.write_text("[[0, 1, 1, 4]]")
        out = tmp_path / "dec.json"
        code = cli.main(["decompose", "--mode", "wik", "--lambda", "1/2",
                         "--set", str(arcset), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["arcs"] == [[0, 0]]
        assert payload["residue"] == [0, 1]
        assert payload["verification"]["sandwich_ok"]

    def test_decompose_wik_exit_code_reads_every_check(self, tmp_path, monkeypatch):
        from oscillab import dyadic
        arcset = tmp_path / "set.json"
        arcset.write_text("[[0, 1, 1, 4]]")
        argv = ["decompose", "--mode", "wik", "--lambda", "1/2", "--set", str(arcset),
                "--out", str(tmp_path / "dec.json")]
        good = {"sandwich_ok": True, "per_arc": [True], "interiors_disjoint": True,
                "residue_zero": True}
        for check in ("sandwich_ok", "interiors_disjoint", "residue_zero"):
            monkeypatch.setattr(dyadic, "verify_wik", lambda result: {**good, check: False})
            assert cli.main(argv) == 3, check
        monkeypatch.setattr(dyadic, "verify_wik", lambda result: good)
        assert cli.main(argv) == 0

    def test_decompose_density(self, tmp_path):
        arcset = tmp_path / "set.json"
        arcset.write_text("[[0, 1, 1, 2]]")
        out = tmp_path / "dec.json"
        code = cli.main(["decompose", "--mode", "density", "--set", str(arcset),
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verification"]["all_ok"]
        assert payload["core"]

    def test_decompose_density_rejects_lambda(self, tmp_path):
        arcset = tmp_path / "set.json"
        arcset.write_text("[[0, 1, 1, 2]]")
        assert cli.main(["decompose", "--mode", "density", "--lambda", "1/2",
                         "--set", str(arcset)]) == 4

    def test_wik_needs_lambda(self, tmp_path):
        arcset = tmp_path / "set.json"
        arcset.write_text("[[0, 1, 1, 4]]")
        assert cli.main(["decompose", "--mode", "wik", "--set", str(arcset)]) == 4

    def test_wik_precondition_exits_4(self, tmp_path, capsys):
        # the snap to 2^-20 leaves |E| = 559241/1048576 > 1/2
        arcset = tmp_path / "set.json"
        arcset.write_text("[[1, 3, 2, 3], [7, 10, 9, 10]]")
        assert cli.main(["decompose", "--mode", "wik", "--lambda", "1/2",
                         "--set", str(arcset)]) == 4
        assert "|E| = 559241/1048576 > 1/2" in capsys.readouterr().err

    def test_density_of_a_set_snapped_to_measure_zero_exits_4(self, tmp_path, capsys):
        arcset = tmp_path / "set.json"
        arcset.write_text("[[0, 1, 1, 4000000]]")
        assert cli.main(["decompose", "--mode", "density", "--set", str(arcset)]) == 4
        assert "|E| = 0 after the snap" in capsys.readouterr().err

    def test_leibov_command(self, tmp_path):
        out = tmp_path / "cert.json"
        assert cli.main(["leibov", "--depth", "3", "--count", "60",
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] and len(payload["indices"]) == 3

    def test_gallery_writes_outputs(self, tmp_path):
        out = tmp_path / "gal"
        code = cli.main(["gallery", "--depth", "6", "--out", str(out),
                         "--criteria", "L", "W2"])
        assert code == 0
        names = sorted(os.listdir(out))
        assert "summary.csv" in names and "summary.json" in names
        assert "identity.profiles.csv" in names
        summary = json.loads((out / "summary.json").read_text())
        assert all(row["match"] for row in summary["rows"])

    def test_resolve_workers(self, monkeypatch):
        from oscillab.gallery import resolve_workers
        monkeypatch.setenv("OSCILLAB_WORKERS", "3")    # no longer read
        assert resolve_workers(None) == 1
        assert resolve_workers(2) == 2
        assert resolve_workers(0) == 1

    @pytest.mark.parametrize("args", [["--depth", "0"], ["--depth", "-2"], ["--depth", "3"],
                                      ["--depth", "25"], ["--depth", "4", "--criteria", "W1"]])
    def test_bad_gallery_arguments_exit_4_before_any_profile(self, monkeypatch, tmp_path, args):
        from oscillab import gallery
        ran = []
        monkeypatch.setattr(gallery, "_profile_task", ran.append)
        assert cli.main(["gallery", "--out", str(tmp_path / "gal"), *args]) == 4
        assert ran == [] and not (tmp_path / "gal").exists()

    _Z65 = '{"kind": "poly", "coefficients": [%s[1, 0]]}' % ("[0, 0], " * 65)
    _NAN = '{"kind": "poly", "coefficients": [[NaN, 0], [0.5, 0]]}'

    @pytest.mark.parametrize("argv, text", [
        (["identities", "--points", "0"], None), (["identities", "--seed", "-1"], None),
        (["identities", "--n", "1" + "0" * 400], None), (["leibov", "--depth", "-1"], None),
        (["leibov", "--depth", "100"], None), (["leibov", "--count", "0"], None),
        (["leibov", "--count", "1100"], None),
        (["gallery", "--out", "OUT", "--workers", "-3"], None),
        (["gallery", "--out", "OUT", "--workers", "0"], None),
        (["gallery", "--out", "OUT", "--seed", "-7"], None),
        (["identities", "--tol", "nan"], None), (["identities", "--tol", "inf"], None),
        (["identities", "--tol", "0"], None), (["identities", "--tol", "-1"], None),
        # S1 needs z^65 lowered, beyond the degree cap
        (["sweep", "--config"], f'{{"symbol": {_Z65}, "criteria": ["S1"], "depth": 10, '
                                '"angles": 8, "out_dir": "OUT"}'),
        (["sweep", "--config"], f'{{"symbol": {_NAN}, "out_dir": "OUT"}}'),
        (["decompose", "--mode", "density", "--set"], "5"),
        (["decompose", "--mode", "density", "--set"], "[[0, 0, 1, 2]]"),
        (["decompose", "--mode", "density", "--set"], '[[0, 1, 1, "x"]]')],
        ids=["points-0", "seed-neg", "n-huge", "leibov-depth-neg", "leibov-depth-100",
             "count-0", "count-1100", "gallery-workers-neg", "gallery-workers-0",
             "gallery-seed-neg", "tol-nan", "tol-inf", "tol-0", "tol-neg", "z65-s1",
             "nan-symbol", "set-not-rows", "set-zero-denominator", "set-string"])
    def test_bad_inputs_exit_4_with_one_error_line(self, tmp_path, capsys, argv, text):
        argv = [a.replace("OUT", str(tmp_path / "out")) for a in argv]
        if text is not None:
            path = tmp_path / "input.json"
            path.write_text(text.replace("OUT", str(tmp_path / "out")))
            argv = [*argv, str(path)]
        assert cli.main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nan_moebius_sweep_exits_4_naming_the_base_point(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"symbol": {"kind": "moebius", "a": [math.nan, 0]},
                                    "out_dir": str(tmp_path / "out")}))
        assert cli.main(["sweep", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "base point must be interior" in err

    def test_identities_command(self, capsys):
        assert cli.main(["identities", "--points", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "all identities hold" in out

    def test_identities_count_an_unsettled_worst_point_as_failed(self, capsys, monkeypatch):
        monkeypatch.setattr(cr, "TAYLOR_SQUARINGS", 1)
        assert cli.main(["identities", "--points", "2", "--seed", "3"]) == 3
        out = capsys.readouterr().out
        assert "UNSETTLED" in out and "all identities hold" not in out

    def test_identity_sweep_reports_flat_counting_profile(self, tmp_path):
        cfg = sw.SweepConfig(symbol={"kind": "identity"}, criteria=("L", "S1"),
                             depth=8, angles=16, out_dir=str(tmp_path / "out"))
        result = sw.run_sweep(cfg)
        from pathlib import Path
        rows = Path(result.csv_path).read_text().splitlines()[1:]
        l_vals = [float(r.split(",")[2]) for r in rows if r.startswith("L,")]
        s1_vals = [float(r.split(",")[2]) for r in rows if r.startswith("S1,")]
        assert all(abs(v - 1.0) < 1e-7 for v in l_vals)
        assert all(abs(v - 0.18394) < 1e-3 for v in s1_vals)
        assert result.report.classification == "non-compact-evidence"


class TestExitCodes:
    def test_mismatch_maps_to_exit_2(self):
        from oscillab.gallery import GalleryRow, GalleryRun
        from oscillab.criteria import VerdictReport
        good = VerdictReport("compact-evidence", True, {}, None, (), {})
        row = GalleryRow("x", "non-compact", good)  # claims non-compact, got compact
        run = GalleryRun((row,), {"x": {}})
        assert run.exit_code == 2

    def test_inconsistency_maps_to_exit_3(self):
        from oscillab.gallery import GalleryRow, GalleryRun
        from oscillab.criteria import VerdictReport
        bad = VerdictReport("inconsistent", False, {}, None, (), {})
        row = GalleryRow("x", "compact", bad)
        run = GalleryRun((row,), {"x": {}})
        assert run.exit_code == 3


class TestReadme:
    """The README's config table and symbol-field list name exactly the
    fields the code declares."""

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def test_config_table_keys_are_the_config_fields(self):
        start = next(i for i, line in enumerate(self.lines) if line.startswith("| key"))
        keys = []
        for line in self.lines[start + 2:]:
            if not line.startswith("|"):
                break
            keys.append(re.match(r"\| `(\w+)`", line).group(1))
        assert sorted(keys) == sorted(f.name for f in fields(sw.SweepConfig))

    def test_symbol_examples_parse_and_name_every_field(self):
        examples = [json.loads(m.group(1)) for line in self.lines
                    if (m := re.match(r"- `(\{.*\})`:", line))]
        for data in examples:
            # the codec writes back exactly the fields the example names
            assert sym.symbol_to_json(sym.symbol_from_json(data)) == data
        assert ({type(sym.symbol_from_json(data)) for data in examples}
                == set(sym.Symbol.__subclasses__()))
