"""Command-line interface: ingestion, dispatch, exit codes, outputs."""

import csv
import json
import os

import numpy as np
import pytest

from hdcoint import DataError, cli
from hdcoint.cli import ingest_csv, main


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def _orders(path):
    """{series: order} of a classify report file."""
    doc = json.loads(path.read_text())
    return {entry["series"]: entry["order"] for entry in doc["series"]}


def _simulate(tmp_path, name="panel.csv", n0=1, n1=2, n2=0, t_obs=90, seed=7):
    path = tmp_path / name
    rc = main(["simulate", "--dgp", "mixed", "--n0", str(n0), "--n1",
               str(n1), "--n2", str(n2), "--t-obs", str(t_obs), "--seed",
               str(seed), "--output", str(path)])
    assert rc == 0
    return str(path)


class TestIngest:
    def test_well_formed_roundtrip(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["2000-01", "1.0", "4.0"],
            ["2000-02", "2.0", "5.0"],
            ["2000-03", "3.0", "6.0"],
        ])
        panel, codes = ingest_csv(path)
        assert panel.n_obs == 3 and panel.n_series == 2
        assert panel.names == ("a", "b")
        assert codes is None

    def test_leading_blanks_become_nan(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["2000-01", "", "4.0"],
            ["2000-02", "2.0", "5.0"],
            ["2000-03", "3.0", "6.0"],
        ])
        panel, _ = ingest_csv(path)
        assert np.isnan(panel.values[0, 0])
        assert np.isfinite(panel.values[1:, 0]).all()

    def test_interior_gap_named(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["2000-01", "1.0", "4.0"],
            ["2000-02", "", "5.0"],
            ["2000-03", "3.0", "6.0"],
        ])
        with pytest.raises(DataError, match=r"row 3, column 'a'"):
            ingest_csv(path)

    def test_duplicate_names(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "a"],
            ["2000-01", "1.0", "4.0"],
        ])
        with pytest.raises(DataError, match="duplicate series name 'a'"):
            ingest_csv(path)

    def test_non_monotone_dates(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a"],
            ["2000-02", "1.0"],
            ["2000-01", "2.0"],
        ])
        with pytest.raises(DataError, match="row 3.*does not increase"):
            ingest_csv(path)

    def test_bad_date(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a"],
            ["Jan 2000", "1.0"],
        ])
        with pytest.raises(DataError, match="not an ISO-8601 date"):
            ingest_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["2000-01", "1.0", "oops"],
        ])
        with pytest.raises(DataError, match=r"row 2, column 'b'"):
            ingest_csv(path)

    def test_ragged_row(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["2000-01", "1.0"],
        ])
        with pytest.raises(DataError, match="row 2 has 2 fields"):
            ingest_csv(path)

    def test_all_blank_column(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["2000-01", "1.0", ""],
            ["2000-02", "2.0", ""],
        ])
        with pytest.raises(DataError, match="column 'b' has no observations"):
            ingest_csv(path)

    def test_transform_row_parsed(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["transform", "5", "2"],
            ["2000-01", "1.0", "4.0"],
            ["2000-02", "2.0", "5.0"],
        ])
        panel, codes = ingest_csv(path)
        assert panel.n_obs == 2
        assert codes.tolist() == [5, 2]

    def test_transform_row_shifts_coordinates(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["transform", "5", "2"],
            ["2000-01", "1.0", "4.0"],
            ["2000-02", "", "5.0"],
            ["2000-03", "3.0", "6.0"],
        ])
        with pytest.raises(DataError, match=r"row 4, column 'a'"):
            ingest_csv(path)

    def test_transform_code_out_of_range(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["transform", "5", "9"],
            ["2000-01", "1.0", "4.0"],
        ])
        with pytest.raises(DataError, match="column 'b'.*outside 1..7"):
            ingest_csv(path)

    def test_codes_file_overrides_embedded_row(self, tmp_path):
        panel_path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["transform", "5", "2"],
            ["2000-01", "1.0", "4.0"],
        ])
        codes_path = _write_rows(tmp_path / "codes.csv",
                                 [["b", "6"], ["a", "1"]])
        _, codes = ingest_csv(panel_path, codes_path)
        assert codes.tolist() == [1, 6]

    def test_codes_file_errors(self, tmp_path):
        panel_path = _write_rows(tmp_path / "p.csv", [
            ["date", "a", "b"],
            ["2000-01", "1.0", "4.0"],
        ])
        unknown = _write_rows(tmp_path / "u.csv", [["zz", "1"], ["a", "1"]])
        with pytest.raises(DataError, match="unknown series 'zz'"):
            ingest_csv(panel_path, unknown)
        bad = _write_rows(tmp_path / "b.csv", [["a", "8"], ["b", "1"]])
        with pytest.raises(DataError, match="code 8 outside 1..7"):
            ingest_csv(panel_path, bad)
        partial = _write_rows(tmp_path / "m.csv", [["a", "1"]])
        with pytest.raises(DataError, match="lacks entries"):
            ingest_csv(panel_path, partial)

    def test_codes_file_lists_a_series_once(self, tmp_path, capsys):
        panel_path = _simulate(tmp_path)
        codes = _write_rows(tmp_path / "c.csv",
                            [["s1", "2"], ["s2", "1"], ["s1", "5"],
                             ["s3", "2"]])
        with pytest.raises(DataError,
                           match="codes file row 3: duplicate series 's1'"):
            ingest_csv(panel_path, codes)
        out = tmp_path / "fc.json"
        rc = main(["forecast", "--input", panel_path, "--codes", codes,
                   "--window", "60", "--output", str(out)])
        assert rc == 2
        assert "duplicate series 's1'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest_csv(str(tmp_path / "absent.csv"))
        absent = str(tmp_path / "absent.csv")
        out = str(tmp_path / "o.json")
        assert main(["mcs", "--input", absent, "--output", out]) == 2
        assert main(["forecast", "--input", _simulate(tmp_path), "--codes",
                     absent, "--output", out]) == 2


class TestConfigResolution:
    def test_config_file_equivalent_to_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\nt-obs=40\n# comment line\n\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg),
                     "--output", str(out_a)]) == 0
        assert main(["simulate", "--seed", "3", "--t-obs", "40",
                     "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\nt-obs=40\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--output", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg),
                     "--output", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp-speed=9\n")
        rc = main(["simulate", "--config", str(cfg),
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "warp-speed" in capsys.readouterr().err

    def test_missing_command(self, capsys):
        assert main([]) == 1
        assert "command is required" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path):
        assert main(["simulate", "--nope", "1",
                     "--output", str(tmp_path / "x.csv")]) == 1

    def test_classify_rejects_horizons(self, tmp_path):
        path = _simulate(tmp_path, t_obs=60)
        rc = main(["classify", "--input", path, "--horizons", "1",
                   "--output", str(tmp_path / "r.json")])
        assert rc == 1


#: the flags each command takes, with their defaults (None: not set)
ROWS = {
    "simulate": {"output": None, "config": None, "seed": 0, "dgp": "mixed",
                 "n0": 3, "n1": 4, "n2": 1, "n_series": 6, "rank": 2,
                 "t_obs": 200},
    "classify": {"input": None, "codes": None, "output": None,
                 "config": None, "seed": 0, "threads": None, "alpha": 0.05,
                 "boot_reps": 999, "gamma": 0.85, "methods": ("bsqt",),
                 "strategy": 2, "quantile_step": 0.05, "max_lags": None},
    "forecast": {"input": None, "codes": None, "output": None,
                 "config": None, "seed": 0, "alpha": 0.10, "boot_reps": 999,
                 "gamma": 0.85, "window": 120, "horizons": (1,),
                 "methods": ("ar", "var"), "factors": 4, "max_lags": None,
                 "targets": None, "benchmark": "ar"},
    "nowcast": {"input": None, "codes": None, "output": None,
                "config": None, "seed": 0, "alpha": 0.10, "boot_reps": 999,
                "gamma": 0.85, "window": 120, "methods": ("ar",),
                "factors": 4, "max_lags": None, "targets": None,
                "benchmark": "ar"},
    "mcs": {"input": None, "output": None, "config": None, "seed": 0,
            "alpha": 0.10, "boot_reps": 999, "gamma": 0.85},
}

#: every flag but --config, as typed and as resolved
VALUES = {
    "input": ("in.csv", "in.csv"), "codes": ("c.csv", "c.csv"),
    "output": ("o.json", "o.json"), "seed": ("7", 7), "threads": ("2", 2),
    "alpha": ("0.2", 0.2), "boot_reps": ("299", 299), "gamma": ("0.5", 0.5),
    "window": ("60", 60), "horizons": ("3,1,3", (3, 1)),
    "methods": ("AR, Var", ("ar", "var")), "strategy": ("1", 1),
    "quantile_step": ("0.1", 0.1), "factors": ("2", 2),
    "max_lags": ("4", 4), "dgp": ("vecm", "vecm"), "n0": ("2", 2),
    "n1": ("5", 5), "n2": ("0", 0), "n_series": ("8", 8),
    "rank": ("3", 3), "t_obs": ("50", 50),
    "targets": ("s1, s2", ("s1", "s2")), "benchmark": ("var", "var"),
}

KEPT = [(c, f) for c, row in ROWS.items() for f in row if f != "config"]
OTHERS = [(c, f) for c, row in ROWS.items() for f in VALUES if f not in row]


def _marked(pairs):
    """(command, flag) pairs, the threads flag's as worker_processes."""
    return [pytest.param(c, f, marks=pytest.mark.worker_processes)
            if f == "threads" else (c, f) for c, f in pairs]


def _flag(key):
    return "--" + key.replace("_", "-")


class TestFlagTable:
    def test_each_command_takes_its_row(self):
        assert sum(len(row) for row in ROWS.values()) == 59
        assert len(OTHERS) == 66
        for command, row in ROWS.items():
            resolved = cli._resolve([command])
            assert resolved.pop("command") == command
            assert resolved == row

    @pytest.mark.parametrize("command, key", _marked(KEPT))
    def test_a_flag_resolves_alike_from_argv_and_file(self, tmp_path,
                                                     command, key):
        text, value = VALUES[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{_flag(key)[2:]}={text}\n")
        for argv in ([_flag(key), text], ["--config", str(cfg)]):
            resolved = cli._resolve([command] + argv)
            assert resolved[key] == value
            assert {k: v for k, v in resolved.items()
                    if k not in (key, "config", "command")} == \
                {k: v for k, v in ROWS[command].items()
                 if k not in (key, "config")}

    @pytest.mark.parametrize("command, key", _marked(OTHERS))
    def test_a_flag_the_command_does_not_read_is_a_usage_error(
            self, tmp_path, capsys, command, key):
        out = tmp_path / "o.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{_flag(key)[2:]}={VALUES[key][0]}\n")
        assert main([command, "--output", str(out), _flag(key),
                     VALUES[key][0]]) == 1
        assert _flag(key) in capsys.readouterr().err
        assert main([command, "--output", str(out),
                     "--config", str(cfg)]) == 1
        assert f"takes no key '{_flag(key)[2:]}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ROWS)
    def test_config_is_not_a_file_key(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"config={cfg}\n")
        assert main([command, "--output", str(tmp_path / "o.json"),
                     "--config", str(cfg)]) == 1
        assert "takes no key 'config'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", cli._FLAGS)
    def test_every_flag_in_a_row_is_read(self, tmp_path, monkeypatch, rng,
                                         command):
        # run the command with all its flags set and record the keys it
        # reads; --config is read by _resolve itself
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        resolve = cli._resolve
        monkeypatch.setattr(cli, "_resolve",
                            lambda argv: Recording(resolve(argv)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# no entries\n")
        panel = _simulate(tmp_path, n0=1, n1=1, n2=1, t_obs=90)
        codes = _write_rows(tmp_path / "codes.csv",
                            [["s1", "1"], ["s2", "5"], ["s3", "6"]])
        losses = _write_rows(tmp_path / "loss.csv", [["a", "b"]] + [
            [repr(float(v)) for v in rng.standard_normal(2) ** 2]
            for _ in range(40)])
        values = {
            "input": losses if command == "mcs" else panel, "codes": codes,
            "output": str(tmp_path / "o.json"), "config": str(cfg),
            "seed": "3", "threads": "1", "alpha": "0.1", "boot_reps": "199",
            "gamma": "0.85", "window": "60", "horizons": "1",
            "methods": "bsqt" if command == "classify" else "ar",
            "strategy": "1", "quantile_step": "0.1", "factors": "1",
            "max_lags": "2", "n0": "1", "n1": "1", "n2": "1",
            "n_series": "3", "rank": "1", "t_obs": "40", "targets": "s1",
            "benchmark": "ar"}
        row = [k for k in cli._FLAGS[command] if k != "dgp"]
        argv = [command] + [a for k in row for a in (_flag(k), values[k])]
        for dgp in (("mixed", "vecm") if command == "simulate" else (None,)):
            assert main(argv + (["--dgp", dgp] if dgp else [])) == 0
        assert set(cli._FLAGS[command]) - {"config"} <= read


class TestExitCodes:
    def test_usage_error_is_one(self, tmp_path, capsys):
        rc = main(["simulate"])
        assert rc == 1
        assert "--output is required" in capsys.readouterr().err

    def test_fecm_without_room_for_its_factors_is_one(self, tmp_path,
                                                        capsys):
        # every series is a target by default, so fecm's factors would
        # make its system singular: rejected before the first window
        panel = str(tmp_path / "vecm.csv")
        assert main(["simulate", "--dgp", "vecm", "--n-series", "4",
                     "--rank", "1", "--t-obs", "140", "--output",
                     panel]) == 0
        out = tmp_path / "fc.json"
        rc = main(["forecast", "--input", panel, "--methods", "ar,fecm",
                   "--window", "120", "--factors", "1", "--output",
                   str(out)])
        assert rc == 1
        assert "targets plus factors must be at most 4" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_data_error_is_two(self, tmp_path):
        path = _write_rows(tmp_path / "p.csv", [
            ["date", "a"],
            ["2000-01", "1.0"],
            ["2000-02", ""],
            ["2000-03", "3.0"],
        ])
        rc = main(["classify", "--input", path,
                   "--output", str(tmp_path / "r.json")])
        assert rc == 2

    def test_numerical_error_is_three(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        walk = rng.standard_normal(60).cumsum()
        rows = [["date", "a", "b"]]
        for i in range(60):
            rows.append([f"{2000 + i // 12:04d}-{i % 12 + 1:02d}",
                         repr(float(walk[i])), "1.0"])
        path = _write_rows(tmp_path / "p.csv", rows)
        rc = main(["classify", "--input", path, "--boot-reps", "199",
                   "--output", str(tmp_path / "r.json")])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err


class TestSimulate:
    def test_mixed_panel_roundtrip(self, tmp_path):
        path = _simulate(tmp_path, n0=2, n1=3, n2=1, t_obs=50)
        panel, codes = ingest_csv(path)
        assert panel.n_obs == 50 and panel.n_series == 6
        assert codes is None
        assert np.isfinite(panel.values).all()

    def test_seed_determinism(self, tmp_path):
        a = _simulate(tmp_path, name="a.csv", seed=11)
        b = _simulate(tmp_path, name="b.csv", seed=11)
        c = _simulate(tmp_path, name="c.csv", seed=12)
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(a, "rb").read() != open(c, "rb").read()

    def test_vecm_panel(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["simulate", "--dgp", "vecm", "--n-series", "4", "--rank",
                   "2", "--t-obs", "60", "--seed", "5",
                   "--output", str(out)])
        assert rc == 0
        panel, _ = ingest_csv(str(out))
        assert panel.n_series == 4 and panel.n_obs == 60

    @pytest.mark.parametrize("args, message", [
        (["--n0", "-1"], "n0 must be nonnegative, got -1"),
        (["--n1", "-2", "--n0", "3"], "n1 must be nonnegative, got -2"),
        (["--t-obs", "1"], "T must be at least 2, got 1"),
        (["--dgp", "vecm", "--n-series", "-2"], "at least one series, got n=-2"),
        (["--dgp", "mixd"], "'mixd'")])
    def test_bad_sizes_are_usage_errors(self, tmp_path, capsys, args,
                                        message):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--output", str(out)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestClassifyCommand:
    def test_bsqt_report_written(self, tmp_path, capsys):
        path = _simulate(tmp_path, t_obs=90)
        out = tmp_path / "report.json"
        rc = main(["classify", "--input", path, "--output", str(out),
                   "--boot-reps", "199", "--seed", "4"])
        assert rc == 0
        orders = _orders(out)
        assert list(orders) == ["s1", "s2", "s3"]
        assert all(d in (0, 1, 2) for d in orders.values())
        assert "method=bsqt" in capsys.readouterr().out

    @pytest.mark.worker_processes
    def test_output_identical_across_threads(self, tmp_path):
        # 599 replications are three row blocks of four_stats; a simulated
        # panel and the golden CSV panel
        golden = os.path.join(os.path.dirname(__file__), "golden", "panel.csv")
        for k, path in enumerate((_simulate(tmp_path, t_obs=90), golden)):
            for n in ("1", "2", "3"):
                assert main(["classify", "--input", path, "--output",
                             str(tmp_path / f"r{k}_{n}.json"), "--boot-reps",
                             "599", "--seed", "4", "--threads", n]) == 0
            first = (tmp_path / f"r{k}_1.json").read_bytes()
            for n in ("2", "3"):
                assert (tmp_path / f"r{k}_{n}.json").read_bytes() == first

    @pytest.mark.worker_processes
    def test_threads_leave_the_environment_alone(self, tmp_path):
        # --threads sizes the bootstrap's worker pool and nothing else
        path = _simulate(tmp_path, t_obs=60)
        before = dict(os.environ)
        assert main(["classify", "--input", path, "--output",
                     str(tmp_path / "r.json"), "--boot-reps", "199",
                     "--threads", "2"]) == 0
        assert dict(os.environ) == before
        assert main(["classify", "--input", path, "--output",
                     str(tmp_path / "r.json"), "--threads", "0"]) == 1

    def test_naive_method_runs(self, tmp_path):
        path = _simulate(tmp_path, t_obs=90)
        out = tmp_path / "report.json"
        rc = main(["classify", "--input", path, "--output", str(out),
                   "--methods", "naive", "--seed", "4"])
        assert rc == 0
        assert "naive" in json.loads(out.read_text())["method"]

    def test_single_series_input(self, tmp_path):
        path = _simulate(tmp_path, n0=0, n1=1, n2=0, t_obs=90)
        out = tmp_path / "report.json"
        rc = main(["classify", "--input", path, "--output", str(out),
                   "--boot-reps", "199", "--seed", "4"])
        assert rc == 0
        assert len(_orders(out)) == 1

    def test_quantile_step_in_the_unit_interval(self, tmp_path, capsys):
        # a step of 1 is the grid (0,): one joint test of "all I(1)"
        # against "all I(0)"
        path = _simulate(tmp_path, t_obs=60)
        args = ["classify", "--input", path, "--output",
                str(tmp_path / "r.json"), "--boot-reps", "199",
                "--quantile-step"]
        assert main(args + ["1"]) == 0
        capsys.readouterr()
        for step in ("0", "1.5"):
            assert main(args + [step]) == 1
            assert "quantile step must lie in (0, 1]" in capsys.readouterr().err

    def test_unknown_method(self, tmp_path, capsys):
        path = _simulate(tmp_path, t_obs=60)
        rc = main(["classify", "--input", path, "--methods", "magic",
                   "--output", str(tmp_path / "r.json")])
        assert rc == 1
        assert "unknown method 'magic'" in capsys.readouterr().err

    def test_strategy_one_enters_code_implied_i2_series(self, tmp_path):
        path = _simulate(tmp_path, n0=1, n1=1, n2=1, t_obs=120)
        codes = _write_rows(tmp_path / "codes.csv",
                            [["s1", "1"], ["s2", "5"], ["s3", "6"]])
        out = tmp_path / "report.json"
        rc = main(["classify", "--input", path, "--codes", codes,
                   "--strategy", "1", "--output", str(out),
                   "--boot-reps", "199", "--seed", "4"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["strategy"] == 1
        assert all([t["hypothesis"] for t in entry["rounds"]]
                   == ["unit root in entered form"] for entry in doc["series"])
        orders = _orders(out)
        # s3 (code 6) is tested in first differences: I(1) or I(2);
        # the others are assumed at most I(1)
        assert orders["s3"] in (1, 2)
        assert orders["s1"] in (0, 1)
        assert orders["s2"] in (0, 1)

    def test_strategy_one_without_codes_is_usage_error(self, tmp_path,
                                                        capsys):
        path = _simulate(tmp_path, t_obs=60)
        rc = main(["classify", "--input", path, "--strategy", "1",
                   "--output", str(tmp_path / "r.json")])
        assert rc == 1
        assert "--codes" in capsys.readouterr().err


class TestForecastCommand:
    def test_benchmark_only_rel_msfe_is_one(self, tmp_path):
        path = _simulate(tmp_path)
        out = tmp_path / "fc.json"
        rc = main(["forecast", "--input", path, "--output", str(out),
                   "--window", "60", "--methods", "ar", "--boot-reps",
                   "199", "--seed", "1"])
        assert rc == 0
        doc = json.loads(out.read_text())
        for cell in doc["results"]:
            assert cell["methods"]["ar"]["rel_msfe"] == 1.0

    def test_json_and_csv_written(self, tmp_path):
        path = _simulate(tmp_path)
        rc = main(["forecast", "--input", path, "--output",
                   str(tmp_path / "fc"), "--window", "60", "--methods",
                   "ar,var", "--boot-reps", "199", "--seed", "1"])
        assert rc == 0
        doc = json.loads((tmp_path / "fc.json").read_text())
        names = set(doc["results"][0]["methods"])
        assert names == {"ar", "var"}
        header = (tmp_path / "fc.csv").read_text().splitlines()[0]
        assert header.startswith("target,horizon,method")

    def test_benchmark_prepended_when_missing(self, tmp_path):
        path = _simulate(tmp_path)
        out = tmp_path / "fc.json"
        rc = main(["forecast", "--input", path, "--output", str(out),
                   "--window", "60", "--methods", "var", "--boot-reps",
                   "199", "--seed", "1"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "ar" in doc["results"][0]["methods"]

    def test_identical_invocations_identical_bytes(self, tmp_path):
        path = _simulate(tmp_path)
        args = ["forecast", "--input", path, "--window", "60", "--methods",
                "ar,var", "--boot-reps", "199", "--seed", "9"]
        assert main(args + ["--output", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--output", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--boot-reps", "0"), ("--boot-reps", "-3"), ("--gamma", "1.5")])
    def test_multiplier_settings_are_usage_errors(self, tmp_path, flag,
                                                  value):
        path = _simulate(tmp_path)
        rc = main(["forecast", "--input", path, "--window", "60",
                   "--methods", "ar", flag, value,
                   "--output", str(tmp_path / "fc.json")])
        assert rc == 1

    def test_alpha_out_of_range_names_the_flag(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = main(["forecast", "--input", path, "--alpha", "1.5",
                   "--output", str(tmp_path / "fc.json")])
        assert rc == 1
        assert "--alpha" in capsys.readouterr().err

    def test_window_too_small_is_usage_error(self, tmp_path):
        path = _simulate(tmp_path)
        rc = main(["forecast", "--input", path, "--window", "10",
                   "--output", str(tmp_path / "fc.json")])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [
        ("--max-lags", "-1"), ("--factors", "-1"),
        ("--methods", "ar,var,var"), ("--targets", "s1,s1"),
        # the simulated panel has 3 series to extract factors from
        ("--factors", "4"), ("--factors", "9")])
    def test_bad_settings_stop_before_any_window(self, tmp_path, capsys,
                                                 flag, value):
        path = _simulate(tmp_path)
        out = tmp_path / "fc.json"
        rc = main(["forecast", "--input", path, "--window", "60",
                   "--methods", "ar,var,ml,fecm", "--factors", "1",
                   flag, value, "--boot-reps", "199", "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestNowcastCommand:
    def test_system_method_rejected(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = main(["nowcast", "--input", path, "--methods", "ar,var",
                   "--output", str(tmp_path / "nc.json")])
        assert rc == 1
        assert "single-equation" in capsys.readouterr().err

    def test_system_benchmark_rejected(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = main(["nowcast", "--input", path, "--benchmark", "var",
                   "--output", str(tmp_path / "nc.json")])
        assert rc == 1
        assert "single-equation" in capsys.readouterr().err

    def test_horizon_zero_report(self, tmp_path):
        path = _simulate(tmp_path)
        out = tmp_path / "nc.json"
        rc = main(["nowcast", "--input", path, "--output", str(out),
                   "--window", "60", "--boot-reps", "199", "--seed", "2"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert {cell["horizon"] for cell in doc["results"]} == {0}

    def test_alpha_out_of_range_names_the_flag(self, tmp_path, capsys):
        path = _simulate(tmp_path)
        rc = main(["nowcast", "--input", path, "--alpha", "0",
                   "--output", str(tmp_path / "nc.json")])
        assert rc == 1
        assert "--alpha" in capsys.readouterr().err

    def test_explicit_nonzero_horizon_rejected(self, tmp_path):
        path = _simulate(tmp_path)
        rc = main(["nowcast", "--input", path, "--horizons", "1",
                   "--output", str(tmp_path / "nc.json")])
        assert rc == 1


class TestMcsCommand:
    def _loss_file(self, tmp_path, rng):
        rows = [["good", "bad"]]
        for _ in range(60):
            base = float(rng.standard_normal() ** 2)
            rows.append([repr(base), repr(base + 4.0)])
        return _write_rows(tmp_path / "loss.csv", rows)

    def test_dominated_method_dropped(self, tmp_path, rng):
        path = self._loss_file(tmp_path, rng)
        out = tmp_path / "mcs.json"
        rc = main(["mcs", "--input", path, "--output", str(out),
                   "--boot-reps", "199", "--seed", "3"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["members"] == ["good"]
        assert doc["eliminated"] == ["bad"]
        assert doc["pvalues"]["good"] == 1.0
        assert doc["alpha"] == 0.10

    @pytest.mark.parametrize("flag, value", [
        ("--boot-reps", "0"), ("--boot-reps", "-3"), ("--gamma", "1.5")])
    def test_multiplier_settings_are_usage_errors(self, tmp_path, rng, flag,
                                                  value):
        path = self._loss_file(tmp_path, rng)
        rc = main(["mcs", "--input", path, flag, value,
                   "--output", str(tmp_path / "mcs.json")])
        assert rc == 1

    def test_non_numeric_losses(self, tmp_path):
        path = _write_rows(tmp_path / "loss.csv",
                           [["a", "b"]] + [["1.0", "x"]] * 40)
        rc = main(["mcs", "--input", path,
                   "--output", str(tmp_path / "m.json")])
        assert rc == 2

    def test_repeated_header_is_data_error(self, tmp_path, rng, capsys):
        rows = [["a", "b", "a"]] + [
            [repr(float(v)) for v in rng.standard_normal(3) ** 2]
            for _ in range(40)]
        path = _write_rows(tmp_path / "loss.csv", rows)
        out = tmp_path / "m.json"
        rc = main(["mcs", "--input", path, "--output", str(out)])
        assert rc == 2
        assert "duplicate method name 'a' (columns 1 and 3)" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_ragged_loss_row(self, tmp_path):
        path = _write_rows(tmp_path / "loss.csv",
                           [["a", "b"], ["1.0"]])
        rc = main(["mcs", "--input", path,
                   "--output", str(tmp_path / "m.json")])
        assert rc == 2
