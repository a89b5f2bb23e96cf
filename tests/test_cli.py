import csv
import json
import math

import pytest

from covertuav import cli
from covertuav.cli import (
    cmd_run,
    cmd_sweep,
    cmd_validate,
    load_sweep,
    main,
    parse_sweep_text,
)
from covertuav.scenario import ConfigParseError

SMALL_CFG = """\
# shrunk scenario for fast end-to-end checks
flight_period     = 24 s
slot_duration     = 1 s
altitude          = 100 m
v_max             = 5 m/s
q_init            = -50, 10 m
q_final           = 50, 10 m
bob_est           = -10, 30 m
willie_est        = 10, 30 m
var_bob           = 25 m^2
var_willie        = 25 m^2
beta0             = -60 dB
gamma0            = 80 dB
p_avg_max         = 20 dBm
p_peak_max        = 0.4 W
noise_nominal     = -120 dBm
noise_uncertainty = 3 dB
rho_b             = 0.05
rho_w             = 0.05
sca_tolerance     = 1e-4
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(SMALL_CFG, encoding="utf-8")
    return p


def fmt12(x: float) -> float:
    return float(f"{x:.12g}")


def blocked_dir(tmp_path):
    """An output directory that cannot be created: its parent is a file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    return str(blocker / "out")


class TestRun:
    def test_writes_outputs_and_exits_zero(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(cfg_path, out, scheme="JTP", mc_samples=5_000) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["num_slots"] == 24
        assert plan["scheme"] == "JTP"
        assert plan["stop_reason"] == "converged"
        assert len(plan["trajectory_m"]) == 24
        assert len(plan["power_w"]) == 24
        with (out / "trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["iter"] == "0"
        assert float(rows[-1]["actr_bps_hz"]) == pytest.approx(plan["actr_bps_hz"], rel=1e-9)
        # each solve's Newton steps and dual residual, none before the first
        assert rows[0]["newton_steps"] == rows[0]["dual_residual"] == ""
        assert len(rows) == plan["subproblem_solves"] + 1
        assert all(int(r["newton_steps"]) > 0 for r in rows[1:])
        assert all(0.0 <= float(r["dual_residual"]) < math.inf for r in rows[1:])
        val = json.loads((out / "validation.json").read_text())
        assert val["passed"] is True

    def test_floats_capped_at_twelve_digits(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        cmd_run(cfg_path, out, scheme="STP")

        def walk(obj):
            if isinstance(obj, float):
                assert obj == fmt12(obj)
            elif isinstance(obj, dict):
                for v in obj.values():
                    walk(v)
            elif isinstance(obj, list):
                for v in obj:
                    walk(v)

        walk(json.loads((out / "plan.json").read_text()))

    def test_missing_config_exits_one(self, tmp_path, capsys):
        rc = cmd_run(tmp_path / "nope.cfg", tmp_path / "o")
        assert rc == 1
        assert "nope.cfg" in capsys.readouterr().err

    def test_unreachable_endpoints_exit_two(self, tmp_path, capsys):
        bad = SMALL_CFG.replace("flight_period     = 24 s", "flight_period     = 10 s")
        p = tmp_path / "bad.cfg"
        p.write_text(bad, encoding="utf-8")
        rc = cmd_run(p, tmp_path / "o")
        assert rc == 2
        assert "cover" in capsys.readouterr().err  # names the mobility budget

    def test_bad_unit_exits_one(self, tmp_path, capsys):
        bad = SMALL_CFG.replace("20 dBm", "20 volts")
        p = tmp_path / "bad.cfg"
        p.write_text(bad, encoding="utf-8")
        rc = cmd_run(p, tmp_path / "o")
        assert rc == 1
        assert "p_avg_max" in capsys.readouterr().err

    def test_repeated_config_key_exits_one(self, tmp_path, capsys):
        # a repeated key is an error naming both lines, not an override
        p = tmp_path / "twice.cfg"
        p.write_text(SMALL_CFG + "rho_w = 0.2\n", encoding="utf-8")
        rc = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'rho_w'" in err and "lines 19 and 21" in err

    def test_uncreatable_out_dir_exits_one(self, cfg_path, tmp_path, capsys):
        rc = main(["run", "--config", str(cfg_path), "--out", blocked_dir(tmp_path)])
        assert rc == 1
        assert "cannot create output dir" in capsys.readouterr().err


class TestSweep:
    def test_rows_in_spec_order(self, cfg_path, tmp_path):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text(
            "param = T\nvalues = 24 s, 26 s\nschemes = JTP, STP\n", encoding="utf-8")
        out = tmp_path / "sw"
        assert cmd_sweep(cfg_path, sweep, out) == 0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["scheme"]) for r in rows] == [
            ("24", "JTP"), ("24", "STP"), ("26", "JTP"), ("26", "STP")]
        for r in rows:
            assert r["feasible"] == "true"
            assert float(r["actr_bps_hz"]) > 0
            assert float(r["min_xi_margin"]) > -1e-9

    def test_deterministic_output_bytes(self, cfg_path, tmp_path):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("param = T\nvalues = 24 s\nschemes = STP\n", encoding="utf-8")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cmd_sweep(cfg_path, sweep, out1)
        cmd_sweep(cfg_path, sweep, out2)
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_worker_pool_matches_serial(self, cfg_path, tmp_path):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("param = T\nvalues = 24 s, 26 s\nschemes = STP\n",
                         encoding="utf-8")
        out1, out2 = tmp_path / "serial", tmp_path / "pool"
        cmd_sweep(cfg_path, sweep, out1, workers=1, mc_samples=2_000)
        cmd_sweep(cfg_path, sweep, out2, workers=2, mc_samples=2_000)
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        with (out2 / "sweep.csv").open() as fh:
            assert all(r["max_outage_mc"] != "" for r in csv.DictReader(fh))

    @pytest.mark.parametrize("workers, audit_threads", [(0, 0), (1, 0), (2, 1)])
    def test_pooled_cells_audit_on_one_thread(self, cfg_path, tmp_path, monkeypatch,
                                              workers, audit_threads):
        # a k-process sweep must start k audit threads, not k x CPUs; serial
        # sweeps keep the default. The pool is replaced by an in-process map so
        # that the cells' settings can be seen.
        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        seen = []

        def record(plan, cfg, mc):
            seen.append(mc.workers)
            return real_validate(plan, cfg, mc)

        real_validate = cli.validate_plan
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "validate_plan", record)
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("param = T\nvalues = 24 s\nschemes = STP\n", encoding="utf-8")
        assert cmd_sweep(cfg_path, sweep, tmp_path / "sw", workers=workers,
                         mc_samples=1_000) == 0
        assert seen == [audit_threads]

    def test_cell_failure_recorded_and_run_continues(self, cfg_path, tmp_path, capsys):
        sweep = tmp_path / "sweep.cfg"
        # 10 s cannot cover the 100 m between the endpoints
        sweep.write_text("param = T\nvalues = 10 s, 24 s\nschemes = STP\n",
                         encoding="utf-8")
        out = tmp_path / "sw"
        rc = cmd_sweep(cfg_path, sweep, out)
        assert rc == 2
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] != "" and rows[0]["feasible"] == "false"
        assert rows[1]["error"] == "" and float(rows[1]["actr_bps_hz"]) > 0

    def test_repeated_key_exits_one(self, cfg_path, tmp_path, capsys):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("param = T\nvalues = 24 s\nschemes = STP\nparam = rho_w\n",
                         encoding="utf-8")
        rc = main(["sweep", "--config", str(cfg_path), "--sweep", str(sweep),
                   "--out", str(tmp_path / "sw")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'param'" in err and "lines 1 and 4" in err

    def test_unknown_key_exits_one(self, cfg_path, tmp_path, capsys):
        # a misspelt mc_validate must not turn validation off unnoticed
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("param = T\nvalues = 24 s\nschemes = STP\nmc_validat = true\n",
                         encoding="utf-8")
        rc = main(["sweep", "--config", str(cfg_path), "--sweep", str(sweep),
                   "--out", str(tmp_path / "sw")])
        assert rc == 1
        assert "'mc_validat': unknown key" in capsys.readouterr().err

    def test_uncreatable_out_dir_exits_one(self, cfg_path, tmp_path, capsys):
        sweep = tmp_path / "sweep.cfg"
        sweep.write_text("param = T\nvalues = 24 s\nschemes = STP\n", encoding="utf-8")
        rc = main(["sweep", "--config", str(cfg_path), "--sweep", str(sweep),
                   "--out", blocked_dir(tmp_path)])
        assert rc == 1
        assert "cannot create output dir" in capsys.readouterr().err

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigParseError, match="not sweepable"):
            parse_sweep_text("param = altitude\nvalues = 1\nschemes = JTP\n")

    def test_unit_aware_values(self):
        spec = parse_sweep_text(
            "param = p_avg\nvalues = 20 dBm, 0.2 W\nschemes = JTP\nmc_validate = true\n")
        assert spec.values == (pytest.approx(0.1), 0.2)
        assert spec.mc_validate is True


class TestValidateCommand:
    @pytest.fixture()
    def run_dir(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert cmd_run(cfg_path, out, scheme="JTP") == 0
        return out

    def test_pass_exit_zero(self, cfg_path, run_dir, tmp_path):
        rc = cmd_validate(run_dir / "plan.json", cfg_path, tmp_path / "v",
                          mc_samples=20_000)
        assert rc == 0
        rep = json.loads((tmp_path / "v" / "validation.json").read_text())
        assert rep["passed"] is True

    def test_tampered_power_fails_covertness(self, cfg_path, run_dir, tmp_path, capsys):
        plan = json.loads((run_dir / "plan.json").read_text())
        plan["power_w"][5] *= 10.0
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(plan), encoding="utf-8")
        rc = cmd_validate(bad, cfg_path, tmp_path / "v", mc_samples=20_000)
        assert rc == 2
        assert "covertness" in capsys.readouterr().err
        rep = json.loads((tmp_path / "v" / "validation.json").read_text())
        assert rep["covert_ok"] is False
        assert rep["willie_error_mean"][5] < 0.95

    def test_zero_power_plan_trivially_covert_but_out(self, cfg_path, run_dir,
                                                      tmp_path, capsys):
        plan = json.loads((run_dir / "plan.json").read_text())
        n = plan["num_slots"]
        plan["power_w"] = [0.0] * n
        plan["rate_bps_hz"] = [1e-6] * n
        plan["xi_lower_bound"] = [1.0] * n
        zp = tmp_path / "zero.json"
        zp.write_text(json.dumps(plan), encoding="utf-8")
        rc = cmd_validate(zp, cfg_path, tmp_path / "v", mc_samples=5_000)
        assert rc == 2
        rep = json.loads((tmp_path / "v" / "validation.json").read_text())
        assert rep["covert_ok"] is True
        assert rep["outage_ok"] is False
        assert max(rep["outage_probability"]) == 1.0

    def test_slot_mismatch_exits_one(self, run_dir, tmp_path, capsys):
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("24 s", "26 s"), encoding="utf-8")
        rc = cmd_validate(run_dir / "plan.json", other, tmp_path / "v")
        assert rc == 1
        assert "slots" in capsys.readouterr().err

    def test_uncreatable_out_dir_exits_one(self, cfg_path, run_dir, tmp_path, capsys,
                                           monkeypatch):
        # the directory is checked before the audit, which never starts
        def no_audit(*args, **kwargs):
            raise AssertionError("validate_plan called before the output dir check")

        monkeypatch.setattr(cli, "validate_plan", no_audit)
        rc = main(["validate", "--plan", str(run_dir / "plan.json"), "--config",
                   str(cfg_path), "--out", blocked_dir(tmp_path), "--mc-samples", "1000"])
        assert rc == 1
        assert "cannot create output dir" in capsys.readouterr().err

    def test_malformed_plan_exits_one(self, cfg_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cmd_validate(bad, cfg_path, tmp_path / "v") == 1


class TestMainEntry:
    def test_run_subcommand(self, cfg_path, tmp_path):
        rc = main(["run", "--config", str(cfg_path), "--out",
                   str(tmp_path / "m"), "--scheme", "STP"])
        assert rc == 0

    def test_sweep_file_loader(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("param = rho_w\nvalues = 0.05, 0.1\nschemes = JTP\n",
                     encoding="utf-8")
        spec = load_sweep(p)
        assert spec.param == "rho_w"
        assert spec.values == (0.05, 0.1)
