import json

import numpy as np
import pytest

from fermiwire.cli import main
from fermiwire.harness import (
    ConfigError,
    ResultTable,
    build_config,
    emit,
    load_config,
    parse_config_text,
    render_csv,
    render_json,
    run,
)


def make_config(text):
    return build_config(parse_config_text(text))


# ---------------------------------------------------------------- loading


def test_minimal_config_fills_and_echoes_defaults():
    cfg = make_config("experiment = Dispersion\nN = 64\n")
    assert cfg.experiment == "Dispersion"
    assert cfg.params["N"] == 64
    assert cfg.applied_defaults == {"c": 9.0, "kappa": 1.0, "nu": 2.0,
                                    "epsilon": 0.01}


def test_config_comments_and_blank_lines():
    cfg = make_config("# a comment\n\nexperiment = Dispersion\nN = 8\n")
    assert cfg.params["N"] == 8


def test_duplicate_key_names_the_key():
    with pytest.raises(ConfigError, match="duplicate key 'N'"):
        parse_config_text("experiment = Packet\nN = 64\nN = 128\n")


def test_unknown_key_names_the_key():
    with pytest.raises(ConfigError, match="unknown key 'sigma'"):
        parse_config_text("experiment = Packet\nsigma = 2\n")


def test_type_mismatch_names_the_key():
    with pytest.raises(ConfigError, match="'N' expects an integer"):
        parse_config_text("experiment = Packet\nN = sixty\n")


def test_divisibility_enforced_for_carrier_experiments():
    with pytest.raises(ConfigError, match="divisible by 4"):
        make_config("experiment = Packet\nN = 62\n")
    # dispersion has no carrier requirement
    make_config("experiment = Dispersion\nN = 62\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required keys"):
        make_config("experiment = ErrorBudget\nN = 64\n")


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        make_config("experiment = Nonsense\nN = 64\n")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = Dispersion\nN = 16\nseed = 3\n")
    cfg = load_config(path)
    assert cfg.seed == 3
    assert cfg.params["N"] == 16


# ---------------------------------------------------------------- running


def test_dispersion_table_shape():
    cfg = make_config("experiment = Dispersion\nN = 64\n")
    table = run(cfg)
    assert table.columns == ["k", "omega", "group_velocity"]
    assert len(table.rows) == 64
    assert table.meta["config"]["N"] == 64
    assert "wall_time_s" in table.meta


def test_run_is_deterministic_byte_for_byte():
    cfg = make_config("experiment = Transit\nN = 256\nseed = 5\n")
    a = render_csv(run(cfg))
    b = render_csv(run(cfg))
    assert a == b


def test_min_wait_sweep_tolerates_failed_points():
    # an unreachable target produces error-tagged rows, not an exception
    cfg = make_config(
        "experiment = MinWaitSweep\nn_min = 256\nn_max = 512\nM = 4\n"
        "epsilon = 1e-20\n"
    )
    table = run(cfg)
    assert len(table.rows) == 2
    for row in table.rows:
        assert row[3] != ""
        assert np.isnan(row[1])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_failed_sweep_points_emit_strict_json(tmp_path, capsys):
    args = ["min-wait-sweep", "--set", "n_min=16", "--set", "n_max=64",
            "--set", "M=4", "--set", "epsilon=1e-12"]
    assert main(args + ["--format", "json"]) == 0
    loaded = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert loaded["columns"]["t_star"] == [None, None, None]
    assert all(loaded["columns"]["error"])
    out = tmp_path / "sweep.csv"
    assert main(args + ["--out", str(out)]) == 0
    json.loads(
        (tmp_path / "sweep.csv.meta.json").read_text(), parse_constant=_reject_constant
    )
    # CSV cells keep the nan spelling of a failed point
    assert out.read_text().splitlines()[1].split(",")[1:3] == ["nan", "nan"]


def test_oracle_bounds_all_satisfied():
    cfg = make_config("experiment = OracleBounds\nN = 10\nM = 2\n")
    table = run(cfg)
    assert len(table.rows) == 20
    assert table.meta["all_satisfied"] is True
    assert all(row[4] for row in table.rows)


def test_tjcheck_rows_satisfied():
    cfg = make_config("experiment = TJCheck\nN = 10\nJ = 1\n")
    table = run(cfg)
    assert [row[0] for row in table.rows] == [0.1, 0.5, 1.0]
    assert all(row[3] for row in table.rows)
    assert table.meta["violations"] == []


def test_rate_fit_emits_single_summary_row():
    cfg = make_config(
        "experiment = RateFit\nn_min = 256\nn_max = 8192\nM = 4\n"
    )
    table = run(cfg)
    assert table.columns == ["exponent", "intercept", "r_squared", "n_samples"]
    assert len(table.rows) == 1
    exponent, _, r2, count = table.rows[0]
    assert 0.26 <= exponent <= 0.40
    assert r2 >= 0.9
    assert count == 6


def test_oracle_protocol_experiment():
    cfg = make_config("experiment = OracleProtocol\nN = 8\nM = 1\n")
    table = run(cfg)
    assert table.columns == ["register", "input", "fidelity"]
    assert len(table.rows) == 6
    assert table.meta["bound_satisfied"] is True


def test_packet_experiment_shape():
    cfg = make_config("experiment = Packet\nN = 64\n")
    table = run(cfg)
    assert len(table.rows) == 64
    assert table.meta["spectral_leakage"] <= np.exp(-9.0) * 1.5


def test_broadening_experiment_rows():
    cfg = make_config("experiment = Broadening\nN = 512\n")
    table = run(cfg)
    assert table.columns[:3] == ["t", "measured_ratio", "predicted_ratio"]
    assert all(row[3] < 0.15 for row in table.rows)


def test_overlap_decay_experiment_fit_meta():
    cfg = make_config("experiment = OverlapDecay\nn_min = 512\nn_max = 1024\n")
    table = run(cfg)
    assert table.meta["r_squared"] >= 0.95
    assert len(table.rows) == 20


def test_error_budget_experiment_row():
    cfg = make_config("experiment = ErrorBudget\nN = 256\nM = 2\n")
    table = run(cfg)
    (row,) = table.rows
    by = dict(zip(table.columns, row))
    assert by["eps_e"] >= 0 and by["eps_p"] >= 0 and by["eps_d"] >= 0
    if not by["clamped"]:
        total = by["fidelity_bound"] + by["eps_e"] + by["eps_p"] + by["eps_d"]
        assert np.isclose(total, 1.0, atol=1e-12)


# ---------------------------------------------------------------- emission


def test_empty_table_renders_header_only():
    table = ResultTable(columns=["a", "b"], rows=[], meta={})
    assert render_csv(table) == "a,b\r\n"


def test_csv_17_digit_round_trip(tmp_path):
    value = 0.1234567890123456789
    table = ResultTable(columns=["x"], rows=[[value]], meta={"config": {}})
    path = tmp_path / "out.csv"
    emit(table, path, "csv")
    text = path.read_text()
    line = text.splitlines()[1]
    assert float(line) == value
    sidecar = tmp_path / "out.csv.meta.json"
    assert sidecar.exists()


def test_json_round_trip(tmp_path):
    cfg = make_config("experiment = Dispersion\nN = 8\n")
    table = run(cfg)
    path = tmp_path / "out.json"
    emit(table, path, "json")
    loaded = json.loads(path.read_text())
    assert loaded["columns"]["omega"] == [row[1] for row in table.rows]
    assert loaded["meta"]["config"]["N"] == 8


def test_json_determinism_modulo_wall_time():
    cfg = make_config("experiment = Dispersion\nN = 16\n")
    a = json.loads(render_json(run(cfg)))
    b = json.loads(render_json(run(cfg)))
    a["meta"].pop("wall_time_s")
    b["meta"].pop("wall_time_s")
    assert a == b


def test_emit_rejects_unknown_format(tmp_path):
    table = ResultTable(columns=["a"], rows=[], meta={})
    with pytest.raises(ValueError):
        emit(table, tmp_path / "x", "yaml")


def test_emit_surfaces_io_failure_with_path(tmp_path):
    table = ResultTable(columns=["a"], rows=[], meta={})
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    with pytest.raises(RuntimeError, match="out.csv"):
        emit(table, missing, "csv")


def test_transit_experiment_meta_speed():
    cfg = make_config("experiment = Transit\nN = 1024\n")
    table = run(cfg)
    meta = table.meta
    rel = abs(meta["angular_speed_measured"] - meta["angular_speed_formula"])
    assert rel / meta["angular_speed_formula"] < 0.03
    assert meta["transit_nominal"] < meta["arrival_time"]


# ---------------------------------------------------------------- cli


def test_cli_writes_csv(tmp_path):
    out = tmp_path / "disp.csv"
    code = main(["dispersion", "--set", "N=8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,omega,group_velocity"
    assert len(lines) == 9


def test_cli_config_plus_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = Dispersion\nN = 8\n")
    out = tmp_path / "disp.json"
    code = main(
        ["dispersion", "--config", str(cfg), "--set", "N=12", "--seed", "2",
         "--out", str(out), "--format", "json"]
    )
    assert code == 0
    loaded = json.loads(out.read_text())
    assert loaded["meta"]["config"]["N"] == 12
    assert loaded["meta"]["config"]["seed"] == 2


def test_cli_subcommand_experiment_mismatch(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = Packet\nN = 8\n")
    code = main(["dispersion", "--config", str(cfg)])
    assert code == 1


def test_cli_reports_bad_key():
    code = main(["dispersion", "--set", "bogus=1"])
    assert code == 1


def test_cli_honors_config_output_path(tmp_path):
    out = tmp_path / "from-config.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment = Dispersion\nN = 8\noutput = {out}\n")
    assert main(["dispersion", "--config", str(cfg)]) == 0
    assert out.exists()


def test_tjcheck_single_s_override():
    cfg = make_config("experiment = TJCheck\nN = 10\nJ = 1\ns = 0.25\n")
    table = run(cfg)
    assert [row[0] for row in table.rows] == [0.25]
    assert table.rows[0][3]
