import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermiwire
from fermiwire import fock, harness
from fermiwire.cli import main, parse_args
from fermiwire.harness import (
    EXPERIMENTS,
    ConfigError,
    ResultTable,
    build_config,
    emit,
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
    assert cfg.applied_defaults == {}
    cfg = make_config("experiment = ErrorBudget\nN = 64\nM = 2\n")
    assert cfg.applied_defaults == {"c": 9.0, "kappa": 1.0, "epsilon": 0.01}
    assert cfg.params == {"N": 64, "M": 2, **cfg.applied_defaults}


def test_build_config_leaves_its_argument_unchanged():
    values = {"experiment": "OracleBounds", "N": 10, "M": 2, "seed": 3, "output": "x.csv"}
    before = dict(values)
    first, second = build_config(values), build_config(values)
    assert values == before
    assert (first.params, first.seed, first.output) == (second.params, 3, "x.csv")


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


# golden CSV -> (subcommand, --set values); a change that moves these bytes
# on purpose regenerates the file and says why
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "dispersion.csv": ("dispersion", "N=16"),
    "packet.csv": ("packet", "N=64"),
    "transit.csv": ("transit", "N=64"),
    "broadening.csv": ("broadening", "N=64"),
    "overlap-decay.csv": ("overlap-decay", "n_min=64", "n_max=256"),
    "error-budget.csv": ("error-budget", "N=1024", "M=4"),
    "min-wait-sweep.csv": ("min-wait-sweep", "n_min=256", "n_max=1024", "M=4"),
    "rate-fit.csv": ("rate-fit", "n_min=256", "n_max=1024", "M=4"),
    "oracle-protocol.csv": ("oracle-protocol", "N=8", "M=2"),
    "oracle-protocol-t1.5.csv": ("oracle-protocol", "N=12", "M=2", "t=1.5"),
    "oracle-bounds.csv": ("oracle-bounds", "N=8", "M=2"),
    "tj-check.csv": ("tj-check", "N=8", "J=1"),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_cli_csv_matches_golden_bytes(name, tmp_path):
    command, *settings = GOLDEN_RUNS[name]
    out = tmp_path / name
    argv = [command, "--out", str(out)]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_runs_cover_every_subcommand():
    assert {runs[0] for runs in GOLDEN_RUNS.values()} == set(EXPERIMENTS)
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(GOLDEN_RUNS)


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
    # M = 1 has no wait between encodings, yet it runs once per wait too;
    # N = 1024 is far past the reach of a Fock space on the sites
    for n, m in ((8, 1), (10, 1), (10, 2), (1024, 4)):
        cfg = make_config(f"experiment = OracleBounds\nN = {n}\nM = {m}\n")
        table = run(cfg)
        assert len(table.rows) == 20
        assert table.meta["all_satisfied"] is True
        assert all(row[4] for row in table.rows)


def test_oracle_bounds_builds_the_reference_side_once_per_packet_width(monkeypatch):
    calls = {"ModeOperator": 0, "propagate": 0, "encoding_error_bound": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fock.ModeOperator, "__init__",
                        counted("ModeOperator", fock.ModeOperator.__init__))
    for name in ("propagate", "encoding_error_bound"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    m = 2
    table = run(make_config(f"experiment = OracleBounds\nN = 8\nM = {m}\n"))
    widths = len({row[1] for row in table.rows})
    waits = len({row[0] for row in table.rows})
    assert (widths, waits) == (4, 5)
    # modes and bounds come as arrays; the 20 points are the columns of one
    # block, whose run has one encoder per signal and whose ideal product
    # one creator per signal
    assert calls == {"ModeOperator": 2 * m, "propagate": widths,
                     "encoding_error_bound": widths}


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
    assert table.meta["fidelity_bound"] > 0.0
    assert table.meta["bound_vacuous"] is False


def _register1_closed_form_gap(meta):
    # one signal in the wire at a time: register 1 loses only the decode
    # deficit, whose six-state average is 1/2 + a/3 + a^2/6, a = 1 - eps_d
    a = 1.0 - meta["eps_d"]
    return abs(meta["average_fidelity"]["1"] - (0.5 + a / 3.0 + a**2 / 6.0))


def test_oracle_protocol_default_plan_closed_form_and_vacuous_bound():
    meta = run(make_config("experiment = OracleProtocol\nN = 16\nM = 3\n")).meta
    assert _register1_closed_form_gap(meta) < 1e-9
    # eps_e alone exceeds 1, so the bound is clamped to 0 and holds trivially
    assert meta["eps_e"] > 1.0
    assert meta["fidelity_bound"] == 0.0
    assert meta["bound_satisfied"] is True
    assert meta["bound_vacuous"] is True
    # sequential: nothing to correct, so the channel is the uncorrected one
    assert meta["exchange_cz_pairs"] == []
    assert meta["average_fidelity_raw"] == meta["average_fidelity"]


@pytest.mark.parametrize("n, half_decode", [(24, 2.75), (32, 3.75)])
def test_oracle_protocol_pipelined_exchange_correction(n, half_decode):
    # wait T/2: signal 2 is in the wire when signal 1 is decoded, so a_h
    # picks up (-1)^{n_2}; uncorrected, X and Y inputs dephase to about 2/3
    text = f"experiment = OracleProtocol\nN = {n}\nM = 2\nt = {half_decode}\n"
    meta = run(make_config(text)).meta
    assert meta["wait"] == pytest.approx(meta["decode_time"] / 2)
    bound = meta["fidelity_bound"]
    assert bound >= 0.5
    assert meta["bound_vacuous"] is False
    assert meta["exchange_cz_pairs"] == [[1, 2]]
    assert all(f >= bound for f in meta["average_fidelity"].values())
    assert all(f < bound for f in meta["average_fidelity_raw"].values())
    assert meta["bound_satisfied"] is True


def test_oracle_protocol_csv_keeps_its_float_time_bytes():
    # the README command's rows as the orbital frame writes them; the site
    # frame's evolver wrote the same values to within 2.3e-16, and the
    # register-tensor layout wrote 0.91554380270030711 for register 2's x
    # inputs too
    table = run(make_config("experiment = OracleProtocol\nN = 10\nM = 2\n"))
    one, plus = "0.99999999999999956", "0.91554380270030711"
    first, x2 = "0.91554380270030722", "0.915543802700307"
    assert render_csv(table).splitlines() == [
        "register,input,fidelity",
        f"1,z+,{one}", "1,z-,0.69070660785053017",
        f"1,x+,{first}", f"1,x-,{first}", f"1,y+,{first}", f"1,y-,{first}",
        f"2,z+,{one}", "2,z-,0.73686751161399755",
        f"2,x+,{x2}", f"2,x-,{x2}", f"2,y+,{plus}", f"2,y-,{plus}",
    ]


def test_oracle_protocol_builds_no_evolver_and_no_site_basis(monkeypatch):
    sizes, evolvers = [], []
    basis = fock.fock_basis
    monkeypatch.setattr(fock, "fock_basis", lambda *a: sizes.append(a) or basis(*a))
    monkeypatch.setattr(fock.ExactEvolver, "__init__", lambda *a, **k: evolvers.append(a))
    # fock_dim counts the masks of 2M orbitals and 2M registers with at most
    # M bits set
    for n, m, dim in ((16, 3, 299), (16384, 4, 2517)):
        table = run(make_config(f"experiment = OracleProtocol\nN = {n}\nM = {m}\n"))
        assert (table.meta["orbitals"], table.meta["fock_dim"]) == (2 * m, dim)
        assert len(table.rows) == 6 * m
        assert sizes.pop() == (2 * m, m, m, m) and not sizes
    assert evolvers == []
    # the whole N=16384 run, with its error budget, in well under a second
    assert table.meta["wall_time_s"] < 1.0


def test_oracle_protocol_single_signal_closed_form():
    meta = run(make_config("experiment = OracleProtocol\nN = 12\nM = 1\n")).meta
    assert _register1_closed_form_gap(meta) < 1e-9


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
    assert by["eps_e"] >= 0 and by["eps_d"] >= 0
    if not by["clamped"]:
        total = by["fidelity_bound"] + by["eps_e"] + by["eps_d"]
        assert np.isclose(total, 1.0, atol=1e-12)


def test_error_budget_experiment_certifies_epsilon():
    cfg = make_config("experiment = ErrorBudget\nN = 1024\nM = 4\n")
    table = run(cfg)
    (row,) = table.rows
    by = dict(zip(table.columns, row))
    assert by["eps_e"] <= cfg.params["epsilon"] / 3.0
    assert by["fidelity_bound"] >= 1.0 - cfg.params["epsilon"]


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


def test_cli_set_cannot_name_another_experiment(capsys):
    argv = ["dispersion", "--set", "experiment=ErrorBudget", "--set", "N=1024", "--set", "M=4"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("fermiwire: error: config names experiment 'ErrorBudget' but "
                            "the subcommand selects 'Dispersion'\n")
    # naming the subcommand's own experiment is no conflict
    assert main(["dispersion", "--set", "experiment=Dispersion", "--set", "N=8"]) == 0


def test_cli_help_lists_every_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(EXPERIMENTS) + "}" in out


def test_cli_unknown_experiment_exits_with_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-experiment", "--set", "N=8"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-experiment'" in capsys.readouterr().err


def test_cli_help_flag_prints_the_same_text(capsys):
    texts = []
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(["dispersion", flag])
        assert exc.value.code == 0
        texts.append(capsys.readouterr())
    assert texts[0] == texts[1]
    assert texts[0].out.startswith("usage: fermiwire ") and texts[0].err == ""
    for option in ("--config", "--out", "--format", "--seed", "--set"):
        assert option in texts[0].out


@pytest.mark.parametrize("argv, message", [
    (["dispersion", "--bogus", "1"], "unrecognized arguments: --bogus"),
    (["dispersion", "--conf", "run.cfg"], "unrecognized arguments: --conf"),
    (["dispersion", "--out"], "argument --out: expected one argument"),
    (["dispersion", "--out", "--set", "N=8"], "argument --out: expected one argument"),
    (["dispersion", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["dispersion", "--format", "yaml"],
     "argument --format: invalid choice: 'yaml' (choose from 'csv', 'json')"),
    (["dispersion", "packet"], "unrecognized arguments: packet"),
    (["--set", "N=8"], "the following arguments are required: command"),
    ([], "the following arguments are required: command"),
], ids=["unknown-option", "abbreviation", "no-value", "option-as-value", "seed-not-int",
        "format-yaml", "second-positional", "no-command", "empty"])
def test_cli_usage_errors_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: fermiwire ")
    assert error == f"fermiwire: error: {message}"


def test_cli_options_take_equals_and_go_before_the_command(tmp_path):
    out = tmp_path / "disp.csv"
    args = parse_args([f"--out={out}", "--seed=-3", "--format=json", "dispersion", "--set=N=8"])
    assert (args.command, args.out, args.seed, args.format) == ("dispersion", str(out), -3, "json")
    assert args.overrides == ["N=8"]
    assert main([f"--out={out}", "--set=N=8", "dispersion"]) == 0
    assert out.read_text().splitlines()[0] == "k,omega,group_velocity"


def test_cli_set_with_a_line_break_sets_no_second_key(tmp_path, capsys):
    out = tmp_path / "disp.csv"
    assert main(["dispersion", "--set", "N=8\nseed=5", "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fermiwire: error: --set expects one KEY=VALUE, got 'N=8\\nseed=5'\n"


@pytest.mark.parametrize("argv", [
    ["dispersion", "--set", "#bogus=8", "--set", "N=8"],
    ["dispersion", "--set", "#N=8"],
], ids=["with-N", "commented-N"])
def test_cli_set_with_a_commented_key_is_refused(argv, tmp_path, capsys):
    # config text reads '#N = 8' as a comment, so the --set would set nothing
    out = tmp_path / "disp.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fermiwire: error: --set expects one KEY=VALUE, got {argv[2]!r}\n"


def test_readme_command_lines_parse():
    readme = Path(__file__).parents[1] / "README.md"
    lines = [ln.split() for ln in readme.read_text().splitlines()
             if ln.startswith("fermiwire ")]
    assert {words[1] for words in lines} == set(EXPERIMENTS)
    for words in lines:
        args = parse_args(words[1:])
        options = dict(zip(words[2::2], words[3::2]))
        assert args.command == words[1]
        assert args.overrides == [v for k, v in zip(words[2::2], words[3::2]) if k == "--set"]
        assert (args.out, args.format) == (options.get("--out"), options.get("--format", "csv"))


def test_cli_reports_bad_key():
    code = main(["dispersion", "--set", "bogus=1"])
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["oracle-protocol", "--set", "N=10", "--set", "M=2", "--set", "t=nan"],
     "key 't' expects a finite number, got 'nan'"),
    (["oracle-protocol", "--set", "N=10", "--set", "M=2", "--set", "t=inf"],
     "key 't' expects a finite number, got 'inf'"),
    (["tj-check", "--set", "N=10", "--set", "J=inf"],
     "key 'J' expects a finite number, got 'inf'"),
    (["error-budget", "--set", "N=64", "--set", "M=2", "--set", "epsilon=-NaN"],
     "key 'epsilon' expects a finite number, got '-NaN'"),
    (["rate-fit", "--set", "n_min=256", "--set", "n_max=1024", "--set", "M=0"],
     "M must be at least 1, got 0"),
    # keys the experiment never reads
    (["dispersion", "--set", "N=8", "--set", "J=5"],
     "experiment Dispersion does not read keys: ['J']"),
    (["oracle-protocol", "--set", "N=8", "--set", "M=1", "--set", "s=0.3"],
     "experiment OracleProtocol does not read keys: ['s']"),
    # values outside the range the experiment can use
    (["rate-fit", "--set", "n_min=256", "--set", "n_max=1024", "--set", "M=4",
      "--set", "epsilon=1.5"],
     "key 'epsilon' must lie in (0, 1), got 1.5"),
    (["min-wait-sweep", "--set", "n_min=256", "--set", "n_max=512", "--set", "M=4",
      "--set", "epsilon=-0.5"],
     "key 'epsilon' must lie in (0, 1), got -0.5"),
    (["packet", "--set", "N=64", "--set", "nu=2"],
     "line 1: unknown key 'nu'"),
    (["oracle-protocol", "--set", "N=8", "--set", "M=1", "--set", "t=0"],
     "key 't' must be positive, got 0.0"),
    # more signals than the oracle has sites, refused before any basis is built
    (["oracle-protocol", "--set", "N=4", "--set", "M=5"],
     "M = 5 exceeds N = 4; the oracle needs a site per signal"),
    (["oracle-bounds", "--set", "N=4", "--set", "M=5"],
     "M = 5 exceeds N = 4; the oracle needs a site per signal"),
], ids=["t-nan", "t-inf", "J-inf", "epsilon-nan", "M-0",
        "dispersion-J", "oracle-protocol-s",
        "epsilon-above-1", "epsilon-negative", "nu-unknown", "t-0",
        "oracle-protocol-M-above-N", "oracle-bounds-M-above-N"])
def test_cli_rejects_bad_numbers_before_running(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fermiwire: error: {message}\n"


def test_cli_refuses_a_ring_too_small_for_the_budget_regions(capsys):
    # the budget packet's support, 35 sites at c = 9, sets both regions
    assert main(["error-budget", "--set", "N=64", "--set", "M=4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "fermiwire: error: experiment ErrorBudget failed: regions of 35 sites "
        "overlap on an N = 64 ring; lower c = 9.0 or raise N\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["oracle-protocol", "--set", "N=64", "--set", "M=8"],
     "experiment OracleProtocol failed: M = 8 is past the exact oracle's reach: 16 orbitals "
     "and 16 registers exceed its basis limit (2000000 states, 64 bits)"),
    (["oracle-bounds", "--set", "N=64", "--set", "M=22"],
     "experiment OracleBounds failed: M = 22 is past the exact oracle's reach: 22 orbitals "
     "and 22 registers exceed its basis limit (2000000 states, 64 bits)"),
])
def test_cli_names_m_and_the_orbitals_past_the_oracle_reach(argv, message, capsys):
    # the orbital counts, 2M for the protocol and M for the encodings, are not N
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fermiwire: error: {message}\n"


# one small run of every subcommand
SMALL_RUNS = {
    "dispersion": ["N=8"],
    "packet": ["N=64"],
    "transit": ["N=64"],
    "broadening": ["N=64"],
    "overlap-decay": ["n_min=64", "n_max=128"],
    "error-budget": ["N=128", "M=2"],
    "min-wait-sweep": ["n_min=64", "n_max=128", "M=2"],
    "rate-fit": ["n_min=64", "n_max=256", "M=2"],
    "oracle-protocol": ["N=8", "M=1"],
    "oracle-bounds": ["N=8", "M=1"],
    "tj-check": ["N=8", "J=1"],
}

# scipy is a test-only dependency: with every scipy import blocked, the
# package imports and every subcommand still runs
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from fermiwire import cli

def loaded():
    return [m for m, mod in sys.modules.items()
            if m.split(".")[0] == "scipy" and mod is not None]

assert not loaded(), loaded()
runs, out = json.loads(sys.argv[1]), sys.argv[2]
for command, settings in runs.items():
    argv = [command, "--out", f"{out}/{command}.csv"]
    for item in settings:
        argv += ["--set", item]
    assert cli.main(argv) == 0, command
assert not loaded(), loaded()
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    assert list(SMALL_RUNS) == list(EXPERIMENTS)
    src = str(Path(fermiwire.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(SMALL_RUNS), str(tmp_path)],
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(
        f"{command}.csv" for command in SMALL_RUNS
    )


def test_cli_module_run_loads_no_argparse_gettext_or_locale():
    # argparse and the gettext and locale modules it pulls in are a fixed
    # start-up cost of every command; pytest itself imports argparse, so a
    # fresh `python -m` run lists its imports with -X importtime
    src = str(Path(fermiwire.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fermiwire.cli",
         "oracle-protocol", "--set", "N=10", "--set", "M=2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "register,input,fidelity"
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"numpy", "fermiwire.harness"} <= imported
    assert not imported & {"argparse", "gettext", "locale"}


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child_env(**chosen):
    """This environment without the BLAS thread variables, plus ``chosen``."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    return {**env, "PYTHONPATH": str(Path(fermiwire.__file__).parents[1]), **chosen}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="counts threads in /proc/self/task; needs 2 or more CPUs")
@pytest.mark.parametrize("chosen", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                         ids=["default", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_import_runs_blas_on_one_thread_unless_the_user_chose(chosen):
    # OpenBLAS starts a worker per extra core when numpy loads; the idle one
    # busy-waits on a second core, so the package asks for one thread
    code = ("import fermiwire, json, os; print(len(os.listdir('/proc/self/task'))); "
            f"print(json.dumps({{k: os.environ.get(k) for k in {_THREAD_VARIABLES!r}}}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=_child_env(**chosen))
    threads, variables = proc.stdout.splitlines()
    assert int(threads) == (2 if chosen else 1)
    assert json.loads(variables) == {k: None for k in _THREAD_VARIABLES} | (
        chosen or {"OPENBLAS_NUM_THREADS": "1"})


def test_large_n_bytes_do_not_depend_on_the_core_count():
    # threaded level-1 BLAS sums in another order, which moved eps_d's last
    # digits at N=16384 when the thread count followed the CPUs
    outputs = [
        subprocess.run([sys.executable, "-m", "fermiwire.cli", "error-budget",
                        "--set", "N=16384", "--set", "M=4"],
                       capture_output=True, check=True, env=_child_env(**chosen)).stdout
        for chosen in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"N,M,")


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


def test_tjcheck_attractive_coupling_bound_uses_abs_j():
    # the first-order bound is |s| |J| eps_i, so J = -1 passes exactly as J = 1
    rows = {j: run(make_config(f"experiment = TJCheck\nN = 10\nJ = {j}\n")).rows
            for j in (1, -1)}
    assert all(row[3] for row in rows[-1])
    assert [row[2] for row in rows[-1]] == [row[2] for row in rows[1]]


# keys each experiment reads besides its required ones
READS = {
    "dispersion": set(),
    "packet": {"c", "kappa"},
    "transit": {"c", "kappa"},
    "broadening": {"c", "kappa"},
    "overlap-decay": {"c", "kappa"},
    "error-budget": {"c", "kappa", "epsilon"},
    "min-wait-sweep": {"c", "kappa", "epsilon"},
    "rate-fit": {"c", "kappa", "epsilon"},
    "oracle-protocol": {"c", "kappa", "epsilon", "t"},
    "oracle-bounds": set(),
    "tj-check": {"s"},
}
SAMPLE = {"N": 8, "M": 1, "n_min": 8, "n_max": 16, "c": 9.0, "kappa": 1.0,
          "epsilon": 0.01, "t": 2.0, "s": 0.3, "J": 1.0}


@pytest.mark.parametrize("command", list(READS))
def test_build_config_accepts_only_keys_the_experiment_reads(command):
    assert list(READS) == list(EXPERIMENTS)
    spec = EXPERIMENTS[command]
    accepted = spec.required | READS[command]
    cfg = build_config({"experiment": spec.name, "seed": 3, "output": "x.csv",
                        **{key: SAMPLE[key] for key in accepted}})
    assert cfg.seed == 3 and cfg.output == "x.csv"
    assert set(build_config({"experiment": spec.name,
                             **{k: SAMPLE[k] for k in spec.required}})
               .applied_defaults) <= READS[command]
    for key in sorted(set(SAMPLE) - accepted):
        values = {"experiment": spec.name, key: SAMPLE[key],
                  **{k: SAMPLE[k] for k in spec.required}}
        message = rf"{spec.name} does not read keys: \['{key}'\]"
        with pytest.raises(ConfigError, match=message):
            build_config(values)

