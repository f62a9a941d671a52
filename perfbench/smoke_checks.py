"""Smoke checks of the benchmark itself at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/smoke_checks.py

The file name does not match pytest's ``test_*.py`` pattern, so the
repository's own test run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "ring-ratefit": dataclasses.replace(
        workloads.WORKLOADS["ring-ratefit"],
        fixed={"n_min": 64, "n_max": 256, "M": 4},
        reference={
            "n_samples": 3,
            "band": (0.26, 0.45),
            "exponents": {
                "0.01": 0.40942217265558206,
                "0.008": 0.4145365193105628,
                "0.009": 0.4100835483169577,
                "0.0095": 0.41387514364918676,
                "0.0105": 0.40942217265558206,
                "0.011": 0.4087607969942061,
                "0.012": 0.4043078260006008,
                "0.007": 0.41965086596554374,
            },
        },
    ),
    "oracle-protocol": dataclasses.replace(
        workloads.WORKLOADS["oracle-protocol"],
        fixed={"N": 8, "M": 2},
        # decode time at N=8 is 1.5
        free_inputs=workloads.oracle_wait(2.0, 3.0),
        reference={"registers": 2, "closed_form_tol": 1e-9},
    ),
    "oracle-bounds": dataclasses.replace(
        workloads.WORKLOADS["oracle-bounds"], fixed={"N": 8, "M": 2}
    ),
}

# each entry breaks one reference value of the matching tiny workload
WRONG = {
    "ring-ratefit": {
        "exponents": {
            eps: value + 0.03
            for eps, value in TINY["ring-ratefit"].reference["exponents"].items()
        }
    },
    "oracle-protocol": {"registers": 3},
    "oracle-bounds": {"rows": 19},
}


def _bench(capsys, workload, seed=0, trace=False) -> dict:
    assert run.bench(workload, seed, 0.0, trace) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _emit(workload, seed, tmp_path) -> tuple[str, str]:
    sys.path.insert(0, str(run.SRC))
    from fermiwire import harness

    out = tmp_path / "out.csv"
    harness.emit(harness.run(harness.build_config(
        harness.parse_config_text(workload.config_text(seed)))), out)
    meta = out.with_name(out.name + ".meta.json")
    return out.read_text(encoding="utf-8"), meta.read_text(encoding="utf-8")


def test_benchmark_json_lists_what_run_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert "setup_s" in names and len(set(names)) == len(names)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [0, 5])
def test_check_accepts_output_and_rejects_wrong_reference(name, seed, tmp_path):
    workload = TINY[name]
    csv_text, meta_text = _emit(workload, seed, tmp_path)
    assert workload.verify(seed, csv_text, meta_text) == []
    wrong = dataclasses.replace(workload, reference={**workload.reference, **WRONG[name]})
    assert wrong.verify(seed, csv_text, meta_text) != []


def test_strict_json_rejects_nan():
    with pytest.raises(ValueError):
        workloads.strict_json('{"t_star": NaN}')


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_emitted(name, capsys):
    result = _bench(capsys, TINY[name])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SAMPLES + 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_emitted(name, capsys):
    result = _bench(capsys, TINY[name], seed=3, trace=True)
    # correct also covers traced/untraced byte equality and repeated counts
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    assert any(calls.values())


def test_wrong_reference_drives_ok_frac_below_one(capsys):
    workload = TINY["ring-ratefit"]
    wrong = dataclasses.replace(
        workload, reference={**workload.reference, **WRONG["ring-ratefit"]}
    )
    result = _bench(capsys, wrong)
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-ratefit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
