import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_both_sides_compile_from_source(monkeypatch, tmp_path):
    # both sides run in fresh exports, never in the checkout, with the
    # caller's environment unchanged: the base from git, the change from
    # the working tree with its uncommitted edits and untracked files
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "src" / "mod.py").write_text("VALUE = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "mod.py").write_text("VALUE = 2\n")
    (repo / "src" / "new.py").write_text("")
    (repo / "ignored.txt").write_text("")

    seen = []
    result = {"metrics": {"exp_s.p50": {"unit": "s", "value": 0.1}},
              "correct": True, "failed": 0}
    real_run = subprocess.run

    def fake_run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            return real_run(cmd, cwd=cwd, **kwargs)
        tree = Path(cwd)
        seen.append((tree, kwargs.get("env"), (tree / "src" / "mod.py").read_text(),
                     sorted(p.name for p in tree.rglob("*") if p.is_file())))
        return subprocess.CompletedProcess(cmd, 0, "env {}\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--workload", "oracle-protocol", "--pairs", "2",
                             "--out", str(out)]) == 0
    assert len(seen) == 4
    assert all(env is None for _, env, _, _ in seen)
    trees = {tree for tree, *_ in seen}
    assert len(trees) == 2 and repo not in trees
    # equal path lengths keep the sides' peak RSS comparable
    assert len({len(str(tree)) for tree in trees}) == 1
    by_source = {source: files for _, _, source, files in seen}
    assert by_source == {
        "VALUE = 1\n": [".gitignore", "BENCHMARK.json", "mod.py"],
        "VALUE = 2\n": [".gitignore", "BENCHMARK.json", "mod.py", "new.py"],
    }
    assert json.loads(out.read_text())["bytecode"] == bench_pairs.bytecode(
        sys.flags.dont_write_bytecode)


def test_report_says_whether_the_runs_write_bytecode():
    # with PYTHONDONTWRITEBYTECODE set no run writes bytecode, so the report
    # must not say that the sides cache it
    off, on = bench_pairs.bytecode(True), bench_pairs.bytecode(False)
    assert "neither side writes __pycache__" in off and "compiles" in off
    assert "first run writes it" in on and "later runs read it" in on


def _fake_runs(name, base, change):
    def result(value):
        return {"metrics": {name: {"unit": "1", "value": value}}}
    return {"base": [result(v) for v in base], "change": [result(v) for v in change]}


def test_report_says_whether_each_median_is_within_its_bound():
    declared = {m["name"]: m
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    # exp_s.p50 is lower-better with a bound of 0.25 of the base median
    slow = bench_pairs.compare(_fake_runs("exp_s.p50", [0.10] * 3, [0.13] * 3), declared)
    assert slow["exp_s.p50"]["bound"] == 0.25
    assert slow["exp_s.p50"]["within_bound"] is False
    near = bench_pairs.compare(_fake_runs("exp_s.p50", [0.10] * 3, [0.11] * 3), declared)
    assert near["exp_s.p50"]["within_bound"] is True
    fast = bench_pairs.compare(_fake_runs("exp_s.p50", [0.10] * 3, [0.05] * 3), declared)
    assert fast["exp_s.p50"]["within_bound"] is True
    # ok_frac is higher-better with a bound of 0.01: a 2% drop is out of bound
    drop = bench_pairs.compare(_fake_runs("ok_frac", [1.0] * 3, [0.98] * 3), declared)
    assert drop["ok_frac"]["within_bound"] is False
    rise = bench_pairs.compare(_fake_runs("ok_frac", [0.9] * 3, [1.0] * 3), declared)
    assert rise["ok_frac"]["within_bound"] is True
    # a per-layer metric has no bound to judge
    layer = bench_pairs.compare(_fake_runs("fock.dim", [470] * 3, [470] * 3), declared)
    assert layer["fock.dim"]["bound"] is None and layer["fock.dim"]["within_bound"] is None


def test_report_says_whether_a_gain_is_shown():
    declared = {m["name"]: m
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base = [0.010, 0.011, 0.012, 0.013, 0.014, 0.015, 0.016, 0.017, 0.018, 0.019]

    def shown(change, name="exp_s.p50", base=base):
        return bench_pairs.compare(_fake_runs(name, base, change), declared)[name]["gain_shown"]

    # base q3 - q1 is 0.0045: a gap of 0.005 in every pair is a gain
    assert shown([b - 0.005 for b in base]) is True
    # 9 of 10 pairs still shows it, 8 of 10 does not
    assert shown([b - 0.005 for b in base[:9]] + [base[9] + 0.001]) is True
    assert shown([b - 0.005 for b in base[:8]] + [b + 0.001 for b in base[8:]]) is False
    # winning every pair by less than the base's spread does not
    assert shown([b - 0.004 for b in base]) is False
    # nor does a gap in the worse direction; a higher-better metric flips it
    assert shown([b + 0.005 for b in base]) is False
    assert shown([b + 0.005 for b in base], "ok_frac") is True
