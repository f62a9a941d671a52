import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_both_sides_compile_from_source(monkeypatch, tmp_path):
    # every benchmark child, base and change alike, runs without writing
    # bytecode and with an empty bytecode cache, so neither side can load
    # a __pycache__ the other lacks
    seen = []
    result = {"metrics": {"exp_s.p50": {"unit": "s", "value": 0.1}},
              "correct": True, "failed": 0}

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, "rev\n", "")
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((Path(cwd), env["PYTHONDONTWRITEBYTECODE"], prefix,
                     prefix.is_dir() and not any(prefix.iterdir())))
        return subprocess.CompletedProcess(cmd, 0, "env {}\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pairs, "ROOT", ROOT)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: (dest / "tree").mkdir())
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--workload", "oracle-protocol", "--pairs", "2",
                             "--out", str(out)]) == 0
    trees = [cwd for cwd, *_ in seen]
    assert len(seen) == 4 and trees.count(ROOT) == 2
    assert all(flag == "1" and empty for _, flag, _, empty in seen)
    assert len({prefix for *_, prefix, _ in seen}) == 1
    assert "from source" in json.loads(out.read_text())["bytecode"]
