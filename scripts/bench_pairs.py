"""Alternating before/after pairs of the benchmark, written as one JSON file.

    python3 scripts/bench_pairs.py --base HEAD --workload oracle-protocol \\
        --pairs 10 --seed 1000 --out BENCH_6.json

Run from the root of a git checkout.  Both sides are exported into a
temporary directory (``TMPDIR`` chooses where), under paths of one length:
the base revision with ``git archive`` into ``side0``, the change as the
working tree stands, uncommitted edits and untracked files that git does
not ignore included, into ``side1``.  Pair i runs

    python3 perfbench/run.py --workload W --seed S+i --trace 0

in each export, the base first on even i and the change first on odd i,
and reads the JSON object on the last line each run prints.  Neither
export holds a ``__pycache__``, and every run inherits the caller's
environment unchanged, so both sides treat bytecode alike; the
``bytecode`` field says how, from ``sys.flags.dont_write_bytecode``
(set by ``PYTHONDONTWRITEBYTECODE``, which the runs inherit).  The output
records the environment, each side's per-metric runs, median and quartiles,
how many pairs the change won on each metric (ties count for neither side;
the direction comes from ``BENCHMARK.json``), and the pair count.  For each
end-to-end metric it also records ``bound`` from ``BENCHMARK.json`` and
``within_bound``: whether the change's median is worse than the base median,
in the metric's worse direction, by at most bound x |base median|.  For
every metric ``gain_shown`` says whether the change shows a gain: it wins
at least 9 of every 10 pairs, and its median beats the base median, in the
better direction, by more than the base's interquartile range q3 - q1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Extract the committed tree of ``rev`` into ``dest``."""
    archive = dest.with_suffix(".tar")
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def export_worktree(dest: Path) -> None:
    """Copy the working tree into ``dest``: every tracked file that still
    exists, as edited, and every untracked file git does not ignore."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def bench(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, environment)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return json.loads(lines[-1]), env


def bytecode(dont_write: bool) -> str:
    """What both sides do with bytecode, given whether writing it is off."""
    if dont_write:
        return ("bytecode writing is off, so neither side writes __pycache__ "
                "and every run compiles the package from source")
    return ("both sides start as clean exports without __pycache__; each "
            "side's first run writes it and its later runs read it")


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(runs: dict[str, list[dict]], declared: dict[str, dict]) -> dict:
    """Per-metric summary of both sides; ``declared`` maps each end-to-end
    metric name to its ``BENCHMARK.json`` entry (``better`` and ``bound``)."""
    metrics = {}
    for name, meta in runs["base"][0]["metrics"].items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        spec = declared.get(name, {})
        sign = 1.0 if spec.get("better") == "higher" else -1.0
        sides, bound = (summary(base), summary(change)), spec.get("bound")
        # how much worse the change's median is, in the metric's worse direction
        worse_by = sign * (sides[0]["median"] - sides[1]["median"])
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        metrics[name] = {
            "unit": meta["unit"],
            "better": spec.get("better"),
            "base": sides[0],
            "change": sides[1],
            "change_wins": wins,
            "base_wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
            "bound": bound,
            "within_bound": (None if bound is None
                             else worse_by <= bound * abs(sides[0]["median"])),
            "gain_shown": (10 * wins >= 9 * len(base)
                           and -worse_by > sides[0]["q3"] - sides[0]["q1"]),
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of pair 0; pair i uses seed+i")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")
    declared = {m["name"]: m
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {
        "base": _git("rev-parse", args.base),
        "change": "working tree at " + _git("rev-parse", "HEAD")
                  + (" with local changes" if _git("status", "--porcelain") else ""),
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "order": "pair i runs the base first when i is even, the change first when odd",
        "bytecode": bytecode(sys.flags.dont_write_bytecode),
        "workloads": {},
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        # names of one length, so the two sides' paths lay out alike in memory
        trees = {"base": tmp / "side0", "change": tmp / "side1"}
        export(args.base, trees["base"])
        export_worktree(trees["change"])
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            seeds = [args.seed + i for i in range(args.pairs)]
            for i, seed in enumerate(seeds):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    result, recorded = bench(trees[side], workload, seed)
                    runs[side].append(result)
                    report.setdefault("environment", {k: v for k, v in recorded.items()
                                                      if k != "seed"})
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"exp_s.p50 {result['metrics']['exp_s.p50']['value']:.4f}",
                          file=sys.stderr)
            report["workloads"][workload] = {
                "pairs": args.pairs,
                "seeds": seeds,
                "correct": {s: [r["correct"] for r in runs[s]] for s in runs},
                "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
                "metrics": compare(runs, declared),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
