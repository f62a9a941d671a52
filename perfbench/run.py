"""Benchmark of the fermiwire CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload ring-ratefit --seed 0 --seconds 36 --trace 0

Each sample runs one experiment in a fresh interpreter (perfbench/child.py),
one child at a time in a closed loop, which is how a user runs the README
commands.  The package is imported from ``src/`` of this checkout.  One
untimed warm-up child compiles the bytecode and fills the file cache; then
samples run until ``--seconds`` is used up (at least MIN_SAMPLES).

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
traced and untraced children alternate and the per-layer metrics come from
the spans of the traced ones (see spans.py).  Every sample's output is
checked (workloads.py) and every sample of a run must emit the same data
bytes, traced or not.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("cli_s.p50", "s"),
    ("setup_s", "s"),
    ("exp_s.p50", "s"),
    ("exp_s.tail", "s"),
    ("cpu_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
]

# bytes and flops are computed from sizes (spans.COUNTERS), not measured
PER_LAYER = [
    ("lattice.build_hopping.calls", "count"),
    ("lattice.build_hopping.self_s", "s"),
    ("lattice.build_hopping.bytes", "B_computed"),
    ("lattice.ring_spectrum.calls", "count"),
    ("lattice.ring_spectrum.self_s", "s"),
    ("lattice.propagate.calls", "count"),
    ("lattice.propagate.self_s", "s"),
    ("lattice.self_s", "s"),
    ("wavepacket.gaussian_packet.calls", "count"),
    ("wavepacket.gaussian_packet.self_s", "s"),
    ("wavepacket.overlap.calls", "count"),
    ("wavepacket.overlap.self_s", "s"),
    ("wavepacket.self_s", "s"),
    ("protocol.min_wait_time.calls", "count"),
    ("protocol.min_wait_time.self_s", "s"),
    ("protocol.min_wait_time.failed", "count"),
    ("protocol.encoding_error_bound.calls", "count"),
    ("protocol.encoding_error_bound.self_s", "s"),
    ("protocol.bound_evals_per_search", "1/search"),
    ("protocol.error_budget.calls", "count"),
    ("protocol.error_budget.self_s", "s"),
    ("protocol.self_s", "s"),
    ("fock.fock_basis.calls", "count"),
    ("fock.fock_basis.self_s", "s"),
    ("fock.dim", "count"),
    ("fock.kinetic_matrix.calls", "count"),
    ("fock.kinetic_matrix.self_s", "s"),
    ("fock.kinetic_matrix.nnz", "count"),
    ("fock.mode_annihilator.calls", "count"),
    ("fock.mode_annihilator.self_s", "s"),
    ("fock.build_encoder.calls", "count"),
    ("fock.build_encoder.self_s", "s"),
    ("fock.ExactEvolver.init.calls", "count"),
    ("fock.ExactEvolver.init.self_s", "s"),
    ("fock.ExactEvolver.propagator.calls", "count"),
    ("fock.ExactEvolver.propagator.self_s", "s"),
    ("fock.ExactEvolver.propagator.flops", "flop_computed"),
    ("fock.ExactEvolver.apply.calls", "count"),
    ("fock.ExactEvolver.apply.self_s", "s"),
    ("fock.ProtocolEngine.run.calls", "count"),
    ("fock.ProtocolEngine.run.self_s", "s"),
    ("fock.self_s", "s"),
    ("harness.run.self_s", "s"),
    ("harness.emit.self_s", "s"),
    ("harness.self_s", "s"),
    ("trace.overhead_frac", "1"),
]

MIN_SAMPLES = 11  # so that exp_s.tail has ten samples beyond it
MIN_TRACED = 2  # so that counts can be compared between two traced runs
SETTLE_RSS_MB = 256.0  # see collect()
SETTLE_S = 2.5
MAX_ATTEMPTS = 40  # past the deadline, give up on children that keep failing
CHILD_TIMEOUT_S = 120.0


@dataclass
class Sample:
    traced: bool
    problems: list = field(default_factory=list)
    cli_s: float | None = None
    setup_s: float | None = None
    exp_s: float | None = None
    cpu_s: float | None = None
    rss_mb: float | None = None
    spans: list | None = None
    data: bytes | None = None

    @property
    def completed(self) -> bool:
        return self.exp_s is not None


def run_sample(workload, seed: int, workdir: Path, index: int, traced: bool) -> Sample:
    sample = Sample(traced)
    out = workdir / f"sample{index}.csv"
    sidecar = workdir / f"sample{index}.csv.meta.json"
    report_path = workdir / f"sample{index}.report.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        str(SRC),
        str(report_path),
        "1" if traced else "0",
        workload.config_text(seed),
        "--",
        *workload.cli_argv(seed, str(out)),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sample.problems.append(f"child timed out after {CHILD_TIMEOUT_S} s")
        return sample
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    sample.cli_s = time.perf_counter() - start
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        sample.problems.append(f"child exited {proc.returncode}: {' | '.join(tail)}")
        return sample
    report = json.loads(report_path.read_text(encoding="utf-8"))
    module = Path(report["module"]).resolve()
    if SRC.resolve() not in module.parents:
        sample.problems.append(f"imported fermiwire from {module}, not {SRC}")
        return sample
    if report["exit_code"] != 0:
        sample.problems.append(f"cli.main returned {report['exit_code']}")
        return sample
    sample.setup_s = report["setup_end"] - start
    sample.exp_s = report["exp_s"]
    sample.cpu_s = report["cpu_s"]
    sample.rss_mb = report["maxrss_kb"] / 1024.0
    sample.spans = report["spans"]
    sample.data = out.read_bytes()
    sample.problems += workload.verify(
        seed, sample.data.decode("utf-8"), sidecar.read_text(encoding="utf-8")
    )
    for path in (out, sidecar, report_path):
        path.unlink()
    return sample


def collect(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Warm-up child, then samples until the time is used up.

    After a child whose peak RSS exceeded SETTLE_RSS_MB the next one waits
    SETTLE_S.  On the 2-vCPU virtual machine the benchmark was defined on,
    a child starting within about two seconds of a large predecessor's
    exit faulted in its large arrays faster than one starting later, as
    if freed memory went back to the host after a delay: ring-ratefit's
    exp_s was bimodal (0.25 s or 0.6 s) back to back and unimodal (about
    0.6 s) with the wait, the state a user's single command starts from.

    Returns (warm-up, timed samples).  With tracing, traced and untraced
    children alternate in the order T U U T: consecutive children can
    alternate between fast and slow page faulting of large arrays, so a
    plain T U T U order would bias the overhead estimate.
    """
    periods: list = []

    def sample(index: int, traced: bool) -> Sample:
        began = time.perf_counter()
        s = run_sample(workload, seed, workdir, index, traced)
        if s.rss_mb is not None and s.rss_mb > SETTLE_RSS_MB:
            time.sleep(SETTLE_S)
        periods.append(time.perf_counter() - began)
        return s

    warm = sample(0, traced=False)
    samples: list = []
    deadline = time.perf_counter() + seconds

    def enough() -> bool:
        late = time.perf_counter() + statistics.median(periods) > deadline
        if late and len(samples) >= MAX_ATTEMPTS:
            return True
        done = [s for s in samples if s.completed]
        if trace:
            traced = sum(s.traced for s in done)
            if traced < MIN_TRACED or len(done) - traced < MIN_TRACED:
                return False
        elif len(done) < MIN_SAMPLES:
            return False
        return late

    while not enough():
        traced = trace and len(samples) % 4 in (0, 3)
        samples.append(sample(len(samples) + 1, traced))
    return warm, samples


def tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (pct, value)."""
    xs = sorted(values)
    rank = len(xs) - 10
    if rank < 1:
        raise ValueError(f"need more than 10 samples for a tail, got {len(xs)}")
    return 100.0 * rank / len(xs), xs[rank - 1]


def end_to_end_metrics(warm: Sample, samples: list, ok_frac: float):
    timed = [s for s in samples if s.completed]
    pct, tail_value = tail([s.exp_s for s in timed])
    values = {
        "cli_s.p50": statistics.median(s.cli_s for s in timed),
        "setup_s": statistics.median(s.setup_s for s in timed),
        "exp_s.p50": statistics.median(s.exp_s for s in timed),
        "exp_s.tail": tail_value,
        "cpu_s.p50": statistics.median(s.cpu_s for s in timed),
        "peak_rss_mb": max(s.rss_mb for s in [warm, *timed] if s.completed),
        "ok_frac": ok_frac,
    }
    notes = {"exp_s.tail": f"p{pct:.1f} of {len(timed)} samples"}
    for name in ("cli_s.p50", "setup_s", "exp_s.p50", "cpu_s.p50"):
        notes[name] = f"median of {len(timed)} samples"
    notes["peak_rss_mb"] = f"max ru_maxrss over {len(timed) + 1} children"
    return values, notes


def layer_values(agg: dict) -> dict:
    names, layers = agg["names"], agg["layers"]
    searches = names.get("protocol.min_wait_time", {}).get("calls", 0)
    out = {
        "fock.dim": names.get("fock.fock_basis", {}).get("dim", 0),
        "protocol.bound_evals_per_search": (
            agg["evals_in_search"] / searches if searches else 0.0
        ),
    }
    for name, _ in PER_LAYER:
        if name in out or name == "trace.overhead_frac":
            continue
        prefix, _, key = name.rpartition(".")
        if prefix in layers and key == "self_s":
            out[name] = layers[prefix]
        else:
            out[name] = names.get(prefix, {}).get(key, 0.0 if key == "self_s" else 0)
    return out


def per_layer_metrics(samples: list):
    """Per-layer metrics and whether every count repeated exactly."""
    traced = [s for s in samples if s.completed and s.traced]
    plain = [s for s in samples if s.completed and not s.traced]
    aggregates = [spans.aggregate(s.spans) for s in traced]
    per_sample = [layer_values(agg) for agg in aggregates]
    values, notes = {}, {}
    repeat = True
    for name, unit in PER_LAYER[:-1]:
        column = [v[name] for v in per_sample]
        if unit == "s":
            values[name] = statistics.median(column)
            notes[name] = f"median of {len(column)} traced samples"
        else:
            values[name] = column[0]
            if any(c != column[0] for c in column):
                repeat = False
                notes[name] = f"DID NOT REPEAT: {column}"
            else:
                notes[name] = f"repeated in {len(column)} traced samples"
    t_traced = statistics.median(s.exp_s for s in traced)
    t_plain = statistics.median(s.exp_s for s in plain)
    values["trace.overhead_frac"] = t_traced / t_plain - 1.0
    notes["trace.overhead_frac"] = (
        f"median exp_s traced {t_traced:.4f} s ({len(traced)}) / "
        f"untraced {t_plain:.4f} s ({len(plain)}) - 1"
    )
    self_s = {
        name: statistics.median(agg["names"].get(name, {}).get("self_s", 0.0) for agg in aggregates)
        for name in aggregates[0]["names"]
    }
    top = sorted(((t, n) for n, t in self_s.items()), reverse=True)[:5]
    return values, notes, repeat, top


def blas_threads() -> list:
    """Library, build config and threads in effect of each loaded OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for stem in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            threads = getattr(lib, stem.format("get_num_threads"), None)
            config = getattr(lib, stem.format("get_config"), None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info.update(threads=threads(), config=config().decode())
                break
        found.append(info)
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "seed": seed,
        "load": "closed loop, one child process at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return bench(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def bench(workload, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "fermiwire" / "__init__.py").is_file():
        print(f"perfbench: no fermiwire package under {SRC}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        warm, samples = collect(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = [warm, *samples]
    # every sample of a run has the same inputs, so the same data bytes
    reference = next((s.data for s in attempted if s.data is not None), None)
    for s in attempted:
        if s.data is not None and s.data != reference:
            s.problems.append("data bytes differ from the run's first sample")
    failed = sum(bool(s.problems) for s in attempted)
    for i, s in enumerate(attempted):
        for problem in s.problems:
            print(f"sample {i}{' (traced)' if s.traced else ''}: {problem}", file=sys.stderr)
    done = [s for s in samples if s.completed]
    traced = sum(s.traced for s in done)
    if (
        min(traced, len(done) - traced) < MIN_TRACED
        if trace
        else len(done) < MIN_SAMPLES
    ):
        print(f"perfbench: only {len(done)} samples completed; no result", file=sys.stderr)
        return 1
    ok_frac = (len(attempted) - failed) / len(attempted)
    correct = failed == 0
    settings = workload.settings(seed)
    print(f"workload {workload.name}, seed {seed}: fermiwire {' '.join(workload.cli_argv(seed, 'OUT'))}")
    print(f"inputs {settings}; {len(attempted)} children incl. 1 untimed warm-up")
    if trace:
        values, notes, repeat, top = per_layer_metrics(samples)
        correct = correct and repeat
        units = dict(PER_LAYER)
        print("largest median self times: " + ", ".join(f"{n} {t:.4f} s" for t, n in top))
    else:
        values, notes = end_to_end_metrics(warm, samples, ok_frac)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name:40s} {value!r:>24} {units[name]:14s} {notes.get(name, '')}")
    print("env " + json.dumps(environment(seed), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
