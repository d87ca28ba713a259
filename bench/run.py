"""
End-to-end benchmark of the reclab CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all       # every workload, both modes

Each run is a closed loop with one client: it starts a fresh
``python3 -m reclab.cli`` process, waits for it to exit, checks its outputs
against the recorded references, and starts the next one, until ``--seconds``
have passed.  The program comes from ``src/`` of the checkout the benchmark
sits in.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
invocation (``wall_s``), the median peak resident memory (``peak_rss_mb``)
and the median time of a fresh process importing reclab and building the
workload's inputs (``setup_s``).  ``--trace 1`` alternates untraced and
traced invocations (see ``tracer.py``) and reports the per-layer metrics,
the tracing overhead and the share of byte-identical output files.

Human-readable lines, including the run record (machine, versions, load),
go to stdout first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where attempted and
failed count result rows (see ``check.py``).  The full result, run record
included, is also written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import CheckResult, MonteCarloTolerance, check_outputs, failed_invocation  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import BENCH_DIR, ROOT, WORKLOADS, Workload  # noqa: E402

WORK_DIR = ROOT / ".bench_work"
SOURCE_DIR = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "returns.exact_dp_s": "s",
    "returns.exact_dp_self_s": "s",
    "returns.exact_dp_calls": "count",
    "returns.dp_steps": "count",
    "returns.dp_cells": "count",
    "returns.dp_cells_per_s": "1/s",
    "returns.dp_repeat_ratio": "frac",
    "returns.monte_carlo_s": "s",
    "returns.mc_self_s": "s",
    "returns.mc_trials": "count",
    "returns.mc_window_checks": "count",
    "returns.self_s": "s",
    "models.sample_words_s": "s",
    "models.symbols_sampled": "count",
    "models.symbols_per_s": "1/s",
    "models.symbol_weight_matrix_s": "s",
    "models.draw_environment_s": "s",
    "models.normalizer_s": "s",
    "models.normalizer_calls": "count",
    "models.normalizer_reuse_ratio": "frac",
    "models.self_s": "s",
    "polya_aeppli.pmf_table_s": "s",
    "polya_aeppli.pmf_table_calls": "count",
    "polya_aeppli.table_entries": "count",
    "polya_aeppli.entries_per_s": "1/s",
    "polya_aeppli.table_repeat_ratio": "frac",
    "polya_aeppli.self_s": "s",
    "gibbs.system_build_s": "s",
    "gibbs.chain_tables_s": "s",
    "gibbs.self_s": "s",
    "experiments.run_quenched_s": "s",
    "experiments.run_annealed_s": "s",
    "experiments.self_s": "s",
    "experiments.tv_s": "s",
    "experiments.rows": "count",
    "cli.load_config_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.outputs_identical": "frac",
    "bench.in_process_s": "s",
    "bench.layer_coverage_frac": "frac",
    "bench.trace_overhead_frac": "frac",
}


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int


@dataclass
class RunResult:
    workload: str
    trace: int
    samples: dict[str, list[float]] = field(default_factory=dict)
    check: CheckResult = field(default_factory=CheckResult)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def metrics(self) -> dict[str, float]:
        """Medians; counts stay whole numbers."""
        return {
            name: statistics.median_low(v) if all(isinstance(x, int) for x in v)
            else statistics.median(v)
            for name, v in self.samples.items()
        }


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SOURCE_DIR))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def spawn(argv: list[str], log: Path, timeout: float) -> Invocation:
    """Run argv to completion; wall time from start to exit, rusage peak RSS."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode)


class Runner:
    """One benchmark run of one workload in one mode."""

    def __init__(self, workload: Workload, seed: int, seconds: float, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.started = self.measure_start = time.perf_counter()
        self.ref_dir = workload.reference_dir(seed)
        self.mc = MonteCarloTolerance.from_config(ROOT / workload.config)
        self.count = 0

    def timeout(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def _fresh_dir(self) -> Path:
        self.count += 1
        path = self.run_dir / f"inv{self.count}"
        path.mkdir()
        return path

    def setup_probe(self) -> float:
        d = self._fresh_dir()
        inv = spawn([sys.executable, "-c", self.workload.setup_code()],
                    d / "stderr.txt", self.timeout())
        if inv.returncode != 0:
            raise RuntimeError(
                f"set-up failed ({inv.returncode}): {(d / 'stderr.txt').read_text()[-2000:]}"
            )
        shutil.rmtree(d)
        return inv.wall_s

    def invoke(self, result: RunResult, traced: bool) -> tuple[Invocation, dict | None, int]:
        """One CLI invocation, checked; (invocation, layer metrics, bytes written)."""
        d = self._fresh_dir()
        out = d / "out"
        args = self.workload.reclab_args(self.seed, out)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(d / "spans.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "reclab.cli", *args]
        inv = spawn(argv, d / "stderr.txt", self.timeout())
        layers = None
        written = 0
        if inv.returncode == 0:
            result.check.add(check_outputs(out, self.ref_dir, self.mc))
            written = sum(p.stat().st_size for p in out.iterdir())
            if traced:
                layers = layer_metrics(json.loads((d / "spans.json").read_text())["spans"])
        else:
            tail = (d / "stderr.txt").read_text(errors="replace")[-500:]
            result.check.add(failed_invocation(
                self.ref_dir, f"exit code {inv.returncode}: {tail}"
            ))
        shutil.rmtree(d)
        return inv, layers, written

    def elapsed(self) -> float:
        return time.perf_counter() - self.measure_start

    def more(self, durations: list[float]) -> bool:
        """Start another round unless it would likely end past the deadline,
        so that a run never measures for longer than ``--seconds``."""
        if not durations:
            return True
        return self.elapsed() + statistics.median(durations) < self.seconds

    def run_plain(self) -> RunResult:
        result = RunResult(self.workload.name, 0)
        self.setup_probe()  # warm-up: byte-code cache and file cache
        self.measure_start = time.perf_counter()
        durations: list[float] = []
        # set-up probes are spread over the run so that both metrics see the
        # same machine conditions
        while self.more(durations):
            round_start = time.perf_counter()
            result.add("setup_s", self.setup_probe())
            inv, _, _ = self.invoke(result, traced=False)
            durations.append(time.perf_counter() - round_start)
            if inv.returncode == 0:
                result.add("wall_s", inv.wall_s)
                result.add("peak_rss_mb", inv.peak_rss_mb)
        while len(result.samples["setup_s"]) < MIN_SETUP_PROBES:
            result.add("setup_s", self.setup_probe())
        return result

    def run_traced(self) -> RunResult:
        result = RunResult(self.workload.name, 1)
        self.setup_probe()
        self.measure_start = time.perf_counter()
        durations: list[float] = []
        while self.more(durations):
            pair_start = time.perf_counter()
            plain, _, _ = self.invoke(result, traced=False)
            traced, layers, written = self.invoke(result, traced=True)
            durations.append(time.perf_counter() - pair_start)
            if layers is None or plain.returncode != 0:
                continue
            for name, value in layers.items():
                result.add(name, value)
            result.add("cli.bytes_written", written)
            result.add("bench.trace_overhead_frac", traced.wall_s / plain.wall_s - 1.0)
        files = result.check.files
        result.add("cli.outputs_identical",
                   result.check.identical_files / files if files else 0.0)
        return result


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        h.update(str(path.relative_to(SOURCE_DIR)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_record(workload: str, seed: int, trace: int) -> dict:
    env = child_env()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "loadavg_before": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report(result: RunResult, units: dict[str, str]) -> dict[str, dict]:
    """Print one line per metric; return the metrics for the JSON line."""
    medians = result.metrics()
    out = {}
    for name, unit in units.items():
        samples = result.samples.get(name, [])
        value = medians.get(name, 0.0)
        spread = f", min {min(samples):.6g}, max {max(samples):.6g}" if samples else ""
        print(f"metric {result.workload} {name} = {value:.6g} {unit} "
              f"(median of {len(samples)}{spread})")
        out[name] = {"value": value, "unit": unit}
    check = result.check
    frac = check.failed / check.attempted if check.attempted else 1.0
    print(f"metric {result.workload} failed_frac = {frac:.6g} frac "
          f"({check.failed} of {check.attempted} rows)")
    for problem in check.problems[:20]:
        print(f"problem {result.workload}: {problem}")
    return out


def run_one(workload: Workload, seed: int, seconds: float, trace: int) -> tuple[RunResult, dict]:
    record = run_record(workload.name, seed, trace)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = WORK_DIR / f"run-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir()
    try:
        runner = Runner(workload, seed, seconds, run_dir)
        result = runner.run_traced() if trace else runner.run_plain()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["loadavg_after"] = list(os.getloadavg())
    print("record " + json.dumps(record, sort_keys=True))
    metrics = report(result, PER_LAYER_UNITS if trace else END_TO_END_UNITS)
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results_dir / f"{workload.name}-seed{seed}-trace{trace}-{stamp}.json").write_text(
        json.dumps({"record": record, "samples": result.samples, "metrics": metrics,
                    "attempted": result.check.attempted, "failed": result.check.failed,
                    "problems": result.check.problems}, indent=1, sort_keys=True)
    )
    return result, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE_DIR / "reclab" / "__init__.py").is_file():
        print(f"error: no reclab sources under {SOURCE_DIR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS.values() for t in (0, 1)]
    else:
        runs = [(WORKLOADS[args.workload], args.trace)]
    attempted = failed = 0
    all_metrics = {}
    for workload, trace in runs:
        result, metrics = run_one(workload, args.seed, args.seconds, trace)
        attempted += result.check.attempted
        failed += result.check.failed
        prefix = f"{workload.name}." if len(runs) > 1 else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
