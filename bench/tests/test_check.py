"""The correctness check behind failed_frac, and the benchmark end to end."""

import json
import shutil
import subprocess
import sys

import pytest

from check import MonteCarloTolerance, check_outputs, failed_invocation
from workloads import BENCH_DIR, ROOT, WORKLOADS


def _copy_reference(tmp_path, workload, seed=0):
    ref = WORKLOADS[workload].reference_dir(seed)
    out = tmp_path / "out"
    shutil.copytree(ref, out)
    return ref, out


def _tolerance(workload):
    return MonteCarloTolerance.from_config(ROOT / WORKLOADS[workload].config)


def _edit_line(path, index, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))


def _shift_column(column, delta):
    def edit(line):
        fields = line.rstrip("\n").split(",")
        fields[column] = format(float(fields[column]) + delta, ".17g")
        return ",".join(fields) + "\n"

    return edit


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_copy_scores_zero(tmp_path, workload):
    ref, out = _copy_reference(tmp_path, workload)
    res = check_outputs(out, ref, _tolerance(workload))
    assert res.attempted > 0
    assert res.failed == 0, res.problems
    assert res.identical_files == res.files


@pytest.mark.parametrize(
    "workload, name, line, column",
    [
        ("gibbs_markov", "quenched.csv", 9, 3),  # tv
        ("countable_mc", "summary.csv", 3, 3),  # mean_err of an exact-dp row
        ("gibbs_markov", "annealed.csv", 3, 5),  # theta
        ("countable_mc", "quenched.csv", 1, 3),  # tv of an exact-dp row
    ],
)
def test_perturbed_exact_value_fails_one_row(tmp_path, workload, name, line, column):
    ref, out = _copy_reference(tmp_path, workload)
    _edit_line(out / name, line, _shift_column(column, 1e-9))
    res = check_outputs(out, ref, _tolerance(workload))
    assert res.failed == 1, res.problems
    assert res.identical_files == res.files - 1


@pytest.mark.parametrize("workload, name", [
    ("gibbs_markov", "quenched.csv"),
    ("countable_mc", "summary.csv"),
])
def test_deleted_row_fails_one_row(tmp_path, workload, name):
    ref, out = _copy_reference(tmp_path, workload)
    _edit_line(out / name, 5, lambda line: "")
    res = check_outputs(out, ref, _tolerance(workload))
    assert res.failed == 1, res.problems


def test_extra_row_fails(tmp_path):
    ref, out = _copy_reference(tmp_path, "gibbs_markov")
    _edit_line(out / "summary.csv", 1, lambda line: line + line)
    res = check_outputs(out, ref, _tolerance("gibbs_markov"))
    assert res.failed == 1
    assert res.attempted == check_outputs(ref, ref).attempted + 1


def test_monte_carlo_rows_use_a_statistical_tolerance(tmp_path):
    ref, out = _copy_reference(tmp_path, "countable_mc")
    mc = _tolerance("countable_mc")
    assert 0.0 < mc.tv() < 0.2
    # row 2 of quenched.csv is a Monte Carlo row: a small change is sampling noise
    assert out.joinpath("quenched.csv").read_text().splitlines()[2].split(",")[2] == "monte-carlo"
    _edit_line(out / "quenched.csv", 2, _shift_column(3, 1e-9))
    assert check_outputs(out, ref, mc).failed == 0
    _edit_line(out / "quenched.csv", 2, _shift_column(3, 2 * mc.tv()))
    assert check_outputs(out, ref, mc).failed == 1
    # theta of a Monte Carlo row is exact
    _edit_line(out / "quenched.csv", 4, _shift_column(5, 1e-9))
    assert check_outputs(out, ref, mc).failed == 2


def test_missing_file_and_failed_invocation_fail_every_row(tmp_path):
    ref, out = _copy_reference(tmp_path, "gibbs_markov")
    all_rows = check_outputs(ref, ref).attempted
    (out / "quenched.csv").unlink()
    res = check_outputs(out, ref)
    assert res.failed == 12
    res = failed_invocation(ref, "exit code 2")
    assert res.failed == res.attempted == all_rows


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_unmodified_run_scores_zero(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "13", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 6
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
