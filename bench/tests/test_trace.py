"""Traced runs: exact work counters and where the in-process time goes."""

import json
import os
import subprocess
import sys

import pytest

from run import PER_LAYER_UNITS, END_TO_END_UNITS, child_env
from tracer import layer_metrics
from workloads import BENCH_DIR, ROOT, WORKLOADS

# Counters later changes may cite as counts: they must repeat exactly.
WORK_COUNTERS = (
    "returns.exact_dp_calls",
    "returns.dp_steps",
    "returns.dp_cells",
    "returns.dp_repeat_ratio",
    "returns.mc_trials",
    "returns.mc_window_checks",
    "models.symbols_sampled",
    "models.normalizer_calls",
    "models.normalizer_reuse_ratio",
    "polya_aeppli.pmf_table_calls",
    "polya_aeppli.table_entries",
    "polya_aeppli.table_repeat_ratio",
    "experiments.rows",
)

# Counts stated for this commit: the second Gibbs environment repeats the
# first one's laws; 2,000 trials for each of 3 environments and 4 lengths.
KNOWN_COUNTS = {
    "gibbs_markov": {"returns.dp_repeat_ratio": 0.5, "models.symbols_sampled": 0},
    "countable_mc": {"returns.mc_trials": 3 * 4 * 2000},
}


def _traced(workload, seed, tmp_path, tag):
    out = tmp_path / f"out-{tag}"
    spans = tmp_path / f"spans-{tag}.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--",
         *workload.reclab_args(seed, out)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=170,
    )
    doc = json.loads(spans.read_text())
    return doc["run_id"], layer_metrics(doc["spans"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_repeat_work_counters(tmp_path, name):
    workload = WORKLOADS[name]
    id_a, a = _traced(workload, 7, tmp_path, "a")
    id_b, b = _traced(workload, 7, tmp_path, "b")
    assert id_a != id_b
    assert {k: a[k] for k in WORK_COUNTERS} == {k: b[k] for k in WORK_COUNTERS}
    assert a["polya_aeppli.table_entries"] > 0
    assert {k: a[k] for k in KNOWN_COUNTS[name]} == KNOWN_COUNTS[name]
    # the work layers' self time covers nearly all in-process time
    assert a["bench.layer_coverage_frac"] >= 0.9


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert spec["paths"] == [os.path.relpath(BENCH_DIR, ROOT)]
