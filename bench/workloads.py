"""
The benchmark's workloads: which reclab command each one runs and where its
reference outputs live.

Every workload is one ``reclab converge`` invocation, run to completion in a
fresh process, single-threaded (the default ``--threads 0``), one at a time.
Workloads whose laws depend on the drawn environments keep recorded
reference outputs for ``reference_slots`` master seeds; the benchmark seed
picks one of them (seed mod slots) and passes it through ``--seed``.
Workloads whose outputs do not depend on the seed keep one reference and
pass the benchmark seed through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # converge config, relative to the checkout root
    reference_slots: int | None = None  # None: outputs do not depend on the seed

    def seed_arg(self, seed: int) -> int:
        """The master seed passed to the program for a benchmark seed."""
        return seed % self.reference_slots if self.reference_slots else seed

    def reference_dir(self, seed: int) -> Path:
        slot = f"seed{self.seed_arg(seed)}" if self.reference_slots else "any"
        return REFERENCE_DIR / self.name / slot

    def reclab_args(self, seed: int, out_dir: Path) -> list[str]:
        """Arguments after ``reclab`` for one invocation writing to out_dir."""
        return [
            "converge",
            "--config", str(ROOT / self.config),
            "--out", str(out_dir),
            "--seed", str(self.seed_arg(seed)),
        ]

    def setup_code(self) -> str:
        """Python run by the set-up probe: import reclab and build the inputs."""
        return (
            "import reclab.cli\n"
            f"reclab.cli.load_config({str(ROOT / self.config)!r})\n"
        )


# Why each workload is here is recorded in BENCHMARK.json; in short:
# gibbs_markov repeats one stationary Markov operator (the case operator
# squaring or memoisation would help) and is the only load on gibbs;
# countable_mc is the only load on models (sampler, normaliser) and drives
# the product DP with continuous coordinates its operator cache never hits.
# Two workloads only, so that each run is long enough to be steady on a
# small shared machine: the shipped quenched experiment and a ``reclab pa``
# limit-law run were dropped (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gibbs_markov", config="bench/configs/gibbs_markov.json"),
        Workload(
            "countable_mc", config="bench/configs/countable_mc.json",
            reference_slots=10,
        ),
    )
}
