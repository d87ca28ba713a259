"""
Record the reference outputs the benchmark checks every run against.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each workload's command once per reference seed with the reclab in
``src/`` and stores its result CSVs under ``bench/reference/<workload>/``.
Re-record only for a change that is meant to alter the program's outputs,
and account for every changed byte in that change.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import child_env  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402


def record(name: str) -> None:
    workload = WORKLOADS[name]
    for seed in range(workload.reference_slots or 1):
        ref_dir = workload.reference_dir(seed)
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            out = Path(tmp) / "out"
            subprocess.run(
                [sys.executable, "-m", "reclab.cli", *workload.reclab_args(seed, out)],
                cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
            )
            if ref_dir.exists():
                shutil.rmtree(ref_dir)
            ref_dir.mkdir(parents=True)
            for csv in sorted(out.glob("*.csv")):
                shutil.copy(csv, ref_dir / csv.name)
        print(f"recorded {ref_dir.relative_to(ROOT)}")


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    for name in names:
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
