"""
Correctness check of one reclab invocation against recorded reference outputs.

A row is one line of a result CSV (``quenched.csv``, ``summary.csv`` or
``annealed.csv``).  A row fails when it is missing, when it
is not in the reference, when its file or header is missing or changed, or
when one of its numbers is off:

* exact-engine numbers (``tv``, ``mean_err``, ``theta``, ``N_n``, ``tail``)
  must match the reference within 1e-12 absolute;
* Monte Carlo rows must match the reference ``theta`` and ``N_n`` the same
  way, and their ``tv``, ``mean_err`` and ``tail`` must lie within a
  statistical tolerance of the reference exact-dp row with the same key
  (see ``MonteCarloTolerance``).

``bias_bound`` is not checked: its definition is due to change.  A command
that exits non-zero fails every reference row (``failed_invocation``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

EXACT_TOL = 1e-12
KEY_COLUMNS = ("env_index", "n", "engine", "r")
CHECKED_COLUMNS = ("tv", "mean_err", "theta", "N_n", "tail")
MC_ENGINE = "monte-carlo"
DP_ENGINE = "exact-dp"


@dataclass(frozen=True)
class MonteCarloTolerance:
    """Tolerances for an empirical law built from ``trials`` sampled words.

    ``tv`` and ``tail`` of a Monte Carlo row differ from the exact row by at
    most the total variation between the empirical and the exact law (the
    comparison table and the tail bucket are shared).  That distance has
    expectation at most 0.5 * sqrt(cells / trials) over ``cells`` = r_max + 2
    count bins, and exceeds it by more than sqrt(ln(2 / delta) / (2 trials))
    with probability below delta (bounded differences), delta = 1e-9.

    The mean of the count is checked against ``Z`` standard errors of a
    variance taken as twice the limit law's, t (1 + theta) / (1 - theta),
    which leaves room for the finite-n law being wider than the limit.
    """

    trials: int
    t: float
    r_max: int

    DELTA = 1e-9
    Z = 5.0

    @classmethod
    def from_config(cls, path: Path) -> "MonteCarloTolerance | None":
        doc = json.loads(Path(path).read_text())
        trials = int(doc["seeds"].get("trials", 0))
        if trials < 1:
            return None
        sched = doc["schedule"]
        return cls(trials, float(sched["t"]), int(sched.get("r_max", 64)))

    def tv(self) -> float:
        n = self.trials
        return 0.5 * math.sqrt((self.r_max + 2) / n) + math.sqrt(
            math.log(2.0 / self.DELTA) / (2.0 * n)
        )

    def mean(self, theta: float) -> float:
        variance = 2.0 * self.t * (1.0 + theta) / (1.0 - theta)
        return self.Z * math.sqrt(variance / self.trials)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    identical_files: int = 0
    files: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.identical_files += other.identical_files
        self.files += other.files
        self.problems.extend(other.problems)


def _read_csv(path: Path) -> tuple[str, dict[tuple, dict[str, str]], int]:
    """(header, rows by key, line count); duplicate keys count as lines only."""
    lines = path.read_text().splitlines()
    if not lines:
        return "", {}, 0
    header = lines[0]
    columns = header.split(",")
    keys = [c for c in columns if c in KEY_COLUMNS]
    rows = {}
    for line in lines[1:]:
        row = dict(zip(columns, line.split(",")))
        rows[tuple(row.get(k) for k in keys)] = row
    return header, rows, len(lines) - 1


def _number(text: str | None) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _off(got: str | None, want: str, tol: float) -> bool:
    a, b = _number(got), _number(want)
    if math.isnan(a) or math.isnan(b):
        return not (math.isnan(a) and math.isnan(b) and got is not None)
    return not abs(a - b) <= tol


def _dp_key(key: tuple, columns: list[str]) -> tuple:
    return tuple(DP_ENGINE if c == "engine" else v for c, v in zip(columns, key))


def _row_problem(
    row: dict[str, str], ref: dict[str, str], ref_rows: dict, key: tuple,
    key_columns: list[str], mc: MonteCarloTolerance | None,
) -> str | None:
    if row.get("engine") == MC_ENGINE:
        if mc is None:
            return "Monte Carlo row without a trial count"
        dp = ref_rows.get(_dp_key(key, key_columns))
        if dp is None:
            return "no reference exact-dp row for this Monte Carlo row"
        theta = _number(ref["theta"])
        tolerances = {
            "theta": (ref, EXACT_TOL),
            "N_n": (ref, EXACT_TOL),
            "tv": (dp, mc.tv()),
            "tail": (dp, mc.tv()),
            "mean_err": (dp, mc.mean(theta)),
        }
    else:
        tolerances = {c: (ref, EXACT_TOL) for c in CHECKED_COLUMNS if c in ref}
    for column, (want, tol) in tolerances.items():
        if _off(row.get(column), want[column], tol):
            return f"{column} = {row.get(column)}, expected {want[column]} (tol {tol:.3g})"
    return None


def check_file(
    out_path: Path, ref_path: Path, mc: MonteCarloTolerance | None
) -> CheckResult:
    res = CheckResult(files=1)
    ref_header, ref_rows, _ = _read_csv(ref_path)
    res.attempted = len(ref_rows)
    if not out_path.is_file():
        res.failed = res.attempted
        res.problems.append(f"{ref_path.name}: missing")
        return res
    if out_path.read_bytes() == ref_path.read_bytes():
        res.identical_files = 1
        return res
    header, rows, lines = _read_csv(out_path)
    if header != ref_header:
        res.failed = res.attempted
        res.problems.append(f"{ref_path.name}: header {header!r} != {ref_header!r}")
        return res
    key_columns = [c for c in ref_header.split(",") if c in KEY_COLUMNS]
    for key, ref in ref_rows.items():
        row = rows.get(key)
        problem = "missing" if row is None else _row_problem(
            row, ref, ref_rows, key, key_columns, mc
        )
        if problem is not None:
            res.failed += 1
            res.problems.append(f"{ref_path.name} {key}: {problem}")
    # rows the reference does not have, including repeated keys
    extra = lines - len(rows) + sum(1 for key in rows if key not in ref_rows)
    if extra:
        res.attempted += extra
        res.failed += extra
        res.problems.append(f"{ref_path.name}: {extra} unexpected row(s)")
    return res


def reference_files(ref_dir: Path) -> list[Path]:
    files = sorted(Path(ref_dir).glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no reference outputs in {ref_dir}")
    return files


def check_outputs(
    out_dir: Path, ref_dir: Path, mc: MonteCarloTolerance | None = None
) -> CheckResult:
    """Compare every reference CSV in ref_dir with its namesake in out_dir."""
    total = CheckResult()
    for ref_path in reference_files(ref_dir):
        total.add(check_file(Path(out_dir) / ref_path.name, ref_path, mc))
    return total


def failed_invocation(ref_dir: Path, reason: str) -> CheckResult:
    """Every reference row fails: the command did not complete."""
    total = CheckResult(problems=[reason])
    for ref_path in reference_files(ref_dir):
        rows = _read_csv(ref_path)[1]
        total.attempted += len(rows)
        total.failed += len(rows)
        total.files += 1
    return total
