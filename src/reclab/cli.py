"""
Command-line front end: pa, theta, converge, selfcheck.

Experiment configs are a single JSON document with sections
{model, point, schedule, engines, seeds, budget}; unknown keys anywhere are
hard errors (silent typos in experiment configs are the main operational
hazard this guards against).  CSV numbers are written with 17 significant
digits so exact-engine runs round-trip byte-identically.

The output directory comes from --out, overridden by the RECLAB_OUT
environment variable when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import polya_aeppli as pa_mod
from .experiments import ExperimentConfig, _group_rows, run_annealed, run_quenched
from .gibbs import GibbsSystem, Potential, bernoulli_potential
from .models import CountableModel, TwoElementModel
from .polya_aeppli import PolyaAeppliParams
from .returns import BudgetError
from .symbolic import PeriodicPoint, TransitionMatrix, Word, as_word

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """A malformed or unknown entry in an experiment config."""


@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    code_version: str
    master_seed: int
    created_utc: str
    outputs: tuple[dict, ...]

    def write(self, path: Path) -> None:
        payload = {
            "config_digest": self.config_digest,
            "code_version": self.code_version,
            "master_seed": self.master_seed,
            "created_utc": self.created_utc,
            "outputs": list(self.outputs),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _integer(value, key: str) -> int:
    """``value`` if JSON gave it as an integer, else a ConfigError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _build_model(section: dict):
    kind = section.get("kind")
    if kind == "two-element":
        _require_keys(section, {"kind", "alpha", "beta", "driving_p"},
                      {"kind", "alpha", "beta", "driving_p"}, "model")
        return TwoElementModel(section["alpha"], section["beta"], section["driving_p"])
    if kind == "countable":
        _require_keys(section, {"kind", "epsilon", "alphabet_cutoff"},
                      {"kind", "epsilon"}, "model")
        return CountableModel(
            section["epsilon"], section.get("alphabet_cutoff", 16384)
        )
    if kind == "gibbs":
        _require_keys(section, {"kind", "transitions", "potential"},
                      {"kind", "transitions", "potential"}, "model")
        transitions = TransitionMatrix(section["transitions"])
        return GibbsSystem(transitions, _build_potential(section["potential"], transitions))
    raise ConfigError(f"unknown model kind {kind!r}")


def _build_potential(section: dict, transitions: TransitionMatrix) -> Potential:
    _require_keys(section, {"depth", "values", "constant", "bernoulli"}, set(),
                  "model.potential")
    if "bernoulli" in section:
        return bernoulli_potential(section["bernoulli"], section.get("depth", 1))
    depth = section.get("depth")
    if depth is None:
        raise ConfigError("model.potential needs a depth")
    if "constant" in section:
        return Potential.constant(section["constant"], transitions, depth)
    if "values" not in section:
        raise ConfigError("model.potential needs values, constant, or bernoulli")
    values = {as_word(k).symbols: float(v) for k, v in section["values"].items()}
    return Potential(depth, values)


def load_config(path) -> ExperimentConfig:
    raw = Path(path).read_text()
    doc = json.loads(raw)
    _require_keys(doc, {"model", "point", "schedule", "engines", "seeds", "budget"},
                  {"model", "point", "schedule", "engines", "seeds"}, "config")
    model = _build_model(doc["model"])
    _require_keys(doc["point"], {"generator"}, {"generator"}, "point")
    gen = doc["point"]["generator"]
    point = PeriodicPoint(as_word(gen if isinstance(gen, str) else tuple(gen)))
    sched = doc["schedule"]
    _require_keys(sched, {"t", "n_list", "delta_rule", "block_rule", "r_max"},
                  {"t", "n_list"}, "schedule")
    seeds = doc["seeds"]
    _require_keys(seeds, {"master_seed", "environments", "trials"},
                  {"master_seed", "environments"}, "seeds")
    budget = doc.get("budget", {})
    _require_keys(budget, {"cells", "words"}, set(), "budget")
    engines = doc["engines"]
    if not isinstance(engines, list):
        raise ConfigError("engines must be a list")
    kwargs = {}
    if "cells" in budget:
        kwargs["budget_cells"] = _integer(budget["cells"], "budget.cells")
    if "words" in budget:
        kwargs["budget_words"] = _integer(budget["words"], "budget.words")
    n_list = sched["n_list"]
    if not isinstance(n_list, list):
        raise ConfigError(f"schedule.n_list must be a list of integers, got {n_list!r}")
    t = sched["t"]
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ConfigError(f"schedule.t must be a number, got {t!r}")
    try:
        return ExperimentConfig(
            model=model,
            point=point,
            n_list=tuple(_integer(n, "schedule.n_list") for n in n_list),
            t=float(t),
            environments=_integer(seeds["environments"], "seeds.environments"),
            trials=_integer(seeds.get("trials", 0), "seeds.trials"),
            master_seed=_integer(seeds["master_seed"], "seeds.master_seed"),
            engines=tuple(engines),
            delta_rule=sched.get("delta_rule", "n"),
            block_rule=sched.get("block_rule", "half_n"),
            r_max=_integer(sched.get("r_max", 64), "schedule.r_max"),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args) -> Path:
    out = os.environ.get("RECLAB_OUT") or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_pa(args) -> int:
    params = PolyaAeppliParams(t=args.t, p=args.p)
    table = pa_mod.pa_pmf_table(params, args.r_max)
    out = _out_dir(args)
    pmf_path = out / "pmf.csv"
    with open(pmf_path, "w", newline="") as fh:
        fh.write("r,mass\n")
        for r, m in enumerate(table.masses):
            fh.write(f"{r},{_fmt(m)}\n")
    mean, var = pa_mod.pa_mean_variance(params)
    print(f"wrote {pmf_path}")
    print(f"mean {_fmt(mean)}")
    print(f"variance {_fmt(var)}")
    for k in range(6):
        print(f"binomial_moment[{k}] {_fmt(pa_mod.pa_binomial_moment(params, k))}")
    print(f"tail_mass {_fmt(table.tail_mass)}")
    return 0


def cmd_theta(args) -> int:
    config = load_config(args.config)
    for name, value in config.model.theta_report(config.point, config.n_list):
        print(f"{name} {_fmt(value)}")
    return 0


def _write_csv(path: Path, header: str, lines) -> Path:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for cells in lines:
            fh.write(",".join(cells) + "\n")
    return path


_ROW_HEADER = "n,engine,tv,mean_err,theta,N_n,tail,bias_bound"


def _row_cells(n, engine, tv, mean_err, theta, horizon, tail, bias_bound) -> list[str]:
    return [str(n), engine, _fmt(tv), _fmt(mean_err), _fmt(theta), str(horizon),
            _fmt(tail), _fmt(bias_bound)]


def _cells_of(row) -> list[str]:
    return _row_cells(row.n, row.engine, row.tv, row.mean_abs_err, row.theta, row.horizon,
                      row.distribution.tail_mass, row.distribution.bias_bound)


def cmd_converge(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=int(args.seed))
    if args.budget_states is not None:
        config = dataclasses.replace(config, budget_cells=int(args.budget_states))
    out = _out_dir(args)
    quenched = run_quenched(config, threads=args.threads)

    outputs = [
        _write_csv(
            out / "quenched.csv", "env_index," + _ROW_HEADER,
            ([str(res.env_index)] + _cells_of(row) for res in quenched for row in res.rows),
        )
    ]
    groups = _group_rows(quenched)
    summary = []
    for n in config.n_list:
        for engine in config.engines:
            rows = groups[(n, engine)]
            summary.append(_row_cells(
                n, engine, statistics.median(r.tv for r in rows),
                max(r.mean_abs_err for r in rows), rows[0].theta, rows[0].horizon,
                max(r.distribution.tail_mass for r in rows),
                max(r.distribution.bias_bound for r in rows),
            ))
    outputs.append(_write_csv(out / "summary.csv", _ROW_HEADER, summary))
    if config.environments >= 2:
        annealed = run_annealed(config, quenched=quenched)
        outputs.append(
            _write_csv(out / "annealed.csv", _ROW_HEADER, (_cells_of(row) for row in annealed))
        )

    manifest = RunManifest(
        config_digest=hashlib.sha256(Path(args.config).read_bytes()).hexdigest(),
        code_version=__version__,
        master_seed=config.master_seed,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        outputs=tuple(
            {"path": p.name, "sha256": _sha256(p)} for p in outputs
        ),
    )
    manifest.write(out / "manifest.json")
    for p in outputs:
        print(f"wrote {p}")
    print(f"wrote {out / 'manifest.json'}")
    return 0


def cmd_selfcheck(args) -> int:
    del args
    failures = 0
    for name, check in _SELFCHECKS:
        try:
            check()
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            failures += 1
            print(f"FAIL {name}: {exc}")
    if failures:
        print(f"{failures} self-check(s) failed")
        return 1
    print("all self-checks passed")
    return 0


# ---------------------------------------------------------------------------
# self-check suite (small-scale module invariants)
# ---------------------------------------------------------------------------


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _sc_pmf_normalization() -> None:
    for t in (1.0, 5.0):
        for p in (0.0, 0.5, 0.9):
            table = pa_mod.pa_pmf_table(PolyaAeppliParams(t=t, p=p))
            _check(abs(table.total() - 1.0) < 1e-10, f"total off at t={t}, p={p}")


def _sc_poisson_reduction() -> None:
    for t in (0.5, 2.0):
        params = PolyaAeppliParams(t=t, p=0.0)
        for r in range(31):
            want = math.exp(-t) * t**r / math.factorial(r)
            got = pa_mod.pa_pmf(params, r)
            _check(abs(got - want) <= 1e-12 * want, f"poisson mismatch r={r}")


def _sc_moment_consistency() -> None:
    params = PolyaAeppliParams(t=2.0, p=0.5)
    # deep truncation: the C(r,k)-weighted tail must be negligible up to k=5
    table = pa_mod.pa_pmf_table(params, r_max=400)
    for k in range(6):
        direct = sum(math.comb(r, k) * m for r, m in enumerate(table.masses))
        _check(
            abs(direct - pa_mod.pa_binomial_moment(params, k)) < 1e-8,
            f"moment mismatch k={k}",
        )


def _sc_pgf_consistency() -> None:
    params = PolyaAeppliParams(t=1.5, p=0.5)
    table = pa_mod.pa_pmf_table(params)
    for z in (0.0, 0.25, 0.5, 0.9):
        series = sum(z**r * m for r, m in enumerate(table.masses))
        _check(abs(series - pa_mod.pa_pgf(params, z)) < 1e-10, f"pgf mismatch z={z}")


def _sc_sampler() -> None:
    params = PolyaAeppliParams(t=2.0, p=0.5)
    rng = np.random.default_rng(7)
    sample = pa_mod.pa_sample_many(params, 100_000, rng)
    table = pa_mod.pa_pmf_table(params, r_max=int(sample.max()))
    emp = np.bincount(sample, minlength=len(table.masses)) / len(sample)
    tv = 0.5 * (np.abs(emp - np.array(table.masses)).sum() + table.tail_mass)
    _check(tv < 0.02, f"sampler TV {tv}")


def _sc_two_element_theta() -> None:
    model = TwoElementModel(0.3, 0.7, 0.5)
    _check(abs(model.marginal_symbol_weight(0) - 0.5) < 1e-15, "pbar_0 wrong")
    point = PeriodicPoint(Word((0,)))
    _check(abs(model.theta_closed_form(point) - 0.5) < 1e-15, "theta wrong")
    ratios = model.theta_ratio_sequence(point, [2, 4, 8])
    _check(max(abs(r - 0.5) for r in ratios) < 1e-12, "ratio sequence wrong")


def _sc_oracle_triangle() -> None:
    from .returns import (
        enumerate_count_distribution,
        exact_count_distribution,
        monte_carlo_count_distribution,
    )

    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(20, 11)
    for target, horizon in (("0", 8), ("01", 6), ("00", 10)):
        dp = exact_count_distribution(model, env, target, horizon, r_max=horizon)
        brute = enumerate_count_distribution(model, env, target, horizon)
        for r in range(horizon + 1):
            b = brute.masses[r] if r < len(brute.masses) else 0.0
            _check(abs(dp.masses[r] - b) < 1e-12, f"dp/brute mismatch at r={r}")
        trials = 20_000
        mc = monte_carlo_count_distribution(
            model, env, target, horizon, trials, seed=5, r_max=horizon
        )
        for r in range(horizon + 1):
            se = math.sqrt(max(dp.masses[r] * (1 - dp.masses[r]), 1e-12) / trials)
            _check(
                abs(mc.masses[r] - dp.masses[r]) <= 4 * se + 1e-9,
                f"mc off at r={r}",
            )


def _sc_moment_identity() -> None:
    from .returns import binomial_moment_enumeration, exact_count_distribution

    model = TwoElementModel(0.4, 0.6, 0.3)
    env = model.draw_environment(24, 3)
    target, horizon = "010", 9
    dp = exact_count_distribution(model, env, target, horizon, r_max=horizon)
    for k in range(4):
        direct = sum(math.comb(r, k) * m for r, m in enumerate(dp.masses))
        enum = binomial_moment_enumeration(model, env, target, horizon, k)
        _check(abs(direct - enum) < 1e-10, f"moment identity broken at k={k}")


def _sc_partition_identity() -> None:
    from .returns import binomial_moment_enumeration, rare_vs_main_split

    model = TwoElementModel(0.5, 0.5, 0.5)
    env = model.draw_environment(50, 1)
    rare, main = rare_vs_main_split(
        model, env, "00", 40, r=2, delta=4, block_gap=1, period=1
    )
    total = binomial_moment_enumeration(model, env, "00", 40, 2)
    _check(abs((rare + main) - total) < 1e-11 * max(total, 1.0), "partition broken")


def _sc_gibbs() -> None:
    golden = TransitionMatrix([[1, 1], [1, 0]])
    system = GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))
    lam = system.perron.lam
    _check(abs(lam - (1 + math.sqrt(5)) / 2) < 1e-10, "golden mean eigenvalue")
    _check(system.cylinder_mass("11") == 0.0, "forbidden word has mass")
    iid = GibbsSystem(TransitionMatrix.full(2), bernoulli_potential([0.3, 0.7]))
    _check(abs(iid.cylinder_mass("01") - 0.21) < 1e-12, "product mass")
    _check(abs(iid.theta(PeriodicPoint(Word((0,)))) - 0.3) < 1e-12, "gibbs theta")


def _sc_overlap_multiples() -> None:
    from .symbolic import self_overlaps

    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        while True:
            gen = tuple(int(s) for s in rng.integers(0, 3, size=m))
            try:
                point = PeriodicPoint(Word(gen))
                break
            except ValueError:
                continue
        n = int(rng.integers(2 * m, 12 * m + 1))
        word = point.prefix(n)
        for ell in self_overlaps(word):
            if ell <= n - m:
                _check(ell % m == 0, f"overlap {ell} not multiple of {m}")


def _sc_mean_identity() -> None:
    from .returns import exact_count_distribution, expected_return_count

    model = TwoElementModel(0.25, 0.7, 0.4)
    env = model.draw_environment(40, 9)
    dp = exact_count_distribution(model, env, "01", 30, r_max=30)
    direct = sum(r * m for r, m in enumerate(dp.masses))
    expected = expected_return_count(model, env, "01", 30)
    _check(abs(direct - expected) < 1e-10, "mean identity broken")


_SELFCHECKS = [
    ("pmf-normalization", _sc_pmf_normalization),
    ("poisson-reduction", _sc_poisson_reduction),
    ("moment-consistency", _sc_moment_consistency),
    ("pgf-consistency", _sc_pgf_consistency),
    ("sampler-agreement", _sc_sampler),
    ("two-element-theta", _sc_two_element_theta),
    ("oracle-triangle", _sc_oracle_triangle),
    ("moment-identity", _sc_moment_identity),
    ("partition-identity", _sc_partition_identity),
    ("gibbs-operator", _sc_gibbs),
    ("overlap-multiples", _sc_overlap_multiples),
    ("mean-identity", _sc_mean_identity),
]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reclab",
        description="Return-time statistics for random subshifts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_pa = sub.add_parser("pa", help="tabulate a Polya-Aeppli law")
    p_pa.add_argument("--t", type=float, required=True)
    p_pa.add_argument("--p", type=float, required=True)
    p_pa.add_argument("--r-max", type=int, default=None)
    p_pa.add_argument("--out", default=".")
    p_pa.set_defaults(func=cmd_pa)

    p_theta = sub.add_parser("theta", help="cluster parameter report for a config")
    p_theta.add_argument("--config", required=True)
    p_theta.set_defaults(func=cmd_theta)

    p_conv = sub.add_parser("converge", help="run a convergence experiment")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--out", default=".")
    p_conv.add_argument("--seed", type=int, default=None)
    p_conv.add_argument("--threads", type=int, default=0)
    p_conv.add_argument("--budget-states", type=int, default=None)
    p_conv.set_defaults(func=cmd_converge)

    p_self = sub.add_parser("selfcheck", help="run the module invariant suites")
    p_self.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BudgetError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
