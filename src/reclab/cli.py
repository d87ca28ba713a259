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
import operator
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import models as models_mod
from . import polya_aeppli as pa_mod
from . import returns as returns_mod
from .experiments import (
    ExperimentConfig, _group_rows, _integral, _seed, run_annealed, run_quenched,
)
from .gibbs import GibbsSystem, Potential, bernoulli_potential
from .models import CountableModel, TwoElementModel
from .polya_aeppli import PolyaAeppliParams
from .returns import BudgetError
from .symbolic import PeriodicPoint, TransitionMatrix, Word, as_word, self_overlaps

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


def _require_object(section, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    _require_object(section, where)
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _build_model(section: dict):
    _require_object(section, "model")
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
    _require_keys(sched, {"t", "n_list", "r_max"}, {"t", "n_list"}, "schedule")
    seeds = doc["seeds"]
    _require_keys(seeds, {"master_seed", "environments", "trials"},
                  {"master_seed", "environments"}, "seeds")
    budget = doc.get("budget", {})
    _require_keys(budget, {"cells", "words"}, set(), "budget")
    engines = doc["engines"]
    if not isinstance(engines, list):
        raise ConfigError("engines must be a list")
    n_list = sched["n_list"]
    if not isinstance(n_list, list):
        raise ConfigError(f"schedule.n_list must be a list of integers, got {n_list!r}")
    t = sched["t"]
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ConfigError(f"schedule.t must be a number, got {t!r}")
    # the integer checks name the config key; ValueErrors become ConfigErrors
    try:
        kwargs = {f"budget_{key}": _integral(budget[key], f"budget.{key}")
                  for key in ("cells", "words") if key in budget}
        return ExperimentConfig(
            model=model,
            point=point,
            n_list=tuple(_integral(n, "schedule.n_list") for n in n_list),
            t=t,
            environments=_integral(seeds["environments"], "seeds.environments"),
            trials=_integral(seeds.get("trials", 0), "seeds.trials"),
            master_seed=_seed(seeds["master_seed"], "seeds.master_seed"),
            engines=tuple(engines),
            r_max=_integral(sched.get("r_max", 64), "schedule.r_max"),
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
    pmf_path = _write_csv(
        _out_dir(args) / "pmf.csv", "r,mass",
        ([str(r), _fmt(m)] for r, m in enumerate(table.masses)),
    )
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
    quenched = run_quenched(config)

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
    for name, compare, bound, measure in _SELFCHECKS:
        try:
            worst = measure()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            failures += 1
            traceback.print_exc()
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            continue
        passed = compare(worst, bound)
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {worst:.3g} vs {bound:g}")
    if failures:
        print(f"{failures} self-check(s) failed")
        return 1
    print("all self-checks passed")
    return 0


# ---------------------------------------------------------------------------
# self-check suite (small-scale module invariants): each measure returns the
# worst deviation it finds, and its row passes when compare(worst, bound)
# ---------------------------------------------------------------------------


def _worst(deviations) -> float:
    """The largest deviation; NaN if any is NaN, so a NaN fails its row."""
    return float(np.max(list(deviations)))


def _pmf_normalization() -> float:
    return _worst(abs(pa_mod.pa_pmf_table(PolyaAeppliParams(t=t, p=p)).total() - 1.0)
                  for t in (1.0, 5.0) for p in (0.0, 0.5, 0.9))


def _poisson_relative_error() -> float:
    devs = []
    for t in (0.5, 2.0):
        params = PolyaAeppliParams(t=t, p=0.0)
        for r in range(31):
            want = math.exp(-t) * t**r / math.factorial(r)
            devs.append(abs(pa_mod.pa_pmf(params, r) - want) / want)
    return _worst(devs)


def _moment_consistency() -> float:
    params = PolyaAeppliParams(t=2.0, p=0.5)
    # deep truncation: the C(r,k)-weighted tail must be negligible up to k=5
    masses = pa_mod.pa_pmf_table(params, r_max=400).masses
    return _worst(abs(sum(math.comb(r, k) * m for r, m in enumerate(masses))
                      - pa_mod.pa_binomial_moment(params, k)) for k in range(6))


def _pgf_consistency() -> float:
    params = PolyaAeppliParams(t=1.5, p=0.5)
    masses = pa_mod.pa_pmf_table(params).masses
    return _worst(abs(sum(z**r * m for r, m in enumerate(masses)) - pa_mod.pa_pgf(params, z))
                  for z in (0.0, 0.25, 0.5, 0.9))


def _sampler_tv() -> float:
    params = PolyaAeppliParams(t=2.0, p=0.5)
    sample = pa_mod.pa_sample_many(params, 100_000, np.random.default_rng(7))
    table = pa_mod.pa_pmf_table(params, r_max=int(sample.max()))
    emp = np.bincount(sample, minlength=len(table.masses)) / len(sample)
    return 0.5 * float(np.abs(emp - np.array(table.masses)).sum() + table.tail_mass)


def _two_element_theta() -> float:
    model = TwoElementModel(0.3, 0.7, 0.5)
    theta = model.theta_closed_form(PeriodicPoint(Word((0,))))
    return _worst((abs(model.marginal_symbol_weight(0) - 0.5), abs(theta - 0.5)))


def _two_element_ratios() -> float:
    model = TwoElementModel(0.3, 0.7, 0.5)
    ratios = model.theta_ratio_sequence(PeriodicPoint(Word((0,))), [2, 4, 8])
    return _worst(abs(r - 0.5) for r in ratios)


def _oracle_cases():
    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(20, 11)
    for target, horizon in (("0", 8), ("01", 6), ("00", 10)):
        dp = returns_mod.exact_count_distribution(model, env, target, horizon, r_max=horizon)
        yield model, env, target, horizon, dp.masses


def _dp_vs_enumeration() -> float:
    devs = []
    for model, env, target, horizon, dp in _oracle_cases():
        brute = returns_mod.enumerate_count_distribution(model, env, target, horizon).masses
        devs += (abs(dp[r] - (brute[r] if r < len(brute) else 0.0)) for r in range(horizon + 1))
    return _worst(devs)


def _mc_vs_dp_in_se(trials: int = 20_000) -> float:
    """Worst |MC - DP| mass, less 1e-9 of slack, in Monte Carlo standard errors."""
    devs = []
    for model, env, target, horizon, dp in _oracle_cases():
        mc = returns_mod.monte_carlo_count_distribution(
            model, env, target, horizon, trials, seed=5, r_max=horizon
        ).masses
        for r in range(horizon + 1):
            se = math.sqrt(max(dp[r] * (1 - dp[r]), 1e-12) / trials)
            devs.append((abs(mc[r] - dp[r]) - 1e-9) / se)
    return _worst(devs)


def _moment_identity() -> float:
    model = TwoElementModel(0.4, 0.6, 0.3)
    env = model.draw_environment(24, 3)
    masses = returns_mod.exact_count_distribution(model, env, "010", 9, r_max=9).masses
    return _worst(abs(sum(math.comb(r, k) * m for r, m in enumerate(masses))
                      - returns_mod.binomial_moment_enumeration(model, env, "010", 9, k))
                  for k in range(4))


def _partition_relative_error() -> float:
    model = TwoElementModel(0.5, 0.5, 0.5)
    env = model.draw_environment(50, 1)
    rare, main = returns_mod.rare_vs_main_split(
        model, env, "00", 40, r=2, delta=4, block_gap=1, period=1
    )
    total = returns_mod.binomial_moment_enumeration(model, env, "00", 40, 2)
    return abs((rare + main) - total) / max(total, 1.0)


def _normalizer_closed_form() -> float:
    """Worst relative deviation of the closed-form countable normaliser from
    its definition, the truncated series added term by term."""
    us = (0.5, 0.75, 1.0)
    devs = []
    for u, closed in zip(us, models_mod._normalizers(np.array(us))):
        terms = (1.0 / (n * math.log(n) ** (1.0 + u))
                 for n in range(3, models_mod._NORMALIZER_TERMS + 1))
        midpoint = math.log(models_mod._NORMALIZER_TERMS + 0.5) ** (-u) / u
        summed = 1.0 / (math.fsum(terms) + midpoint)
        devs.append(abs(closed - summed) / summed)
    return _worst(devs)


def _golden_mean() -> GibbsSystem:
    golden = TransitionMatrix([[1, 1], [1, 0]])
    return GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))


def _gibbs_product() -> float:
    iid = GibbsSystem(TransitionMatrix.full(2), bernoulli_potential([0.3, 0.7]))
    return _worst((abs(iid.cylinder_mass("01") - 0.21),
                   abs(iid.theta(PeriodicPoint(Word((0,)))) - 0.3)))


def _overlaps_off_period() -> float:
    rng = np.random.default_rng(3)
    bad = 0
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
        bad += sum(1 for ell in self_overlaps(point.prefix(n)) if ell <= n - m and ell % m)
    return float(bad)


def _mean_identity() -> float:
    model = TwoElementModel(0.25, 0.7, 0.4)
    env = model.draw_environment(40, 9)
    masses = returns_mod.exact_count_distribution(model, env, "01", 30, r_max=30).masses
    return abs(sum(r * m for r, m in enumerate(masses))
               - returns_mod.expected_return_count(model, env, "01", 30))


# (name, comparison, bound, measure)
_SELFCHECKS = [
    ("pmf-normalization", operator.lt, 1e-10, _pmf_normalization),
    ("poisson-reduction-relative", operator.le, 1e-12, _poisson_relative_error),
    ("moment-consistency", operator.lt, 1e-8, _moment_consistency),
    ("pgf-consistency", operator.lt, 1e-10, _pgf_consistency),
    ("sampler-agreement-tv", operator.lt, 0.02, _sampler_tv),
    ("two-element-theta", operator.lt, 1e-15, _two_element_theta),
    ("two-element-ratios", operator.lt, 1e-12, _two_element_ratios),
    ("countable-normalizer-closed-form", operator.le, 4e-15, _normalizer_closed_form),
    ("oracle-dp-vs-enumeration", operator.lt, 1e-12, _dp_vs_enumeration),
    ("oracle-mc-vs-dp-in-se", operator.le, 4.0, _mc_vs_dp_in_se),
    ("moment-identity", operator.lt, 1e-10, _moment_identity),
    ("partition-identity-relative", operator.lt, 1e-11, _partition_relative_error),
    ("gibbs-eigenvalue", operator.lt, 1e-10,
     lambda: abs(_golden_mean().perron.lam - (1 + math.sqrt(5)) / 2)),
    ("gibbs-forbidden-mass", operator.eq, 0.0, lambda: _golden_mean().cylinder_mass("11")),
    ("gibbs-product", operator.lt, 1e-12, _gibbs_product),
    ("overlap-multiples-violations", operator.eq, 0.0, _overlaps_off_period),
    ("mean-identity", operator.lt, 1e-10, _mean_identity),
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
    p_conv.add_argument("--budget-states", type=int, default=None)
    p_conv.set_defaults(func=cmd_converge)

    p_self = sub.add_parser("selfcheck",
                            help="run the module invariant checks; prints each deviation")
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
