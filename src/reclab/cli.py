"""
Command-line front end: pa, theta, converge, selfcheck.

Experiment configs are a single JSON document with sections
{model, point, schedule, engines, seeds, budget}; unknown keys anywhere are
hard errors (silent typos in experiment configs are the main operational
hazard this guards against).  CSV numbers are written with 17 significant
digits so exact-engine runs round-trip byte-identically.

The output directory comes from --out.

A command loads only what it runs: ``reclab.gibbs`` is imported for a
``gibbs`` model, and ``reclab.checks`` (the self-check suite) for
``selfcheck``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__
from . import polya_aeppli as pa_mod
from .experiments import (
    ExperimentConfig, _group_rows, _integral, _nonnegative, run_annealed, run_quenched,
)
from .models import CountableModel, TwoElementModel
from .polya_aeppli import PolyaAeppliParams
from .returns import BudgetError
from .symbolic import PeriodicPoint, TransitionMatrix, as_word

# Manifest digests come from the interpreter's own SHA-256: ``hashlib`` loads
# OpenSSL's libcrypto, a few MB of resident memory, for the same digest.
try:
    from _sha2 import sha256 as _builtin_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256 as _builtin_sha256

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """A malformed or unknown entry in an experiment config."""


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


def _number(value, field: str):
    """``value`` when it is a JSON number, else a ConfigError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    return value


def _build_model(section: dict):
    _require_object(section, "model")
    kind = section.get("kind")
    if kind == "two-element":
        keys = ("alpha", "beta", "driving_p")
        _require_keys(section, {"kind", *keys}, {"kind", *keys}, "model")
        return TwoElementModel(*(_number(section[key], f"model.{key}") for key in keys))
    if kind == "countable":
        _require_keys(section, {"kind", "epsilon", "alphabet_cutoff"},
                      {"kind", "epsilon"}, "model")
        return CountableModel(
            _number(section["epsilon"], "model.epsilon"),
            _integral(section.get("alphabet_cutoff", 16384), "model.alphabet_cutoff"),
        )
    if kind == "gibbs":
        from .gibbs import GibbsSystem  # product configs never load the Gibbs numerics

        _require_keys(section, {"kind", "transitions", "potential"},
                      {"kind", "transitions", "potential"}, "model")
        transitions = TransitionMatrix(section["transitions"])
        return GibbsSystem(transitions, _build_potential(section["potential"], transitions))
    raise ConfigError(f"unknown model kind {kind!r}")


def _build_potential(section: dict, transitions: TransitionMatrix):
    """The ``model.potential`` section of a ``gibbs`` model."""
    from .gibbs import Potential, bernoulli_potential

    where = "model.potential"
    _require_keys(section, {"depth", "values", "constant", "bernoulli"}, set(), where)
    depth = _integral(section.get("depth", 1), f"{where}.depth")
    if "bernoulli" in section:
        weights = section["bernoulli"]
        if not isinstance(weights, list):
            raise ConfigError(f"{where}.bernoulli must be a list of numbers, got {weights!r}")
        return bernoulli_potential([_number(w, f"{where}.bernoulli") for w in weights], depth)
    if "depth" not in section:
        raise ConfigError(f"{where} needs a depth")
    if "constant" in section:
        return Potential.constant(_number(section["constant"], f"{where}.constant"),
                                  transitions, depth)
    if "values" not in section:
        raise ConfigError(f"{where} needs values, constant, or bernoulli")
    values = section["values"]
    _require_object(values, f"{where}.values")
    return Potential(depth, {as_word(k).symbols: _number(v, f"{where}.values[{k!r}]")
                             for k, v in values.items()})


def load_config(path) -> ExperimentConfig:
    raw = Path(path).read_text()
    doc = json.loads(raw)
    _require_keys(doc, {"model", "point", "schedule", "engines", "seeds", "budget"},
                  {"model", "point", "schedule", "engines", "seeds"}, "config")
    _require_keys(doc["point"], {"generator"}, {"generator"}, "point")
    gen = doc["point"]["generator"]
    if not isinstance(gen, (str, list)):
        raise ConfigError(f"point.generator must be a string or a list of symbols, got {gen!r}")
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
    # the checks name the config key; ValueErrors become ConfigErrors
    try:
        kwargs = {f"budget_{key}": _integral(budget[key], f"budget.{key}")
                  for key in ("cells", "words") if key in budget}
        return ExperimentConfig(
            model=_build_model(doc["model"]),
            point=PeriodicPoint(as_word(gen)),
            n_list=tuple(_integral(n, "schedule.n_list") for n in n_list),
            t=_number(sched["t"], "schedule.t"),
            environments=_integral(seeds["environments"], "seeds.environments"),
            trials=_integral(seeds.get("trials", 0), "seeds.trials"),
            master_seed=_nonnegative(seeds["master_seed"], "seeds.master_seed"),
            engines=tuple(engines),
            r_max=_nonnegative(sched.get("r_max", 64), "schedule.r_max"),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(path: Path) -> str:
    return _builtin_sha256(path.read_bytes()).hexdigest()


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


def _median(values) -> float:
    """The middle value, or the mean of the middle two (``statistics.median``
    without its imports; ``np.median`` imports ``numpy.ma`` on first use)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def cmd_converge(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=int(args.seed))
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
                n, engine, _median(r.tv for r in rows),
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

    manifest = {
        "config_digest": _sha256(Path(args.config)),
        "code_version": __version__,
        "master_seed": config.master_seed,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": [{"path": p.name, "sha256": _sha256(p)} for p in outputs],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for p in outputs:
        print(f"wrote {p}")
    print(f"wrote {out / 'manifest.json'}")
    return 0


def cmd_selfcheck(args) -> int:
    import traceback

    from . import checks

    del args
    failures = 0
    for name, compare, bound, measure in checks._SELFCHECKS:
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
