import json
import math
import re
from pathlib import Path

import pytest

import reclab.checks
import reclab.cli
import reclab.models
import reclab.polya_aeppli
import reclab.returns
from reclab import (
    GibbsSystem, PeriodicPoint, Potential, TransitionMatrix, as_word, bernoulli_potential,
)
from reclab.cli import ConfigError, load_config, main

ROOT = Path(__file__).resolve().parents[1]

CANONICAL_CONFIG = {
    "model": {"kind": "two-element", "alpha": 0.3, "beta": 0.7, "driving_p": 0.5},
    "point": {"generator": "0"},
    "schedule": {"t": 1.0, "n_list": [4, 6]},
    "engines": ["exact-dp"],
    "seeds": {"master_seed": 20260808, "environments": 3},
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_pa_subcommand(tmp_path, capsys):
    rc = main(["pa", "--t", "1", "--p", "0", "--r-max", "10", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean 1" in out
    lines = (tmp_path / "pmf.csv").read_text().splitlines()
    assert lines[0] == "r,mass"
    assert float(lines[1].split(",")[1]) == pytest.approx(math.exp(-1))
    # Poisson column: mass(r) = e^-1 / r!
    assert float(lines[3].split(",")[1]) == pytest.approx(math.exp(-1) / 2)


def test_pa_reports_mean_variance(tmp_path, capsys):
    rc = main(["pa", "--t", "2", "--p", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean 4" in out
    assert "variance 12" in out


def test_pa_rejects_bad_params(tmp_path, capsys):
    rc = main(["pa", "--t", "1", "--p", "1.2", "--out", str(tmp_path)])
    assert rc == 2
    assert "p must lie in [0, 1)" in capsys.readouterr().err


def test_theta_two_element(tmp_path, capsys):
    config = _write_config(tmp_path, CANONICAL_CONFIG)
    rc = main(["theta", "--config", str(config)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "theta 0.5" in out
    assert "ratio_max_deviation" in out


def test_theta_gibbs_and_forbidden_orbit(tmp_path, capsys):
    doc = {
        "model": {
            "kind": "gibbs",
            "transitions": [[1, 1], [1, 0]],
            "potential": {"depth": 2, "constant": 0.0},
        },
        "point": {"generator": "0"},
        "schedule": {"t": 1.0, "n_list": [2, 4, 6]},
        "engines": ["exact-dp"],
        "seeds": {"master_seed": 1, "environments": 1},
    }
    rc = main(["theta", "--config", str(_write_config(tmp_path, doc))])
    assert rc == 0
    out = capsys.readouterr().out
    phi = (1 + math.sqrt(5)) / 2
    assert f"theta {format(1/phi, '.17g')}" in out
    doc["point"]["generator"] = "1"
    rc = main(["theta", "--config", str(_write_config(tmp_path, doc, "bad.json"))])
    assert rc == 2
    assert "not admissible" in capsys.readouterr().err


def test_converge_outputs_and_reproducibility(tmp_path, capsys):
    config = _write_config(tmp_path, CANONICAL_CONFIG)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["converge", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["converge", "--config", str(config), "--out", str(out2)]) == 0
    for name in ("quenched.csv", "summary.csv", "annealed.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    quenched = (out1 / "quenched.csv").read_text().splitlines()
    assert quenched[0] == "env_index,n,engine,tv,mean_err,theta,N_n,tail,bias_bound"
    assert len(quenched) == 1 + 3 * 2  # 3 environments x 2 cylinder lengths
    summary = (out1 / "summary.csv").read_text().splitlines()
    assert summary[0] == "n,engine,tv,mean_err,theta,N_n,tail,bias_bound"
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["master_seed"] == 20260808
    assert manifest["code_version"]
    listed = {entry["path"] for entry in manifest["outputs"]}
    assert listed == {"quenched.csv", "summary.csv", "annealed.csv"}
    import hashlib

    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out1 / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_converge_seed_flag_overrides(tmp_path):
    config = _write_config(tmp_path, CANONICAL_CONFIG)
    out = tmp_path / "run"
    assert main(["converge", "--config", str(config), "--out", str(out), "--seed", "77"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 77


def test_converge_refuses_a_negative_seed_flag(tmp_path, capsys):
    config = _write_config(tmp_path, CANONICAL_CONFIG)
    out = tmp_path / "run"
    assert main(["converge", "--config", str(config), "--out", str(out), "--seed", "-1"]) == 2
    assert "master_seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (out / "quenched.csv").exists()


def test_converge_writes_into_out_whatever_the_environment_says(tmp_path, monkeypatch):
    config = _write_config(tmp_path, CANONICAL_CONFIG)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("RECLAB_OUT", str(env_dir))
    assert main(["converge", "--config", str(config), "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "summary.csv").exists()
    assert not env_dir.exists()


def test_unknown_config_keys_are_fatal(tmp_path, capsys):
    doc = dict(CANONICAL_CONFIG)
    doc["scheduel"] = {"t": 1.0}
    rc = main(["converge", "--config", str(_write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err
    doc2 = json.loads(json.dumps(CANONICAL_CONFIG))
    doc2["model"]["alhpa"] = 0.5
    rc = main(["converge", "--config", str(_write_config(tmp_path, doc2, "c2.json")), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("key", ["delta_rule", "block_rule"])
def test_removed_schedule_rules_are_unknown_keys(tmp_path, key):
    doc = json.loads(json.dumps(CANONICAL_CONFIG))
    doc["schedule"][key] = "n"
    with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\] in schedule"):
        load_config(_write_config(tmp_path, doc))


def test_empty_n_list_is_validation_error(tmp_path, capsys):
    doc = json.loads(json.dumps(CANONICAL_CONFIG))
    doc["schedule"]["n_list"] = []
    rc = main(["converge", "--config", str(_write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert rc == 2
    assert "n_list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("schedule", "n_list", [4.7, 6]),
        ("schedule", "n_list", "4"),
        ("schedule", "t", "2"),
        ("schedule", "t", True),
        ("schedule", "r_max", 10.9),
        ("seeds", "environments", 2.9),
        ("seeds", "environments", True),
        ("seeds", "trials", "5"),
        ("seeds", "master_seed", 1.5),
        ("seeds", "master_seed", -1),
        ("budget", "cells", 1e9),
        ("budget", "words", "4096"),
    ],
)
def test_config_numbers_of_the_wrong_type_are_fatal(tmp_path, section, key, value):
    doc = json.loads(json.dumps(CANONICAL_CONFIG))
    doc.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
        load_config(_write_config(tmp_path, doc))


@pytest.mark.parametrize(
    "section, replace",
    [
        ("config", lambda doc: [doc]),
        ("model", lambda doc: {**doc, "model": 5}),
        ("model.potential", lambda doc: {**doc, "model": {
            "kind": "gibbs", "transitions": [[1, 1], [1, 0]], "potential": 5}}),
        ("point", lambda doc: {**doc, "point": 7}),
        ("schedule", lambda doc: {**doc, "schedule": [1.0, [4]]}),
        ("seeds", lambda doc: {**doc, "seeds": 7}),
        ("budget", lambda doc: {**doc, "budget": 100}),
    ],
)
def test_config_sections_that_are_not_objects_are_fatal(tmp_path, capsys, section, replace):
    config = _write_config(tmp_path, replace(CANONICAL_CONFIG))
    with pytest.raises(ConfigError, match=f"^{section} must be a JSON object"):
        load_config(config)
    assert main(["converge", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert f"{section} must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, replace",
    [
        ("point.generator", lambda doc: {**doc, "point": {"generator": 5}}),
        ("model.alpha", lambda doc: {**doc, "model": {**doc["model"], "alpha": "x"}}),
        ("model.epsilon", lambda doc: {**doc, "model": {"kind": "countable", "epsilon": [1]}}),
        ("model.potential.values", lambda doc: {**doc, "model": {
            "kind": "gibbs", "transitions": [[1, 1], [1, 0]],
            "potential": {"depth": 2, "values": 5}}}),
        ("engines", lambda doc: {**doc, "engines": [["exact-dp"]]}),
    ],
)
def test_config_fields_of_the_wrong_type_are_fatal(tmp_path, capsys, key, replace):
    config = _write_config(tmp_path, replace(CANONICAL_CONFIG))
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        load_config(config)
    assert main(["converge", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert f"{key} must be" in capsys.readouterr().err


GOLDEN_MEAN_MODEL = {"kind": "gibbs", "transitions": [[1, 1], [1, 0]],
                     "potential": {"depth": 2, "constant": 0.0}}


def _golden_mean_potential(potential):
    return {**GOLDEN_MEAN_MODEL, "potential": potential}


@pytest.mark.parametrize(
    "replace, message",
    [
        (lambda doc: {**doc, "model": {**GOLDEN_MEAN_MODEL, "transitions": [[257, 1], [1, 0]]}},
         "transition matrix entries must be 0 or 1"),
        (lambda doc: {**doc, "model": {**GOLDEN_MEAN_MODEL, "transitions": [[0.5, 1], [1, 1]]}},
         "transition matrix entries must be 0 or 1"),
        (lambda doc: {**doc, "point": {"generator": [True]}},
         "symbols must be nonnegative integers, got True"),
        (lambda doc: {**doc, "point": {"generator": [5]}},
         "two-element model has alphabet {0, 1}, got symbol 5"),
        (lambda doc: {**doc, "model": {"kind": "countable", "epsilon": 0.5},
                      "point": {"generator": [2]}},
         "countable model symbols start at 3"),
        (lambda doc: {**doc, "model": GOLDEN_MEAN_MODEL, "point": {"generator": "1"}},
         "periodic orbit '1' is not admissible"),
        (lambda doc: {**doc, "model": GOLDEN_MEAN_MODEL, "point": {"generator": [-1, 0]}},
         "symbols must be nonnegative integers, got -1"),
        (lambda doc: {**doc, "model": _golden_mean_potential(
            {"depth": 2, "values": {"00": 800.0, "01": 0.0, "10": 0.0}})},
         "potential value -800.0 at word (0, 1) has weight exp(value) = 0.0"),
        (lambda doc: {**doc, "model": _golden_mean_potential({"depth": 2, "constant": math.nan})},
         "potential value nan at word (0, 0) has weight exp(value) = nan"),
        (lambda doc: {**doc, "model": _golden_mean_potential({"depth": 2, "constant": math.inf})},
         "potential value inf at word (0, 0) has weight exp(value) = inf"),
        (lambda doc: {**doc, "model": _golden_mean_potential({"constant": 0.0})},
         "model.potential needs a depth"),
        (lambda doc: {**doc, "model": _golden_mean_potential(
            {"values": {"00": 0.0, "01": 0.0, "10": 0.0}})},
         "model.potential needs a depth"),
        (lambda doc: {**doc, "model": _golden_mean_potential({"depth": 2})},
         "model.potential needs values, constant, or bernoulli"),
        (lambda doc: {**doc, "model": _golden_mean_potential(
            {"bernoulli": {"0": 0.3, "1": 0.7}})},
         "model.potential.bernoulli must be a list"),
    ],
    ids=["transitions-257", "transitions-half", "generator-bool", "two-element-symbol-5",
         "countable-symbol-2", "golden-mean-orbit-1", "golden-mean-symbol-minus-1",
         "values-800-below-the-largest", "constant-nan", "constant-infinity",
         "constant-without-depth", "values-without-depth", "no-values", "bernoulli-not-list"],
)
def test_config_values_the_model_cannot_carry_are_fatal(tmp_path, capsys, replace, message):
    config = _write_config(tmp_path, replace(CANONICAL_CONFIG))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(config)
    out = tmp_path / "run"
    assert main(["converge", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (out / "quenched.csv").exists()


@pytest.mark.parametrize("constant", [300.0, 709.0, -744.0, 1000.0],
                         ids=["constant-300", "constant-709", "constant-minus-744", "constant-1000"])
def test_a_constant_potential_prints_the_theta_of_constant_zero(tmp_path, capsys, constant):
    # the weights are exp(value - the largest value), so every constant
    # potential builds the transfer matrix of constant 0, bit for bit
    printed = []
    for value in (0.0, constant):
        doc = {**CANONICAL_CONFIG, "model": _golden_mean_potential({"depth": 2, "constant": value})}
        assert main(["theta", "--config", str(_write_config(tmp_path, doc))]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[1] == printed[0]
    assert printed[0].startswith("theta 0.61803398874989")


@pytest.mark.parametrize(
    "transitions, potential, library, generator",
    [
        ([[1, 1], [1, 0]], {"depth": 2, "values": {"00": 0.0, "01": 0.0, "10": 0.0}},
         lambda tm: Potential.constant(0.0, tm, 2), "01"),
        ([[1, 1], [1, 0]], {"depth": 2, "values": {"0,0": 0.1, "0,1": -0.4, "1,0": 0.25}},
         lambda tm: Potential(2, {(0, 0): 0.1, (0, 1): -0.4, (1, 0): 0.25}), "01"),
        ([[1, 1], [1, 1]], {"bernoulli": [0.3, 0.7]},
         lambda tm: bernoulli_potential([0.3, 0.7]), "1"),
        ([[1, 1], [1, 1]], {"depth": 3, "bernoulli": [0.3, 0.7]},
         lambda tm: bernoulli_potential([0.3, 0.7], 3), "0"),
    ],
    ids=["values-zero", "values-comma-keys", "bernoulli", "bernoulli-depth-3"],
)
def test_config_potential_forms_build_the_library_system(
    tmp_path, transitions, potential, library, generator
):
    doc = {**CANONICAL_CONFIG, "point": {"generator": generator},
           "model": {"kind": "gibbs", "transitions": transitions, "potential": potential}}
    model = load_config(_write_config(tmp_path, doc)).model
    tm = TransitionMatrix(transitions)
    expected = GibbsSystem(tm, library(tm))
    point = PeriodicPoint(as_word(generator))
    assert model.theta(point) == expected.theta(point)
    for word in ["0", "01", "10", "001", "0100", "00101"]:
        assert model.cylinder_mass(word) == expected.cylinder_mass(word)


@pytest.mark.parametrize(
    "replace, message",
    [
        (lambda doc: {**doc, "engines": ["exact-dp", "exact-dp"]},
         "engines must not repeat, got ['exact-dp', 'exact-dp']"),
        (lambda doc: {**doc, "schedule": {**doc["schedule"], "r_max": -1}},
         "schedule.r_max must be a nonnegative integer, got -1"),
    ],
    ids=["repeated-engine", "negative-r-max"],
)
def test_repeated_engines_and_a_negative_r_max_are_refused_before_any_draw(
    tmp_path, capsys, monkeypatch, replace, message
):
    drawn = []
    monkeypatch.setattr(reclab.models.TwoElementModel, "draw_environment",
                        lambda *args: drawn.append(args))
    config = _write_config(tmp_path, replace(CANONICAL_CONFIG))
    out = tmp_path / "run"
    assert main(["converge", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert drawn == []
    assert not (out / "quenched.csv").exists()


@pytest.mark.parametrize(
    "engines, budget, message",
    [
        (["exact-dp"], {"cells": 100000},
         "exact DP needs 19284048 cells, budget is 100000 (engine exact-dp, n=14, horizon=16384)"),
        (["monte-carlo", "enumeration"], {"words": 1 << 22},
         ("enumeration needs 2^16398 words, budget is 4194304 "
          "(engine enumeration, n=14, horizon=16384)")),
    ],
    ids=["exact-dp", "enumeration"],
)
def test_an_over_budget_run_is_refused_before_any_draw(
    tmp_path, capsys, monkeypatch, engines, budget, message
):
    drawn = []
    monkeypatch.setattr(reclab.models.TwoElementModel, "draw_environment",
                        lambda *args: drawn.append(args))
    doc = json.loads((ROOT / "configs/quenched_two_element.json").read_text())
    doc["schedule"]["n_list"] = [4, 14]
    doc["seeds"]["trials"] = 10
    doc.update(engines=engines, budget=budget)
    out = tmp_path / "run"
    assert main(["converge", "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert drawn == []
    assert not (out / "quenched.csv").exists()


@pytest.mark.parametrize(
    "config, lines",
    [
        ("configs/quenched_two_element.json", ["theta", "ratio_max_deviation"]),
        ("bench/configs/countable_mc.json", ["theta", "ratio_max_deviation"]),
        ("configs/golden_mean.json", ["theta", "ratio_max_deviation", "ratio_decay_factor"]),
        ("bench/configs/gibbs_markov.json",
         ["theta", "ratio_max_deviation", "ratio_decay_factor"]),
    ],
)
def test_theta_prints_its_named_lines(capsys, config, lines):
    assert main(["theta", "--config", str(ROOT / config)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in out] == lines
    for line in out:
        assert math.isfinite(float(line.split(" ")[1]))


def test_converge_refuses_a_window_too_long_for_a_float(tmp_path, capsys):
    doc = json.loads(json.dumps(CANONICAL_CONFIG))
    doc["model"].update(alpha=0.5, beta=0.5)
    doc["schedule"]["n_list"] = [1060]
    out = tmp_path / "run"
    assert main(["converge", "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert "observation window is not finite: t=1.0" in capsys.readouterr().err
    assert not (out / "quenched.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["converge", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_load_config_countable(tmp_path):
    doc = {
        "model": {"kind": "countable", "epsilon": 0.5, "alphabet_cutoff": 256},
        "point": {"generator": [3]},
        "schedule": {"t": 1.0, "n_list": [2, 3]},
        "engines": ["exact-dp"],
        "seeds": {"master_seed": 4, "environments": 2},
        "budget": {"cells": 100000000},
    }
    config = load_config(_write_config(tmp_path, doc))
    assert config.model.alphabet_cutoff == 256
    assert config.budget_cells == 100000000
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, {**doc, "extra": 1}, "bad.json"))


def test_selfcheck_passes(capsys):
    rc = main(["selfcheck"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all self-checks passed" in out
    assert out.count("PASS") >= 10


def test_selfcheck_detects_injected_pmf_bug(monkeypatch, capsys):
    true_pmf = reclab.polya_aeppli.pa_pmf

    def shifted(params, r):
        return true_pmf(params, r + 1)  # off-by-one corruption

    monkeypatch.setattr(reclab.polya_aeppli, "pa_pmf", shifted)
    rc = main(["selfcheck"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_selfcheck_pass_lines_carry_their_measured_deviation(capsys):
    assert main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == len(reclab.checks._SELFCHECKS)
    for line, (name, compare, bound, _) in zip(lines, reclab.checks._SELFCHECKS):
        verdict, row, worst, vs, printed_bound = line.split(" ")
        assert (verdict, row, vs) == ("PASS", f"{name}:", "vs")
        assert compare(float(worst), bound) and float(printed_bound) == bound


def test_selfcheck_reports_a_raising_measure_and_runs_the_rest(monkeypatch, capsys):
    def broken():
        raise RuntimeError("measure exploded")

    rows = list(reclab.checks._SELFCHECKS)
    name, compare, bound, _ = rows[3]
    rows[3] = (name, compare, bound, broken)
    monkeypatch.setattr(reclab.checks, "_SELFCHECKS", rows)
    rc = main(["selfcheck"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[3] == f"FAIL {name}: RuntimeError: measure exploded"
    others = lines[:3] + lines[4:len(rows)]
    assert [line.split(":")[0] for line in others] == [
        f"PASS {row[0]}" for i, row in enumerate(rows) if i != 3
    ]
    assert lines[-1] == "1 self-check(s) failed"


def test_selfcheck_catches_a_dp_that_drops_the_emitting_mass(monkeypatch, capsys):
    def keep_only(keep_op, emit_op, dist, shifted):
        return keep_op @ dist  # the mass whose step completes a match is lost

    monkeypatch.setattr(reclab.returns, "_count_step", keep_only)
    rc = main(["selfcheck"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL oracle-dp-vs-enumeration: " in out
