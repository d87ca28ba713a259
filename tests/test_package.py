"""The package's import surface.

``import reclab.cli`` and ``load_config`` load only what the config's model
needs: neither the Gibbs numerics on a product config nor the self-check
module on any; ``reclab converge`` loads ``numpy.random``, and with it
OpenSSL's ``_hashlib``, only for a model whose environments are random
draws, and ``numpy.polynomial`` for none.  The top-level names are lazy and
are the ones the package has always exported.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import reclab

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(reclab.__file__).resolve().parents[1]

# the public top-level names, as the eager imports of the package defined them
EXPORTS = [
    "BudgetError", "CountDistribution", "CountableModel", "Environment", "ExperimentConfig",
    "GibbsSystem", "MarginalModel", "PatternClass", "PeriodicPoint",
    "PerronData", "PolyaAeppliParams", "Potential", "ReturnPattern", "TransitionMatrix",
    "TwoElementModel", "Word", "as_word", "bernoulli_potential", "binomial_moment_enumeration",
    "build_transfer_matrix", "check_psi_mixing", "classify_pattern", "count_returns",
    "enumerate_count_distribution", "exact_count_distribution", "expected_return_count",
    "fit_decay_factor", "is_rare", "minimal_period", "monte_carlo_count_distribution",
    "normalize_potential", "observation_time", "overlap_count_check", "pa_binomial_moment",
    "pa_mean_variance", "pa_pgf", "pa_pmf", "pa_pmf_table", "pa_sample_many",
    "perron_eigendata", "rare_vs_main_split", "run_annealed", "run_quenched", "self_overlaps",
    "theta_cluster_estimate", "tv_distance",
]


def _loaded_modules(code: str, *args: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    report = "; import sys; print(*sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}{report}",
         *args],
        capture_output=True, text=True, check=True,
    )
    return set(run.stdout.split())


def _reclab_modules(code: str, *args: str) -> set[str]:
    """The reclab modules a fresh interpreter holds after running ``code``."""
    return {m for m in _loaded_modules(code, *args) if m.startswith("reclab")}


def test_importing_the_package_loads_no_submodule():
    assert _reclab_modules("import reclab") == {"reclab"}


@pytest.mark.parametrize(
    "config, gibbs",
    [
        ("configs/quenched_two_element.json", False),
        ("bench/configs/countable_mc.json", False),
        ("configs/golden_mean.json", True),
    ],
)
def test_load_config_loads_only_what_the_model_needs(config, gibbs):
    loaded = _reclab_modules("import reclab.cli; reclab.cli.load_config(sys.argv[1])",
                             str(ROOT / config))
    assert {"reclab.cli", "reclab.experiments", "reclab.models"} <= loaded
    assert ("reclab.gibbs" in loaded) == gibbs
    assert "reclab.checks" not in loaded


@pytest.mark.parametrize(
    "config, random",
    [("configs/golden_mean.json", False), ("bench/configs/countable_mc.json", True)],
)
def test_converge_loads_numpy_random_only_to_draw_environments(tmp_path, config, random):
    # a Gibbs system is environment-free: its zero windows need no seed sequence
    loaded = _loaded_modules(
        "import reclab.cli; assert reclab.cli.main(sys.argv[1:]) == 0",
        "converge", "--config", str(ROOT / config), "--out", str(tmp_path),
    )
    assert "reclab.experiments" in loaded
    assert ("numpy.random" in loaded) == random
    # the manifest digests need no OpenSSL; numpy.random loads it (secrets, hmac)
    assert ("_hashlib" in loaded) == random
    # the countable Gauss-Legendre rule is built in house
    assert "numpy.polynomial" not in loaded


def test_top_level_names_are_the_exported_ones_and_resolve():
    assert sorted(reclab.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(reclab))
    for name in reclab.__all__:
        assert getattr(reclab, name).__name__ == name


def test_submodules_and_unknown_names():
    from reclab import returns

    assert returns.exact_count_distribution is reclab.exact_count_distribution
    with pytest.raises(AttributeError, match="no attribute 'TransferOperator'"):
        reclab.TransferOperator  # noqa: B018
    with pytest.raises(ImportError, match="cannot import name 'TransferOperator'"):
        from reclab import TransferOperator  # noqa: F401
