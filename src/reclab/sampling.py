"""
The Monte Carlo engine: the empirical law of the return count over sampled
fiber words.

On product fibers each position is drawn straight into its class (which
distinct target symbol, or none), from the same uniforms and the same
partition (``models._cumulative_weights``) as ``sample_words``, each run of
``_STREAM_ROWS`` rows from its own child stream of the seed.
``_sampled_classes`` yields class masks in slabs of ``_MC_SLAB_FLOATS``
uniforms, and ``returns._window_mask`` marks where the target occurs in
them; the cluster estimator ``checks.theta_cluster_estimate`` reads them
too.  The engine checks the target as the others do
(``returns._checked_target``) and reads ``alphabet``, then
``symbol_weight_matrix`` and ``tail_mass_bound`` at depth 1,
``sample_words`` at depth > 1.
"""

from __future__ import annotations

import numpy as np

from .models import _SLAB_CELLS, Environment, _cumulative_weights
from .polya_aeppli import CountDistribution
from .returns import DEFAULT_R_MAX, _checked_target, _window_mask

__all__ = ["monte_carlo_count_distribution"]

_MC_SLAB_FLOATS = 1 << 16  # uniforms per Monte Carlo slab: with its masks, it stays in L2
# sampled rows per child stream of a Monte Carlo seed: the stream layout, so
# it fixes the sampled law of a seed
_STREAM_ROWS = 4096


def monte_carlo_count_distribution(
    model,
    env: Environment,
    target,
    horizon: int,
    trials: int,
    seed,
    r_max: int = DEFAULT_R_MAX,
) -> CountDistribution:
    """Empirical law of the return count over sampled fiber words.

    Row r of the sample reads child stream r // ``_STREAM_ROWS`` of
    ``seed``, so the law depends on the seed and the trials alone, not on
    the slab sizes.  A target symbol the sampler can never draw (above a
    countable model's ``alphabet_cutoff``) is rejected; the exact engine
    handles it.
    """
    tw = _checked_sampling(model, target, horizon, trials, r_max)
    hist = np.zeros(r_max + 2, dtype=np.int64)
    for hits, classes in _sampled_classes(model, env, tw, horizon, trials, seed):
        counts = _window_mask(hits, classes, horizon).sum(axis=1, dtype=np.int64)
        hist += np.bincount(np.minimum(counts, r_max + 1), minlength=r_max + 2)
    masses = tuple(float(h) / trials for h in hist[: r_max + 1])
    tail = float(hist[r_max + 1]) / trials
    return CountDistribution(masses=masses, tail_mass=tail, provenance="monte-carlo")


def _checked_sampling(model, target, horizon: int, trials: int, r_max: int = 0) -> tuple[int, ...]:
    """``_checked_target`` for the sampling engines, which also need a target
    the sampler can draw and at least one trial."""
    tw = _checked_target(model, target, horizon, r_max)
    outside = [s for s in tw if s not in model.alphabet]
    if outside:
        raise ValueError(f"symbol {outside[0]} lies outside the sampled alphabet "
                         f"{model.alphabet}, past the sampling cutoff: sampled words never contain it")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return tw


def _chunk_streams(trials: int, seed):
    """(rows, generator) per chunk of at most ``_STREAM_ROWS`` of ``trials``
    rows: chunk c reads the c-th child stream of ``seed``."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for c, child in enumerate(seq.spawn((trials + _STREAM_ROWS - 1) // _STREAM_ROWS)):
        yield min(_STREAM_ROWS, trials - c * _STREAM_ROWS), np.random.default_rng(child)


def _sampled_classes(model, env: Environment, tw, horizon: int, trials: int, seed):
    """(hits, classes) per slab of rows of ``trials`` samples of
    horizon + len(tw) positions: ``hits[classes[d]]`` is the (rows, length)
    mask of the positions holding the target's d-th symbol, one mask per
    distinct target symbol.

    At depth 1 a return needs only the class of each position: which
    distinct target symbol, if any, sits there.  Each position is drawn from
    one uniform, so the class masks come from the uniforms of ``sample_words``'
    own streams compared with the intervals of ``_class_bounds``; no other
    symbol is resolved.  Slabs of about ``_MC_SLAB_FLOATS`` uniforms reuse
    one uniforms and one mask buffer (with a last, scratch plane when some
    class needs a lower test); each consumer reduces a slab before it asks
    for the next.  At depth > 1 the masks compare ``sample_words``' words
    with each distinct target symbol.
    """
    length = horizon + len(tw)
    distinct = sorted(set(tw), key=model.alphabet.index)
    classes = [distinct.index(s) for s in tw]
    if model.depth > 1:
        for take, rng in _chunk_streams(trials, seed):
            words = model.sample_words(env, 0, length, take, rng)
            yield [words == s for s in distinct], classes
        return
    lo, hi = _class_bounds(model, env, distinct, length)
    # u >= 0 always holds, so a class whose interval starts at 0 everywhere
    # (the first symbol of the prefix) needs no lower test
    lower = lo.any(axis=1)
    # rows drawn one slab after another read the generator's stream in order
    rows = min(max(1, _MC_SLAB_FLOATS // length), _STREAM_ROWS, trials)
    u_buf = np.empty((rows, length))
    hit_buf = np.empty((len(distinct) + int(lower.any()), rows, length), dtype=bool)
    for take, rng in _chunk_streams(trials, seed):
        for done in range(0, take, rows):
            m = min(rows, take - done)
            u, hits = u_buf[:m], hit_buf[:, :m]
            rng.random(out=u)
            for j in range(len(distinct)):
                np.less(u, hi[j], out=hits[j])
                if lower[j]:
                    hits[j] &= np.greater_equal(u, lo[j], out=hits[-1])
            yield hits, classes


def _class_bounds(model, env: Environment, distinct, length: int):
    """(lo, hi), each (len(distinct), length): a uniform u at position i draws
    symbol s_j = distinct[j] when lo[j, i] <= u < hi[j, i].

    These are the bounds of s_j's interval in the partition
    ``_cumulative_weights`` gives ``sample_words``, read only over the
    alphabet prefix up to the largest target symbol; hi is 1 when s_j is
    the last symbol of a complete alphabet, where ``sample_words`` draws it
    past the last sum too.
    """
    alphabet = model.alphabet
    prefix = alphabet[: alphabet.index(distinct[-1]) + 1]
    columns = [prefix.index(s) for s in distinct]
    lo = np.empty((len(distinct), length))
    hi = np.empty((len(distinct), length))
    for a, cum in _cumulative_weights(model, env, 0, length, prefix, _SLAB_CELLS):
        lo[:, a : a + len(cum)] = cum[:, columns].T
        hi[:, a : a + len(cum)] = cum[:, [c + 1 for c in columns]].T
    if model.tail_mass_bound == 0.0 and distinct[-1] == alphabet[-1]:
        hi[-1] = 1.0
    return lo, hi
