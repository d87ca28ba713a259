"""Fiber words drawn as Monte Carlo draws its classes: the reference the
sampling tests compare the class masks with.

At depth 1 the package never resolves a sampled symbol; this does, from
the same uniforms, against its own partition of [0, 1): the cumulative
fiber weights of the model's whole ``alphabet``, in alphabet order.
"""

import numpy as np


def sampled_words(model, env, length: int, trials: int, rng) -> np.ndarray:
    """(trials, length) words from position 0 on, one uniform per position in
    row order: each draws the symbol whose interval holds it.  Past the last
    sum lies that last symbol when the alphabet is complete, else symbol 1,
    which carries no mass in a countable model and is never a target symbol.
    At depth > 1 the model's own ``sample_words`` draws the words."""
    if model.depth > 1:
        return model.sample_words(env, 0, length, trials, rng)
    symbols = np.asarray(model.alphabet)
    past = symbols[-1] if model.tail_mass_bound == 0.0 else 1
    symbols = np.append(symbols, past)
    cum = np.cumsum(model.symbol_weight_matrix(env, 0, length, model.alphabet), axis=1)
    u = rng.random((trials, length))
    out = np.empty((trials, length), dtype=np.int64)
    for k in range(length):
        out[:, k] = symbols[np.searchsorted(cum[k], u[:, k], side="right")]
    return out
