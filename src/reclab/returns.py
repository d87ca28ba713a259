"""
Return counting and exact distributions of the return count.

Given a target cylinder word of length n and a horizon N, the return count
of a sequence z is the number of positions j in [1, N] at which the window
z_j..z_{j+n-1} equals the target (position 0 is deliberately excluded:
counts are returns, not an initial hit).  Three engines produce the
distribution of this count when z is drawn from a fiber measure:

* ``exact_count_distribution`` -- exact forward dynamic programming over
  ((chain state, automaton state), clamped count); the automaton is the
  border (failure-function) automaton of the target.  One core serves
  every model: a Gibbs system is its (k-1)-step Markov chain, a product
  measure the one-state chain whose symbol weights vary by position.  The
  table keeps only the joint states reachable from the start; from the
  last change of the weights on, the counting steps share one operator,
  so long stationary runs go in blocks of B steps through a B-step
  operator built once from the plain step.
* ``enumerate_count_distribution`` -- brute force over every word of the
  full length; only feasible at desk scale, kept as an independent oracle.
* ``monte_carlo_count_distribution`` -- empirical law over sampled words;
  on product fibers each position is drawn straight into its class (which
  distinct target symbol, or none), from the same uniforms and the same
  partition (``models._cumulative_weights``) as ``sample_words``, each
  run of ``_STREAM_ROWS`` rows from its own child stream of the seed.
  ``_sampled_classes`` yields class masks in slabs of ``_MC_SLAB_FLOATS``
  uniforms, and ``_window_mask`` marks where the target occurs in them; the
  cluster estimator ``checks.theta_cluster_estimate`` reads them too.

Each engine checks the target with the model's ``validate_target`` and
reads only the protocol listed in ``reclab.models``: the DP ``dp_width``
and ``dp_tables`` (whose chain ``checks.check_psi_mixing`` reads too);
enumeration a complete ``alphabet``, ``depth`` and ``symbol_weight_matrix``,
or ``fiber_cylinder_mass`` per word when ``depth`` > 1; Monte Carlo
``alphabet``, then ``symbol_weight_matrix`` and ``tail_mass_bound`` at
depth 1, ``sample_words`` at depth > 1.  ``expected_return_count``, the
exact mean, reads the per-offset placement masses of ``_placement_suffix``,
as the moment layer in ``reclab.checks`` does.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .models import _SLAB_CELLS, Environment, _cumulative_weights
from .polya_aeppli import CountDistribution
from .symbolic import _border_array, as_word

__all__ = [
    "BudgetError", "CountDistribution", "count_returns", "observation_time",
    "exact_count_distribution", "enumerate_count_distribution",
    "monte_carlo_count_distribution", "expected_return_count",
]

DEFAULT_BUDGET_CELLS = 1_000_000_000
DEFAULT_BUDGET_WORDS = 1 << 22
DEFAULT_R_MAX = 64
# floats of keep and emit operators the exact DP holds at a time: a slab of
# positions this small stays in cache, and memory does not grow with the
# horizon
_OPERATOR_SLAB_FLOATS = 1 << 14
_MC_SLAB_FLOATS = 1 << 16  # uniforms per Monte Carlo slab: with its masks, it stays in L2
# sampled rows per child stream of a Monte Carlo seed: the stream layout, so
# it fixes the sampled law of a seed
_STREAM_ROWS = 4096


class BudgetError(RuntimeError):
    """An engine refused to run past its configured compute budget."""


def count_returns(z, target, horizon: int) -> int:
    """Number of positions j in [1, horizon] where the target occurs in z."""
    zw = as_word(z).symbols
    tw = as_word(target).symbols
    n = len(tw)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if len(zw) < horizon + n:
        raise ValueError(
            f"word of length {len(zw)} too short for horizon {horizon} and "
            f"target length {n}"
        )
    return int(_window_counts(np.array([zw]), tw, horizon)[0])


def observation_time(t: float, cylinder_mass: float) -> int:
    """floor(t / mass); errors when the window would be empty or infinite."""
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    if not (cylinder_mass > 0.0):
        raise ValueError(f"cylinder mass must be positive, got {cylinder_mass}")
    if not math.isfinite(t / cylinder_mass):
        raise ValueError(f"observation window is not finite: t={t}, mass={cylinder_mass}")
    horizon = int(t / cylinder_mass)
    if horizon == 0:
        raise ValueError(
            f"observation window is empty: t={t}, mass={cylinder_mass}"
        )
    return horizon


# ---------------------------------------------------------------------------
# pattern automaton
# ---------------------------------------------------------------------------


def _advance(symbols: tuple[int, ...], border: list[int], q: int, a) -> int:
    while q > 0 and symbols[q] != a:
        q = border[q - 1]
    return q + 1 if symbols[q] == a else 0


def _automaton(target: tuple[int, ...], alphabet: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Transition and emission tables of the border automaton.

    Returns (next_state, emit), both shaped (len(alphabet), n).  A
    completed match redirects to the border state of the full target, so
    the state space stays 0..n-1.
    """
    n = len(target)
    border = _border_array(target)
    restart = border[-1] if n > 1 else 0
    next_state = np.zeros((len(alphabet), n), dtype=np.int64)
    emit = np.zeros((len(alphabet), n), dtype=bool)
    for e, a in enumerate(alphabet):
        for q in range(n):
            r = _advance(target, border, q, a)
            if r == n:
                next_state[e, q] = restart
                emit[e, q] = True
            else:
                next_state[e, q] = r
    return next_state, emit


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def _checked_target(model, target, horizon: int, r_max: int = 0) -> tuple[int, ...]:
    """The entry check every engine runs: the target's symbols, once the model
    accepts them and the horizon and ``r_max`` are nonnegative."""
    tw = model.validate_target(target)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    return tw


def exact_count_distribution(
    model,
    env: Environment,
    target,
    horizon: int,
    r_max: int = DEFAULT_R_MAX,
    budget_cells: int = DEFAULT_BUDGET_CELLS,
) -> CountDistribution:
    """Exact law of the return count via automaton dynamic programming.

    The table has J rows, the (chain, automaton) states reachable from the
    start: n automaton states for product measures (one chain state), at
    most |chain states| * n for Markov ones.  Positions whose weights vary
    take one step of O(J**2 * r_max) each; from the last change of the
    weights on (the whole horizon for Gibbs systems and ``MarginalModel``,
    the last few positions for quenched models), the run goes in blocks of
    B ~ sqrt(L * r_max / J) steps, for O(sqrt(L)) steps and
    O(sqrt(L * J * r_max) * J**2 * r_max) arithmetic in all, with
    L = horizon + n.  Rounding makes the total mass miss 1, and the mean
    miss ``expected_return_count``, by about L * 2**-52 (relative to the
    mean when it exceeds 1); nothing renormalises it.  ``budget_cells``
    caps L * n * |chain states| * |alphabet| * (r_max + 2) and exceeding it
    raises; nothing is ever silently truncated.
    """
    tw = _checked_target(model, target, horizon, r_max)
    _dp_cells(model, tw, horizon, r_max, budget_cells)
    if horizon == 0:
        return CountDistribution(
            masses=(1.0,) + (0.0,) * r_max, tail_mass=0.0, provenance="exact-dp"
        )
    length = horizon + len(tw)
    vec = _exact_dp(tw, length, *model.dp_tables(env, tw, length), r_max)
    masses = tuple(float(v) for v in vec[: r_max + 1])
    tail = float(vec[r_max + 1])
    return CountDistribution(masses=masses, tail_mass=max(tail, 0.0), provenance="exact-dp")


def _dp_cells(model, tw, horizon: int, r_max: int, budget_cells: int) -> int:
    """The exact DP's cells, L * n * ``dp_width`` * (r_max + 2) over L =
    horizon + n positions, or a BudgetError past ``budget_cells``."""
    cells = (horizon + len(tw)) * len(tw) * model.dp_width(tw) * (r_max + 2)
    if cells > budget_cells:
        raise BudgetError(f"exact DP needs {cells} cells, budget is {budget_cells}")
    return cells


def _exact_dp(tw, length, alphabet, states, init, weights, r_max):
    """Forward DP over ((chain state, automaton state), clamped count) for
    words of ``length`` symbols.

    ``states`` are the chain states, each the tuple of alphabet indices of
    the word's first symbols, and ``init`` their masses.  ``weights[i, a, c,
    d]`` is the mass of reading symbol a as the i-th symbol after those
    while the chain moves from state d to state c; the last table holds for
    every later symbol.  Each step applies a linear operator to the table: a
    count-preserving part and an emitting part that shifts the count axis
    (the last bin is absorbing).  Both parts are linear in the weight table:
    ``_step_operators`` builds those of a slab of positions, one product of
    the slab's weights with each ``_operator_blocks`` routing basis, into one
    buffer of ``_OPERATOR_SLAB_FLOATS`` floats; nothing is cached.  From the
    last change of the table on, the steps go to ``_counting_steps`` with
    the last table's operators.  Returns the law over the count bins.
    """
    n = len(tw)
    bins = r_max + 2
    next_state, emit = _automaton(tw, alphabet)
    first = len(states[0])
    joint = len(states) * n
    dist = np.zeros((joint, bins))
    for c, s in enumerate(states):
        q = count = 0
        for i, a in enumerate(s):
            if emit[a, q] and i >= n:
                count += 1
            q = next_state[a, q]
        dist[c * n + q, min(count, bins - 1)] += init[c]

    routes = _routing(next_state, emit, n)
    # joint states never reached from the initial support carry no mass
    used = (weights != 0).any(axis=0)
    support = np.einsum("acd,akqr->cqdr", used, routes).reshape(joint, joint)
    live = _reachable(support, dist.any(axis=1))
    dist = dist[live]
    blocks = _operator_blocks(routes, used, live)

    # completions before position n route normally but never count
    counting_from = max(n - first, 0)
    changes = np.flatnonzero((weights[1:] != weights[:-1]).any(axis=(1, 2, 3)))
    steady = max(counting_from, changes[-1] + 1 if changes.size else 0)
    if len(weights) < steady:  # the last table holds for every later symbol
        weights = np.concatenate([weights, np.repeat(weights[-1:], steady - len(weights), axis=0)])
    size = len(live)
    slab = max(1, _OPERATOR_SLAB_FLOATS // (2 * size * size))
    # one slab's keep and emit operators; every slab reuses the buffer
    ops = np.zeros((slab, 2, size, size))
    shifted = np.empty_like(dist)
    for start in range(0, steady, slab):
        stop = min(start + slab, steady)
        _step_operators(weights[start:stop], blocks, ops)
        for i, keep_op, emit_op in zip(range(start, stop), ops[:, 0], ops[:, 1]):
            if i >= counting_from:
                dist = _count_step(keep_op, emit_op, dist, shifted)
            else:
                dist = (keep_op + emit_op) @ dist
    steps = length - first
    if steady < steps:
        _step_operators(weights[-1:], blocks, ops)
        keep_op, emit_op = ops[0]
        dist = _counting_steps(keep_op, emit_op, dist, steps - steady)
    return dist.sum(axis=0)


def _routing(next_state, emit, n_states):
    """Per-symbol routing matrices (target, source), split by emission:
    [e, 0] routes the steps that complete no match, [e, 1] those that do."""
    n_eff = next_state.shape[0]
    routes = np.zeros((n_eff, 2, n_states, n_states))
    for e in range(n_eff):
        for q in range(n_states):
            routes[e, int(emit[e, q]), next_state[e, q], q] = 1.0
    return routes


def _operator_blocks(routes, used, live):
    """The blocks of the step operators over the ``live`` joint states that
    some weight reaches: one per pair (c, d) of chain states, as (c, d,
    target span, source span, basis).  ``live`` is sorted, so the states of
    one chain state form a span; ``basis`` holds each symbol's keep and emit
    routing between the two spans, flattened."""
    chain, auto = np.divmod(live, routes.shape[-1])
    spans = {c: slice(*np.searchsorted(chain, (c, c + 1))) for c in set(chain.tolist())}
    return [
        (c, d, spans[c], spans[d],
         routes[:, :, auto[spans[c], None], auto[spans[d]]].reshape(len(routes), -1))
        for c, d in zip(*np.nonzero(used.any(axis=0)))
        if c in spans and d in spans
    ]


def _step_operators(tables, blocks, out):
    """Write the keep and emit operators of each weight table [a, c, d] into
    ``out[p, 0]`` and ``out[p, 1]``.  They are linear in the table: block
    (c, d) is one product of the tables' weights [:, :, c, d] with the
    block's basis for the whole stack; entries outside the blocks stay 0."""
    for c, d, rows, cols, basis in blocks:
        block = out[: len(tables), :, rows, cols]
        if block.flags.c_contiguous:  # one chain state: the block is the operator
            np.matmul(tables[:, :, c, d], basis, out=block.reshape(len(tables), -1))
        else:
            block[...] = (tables[:, :, c, d] @ basis).reshape(block.shape)


def _count_step(keep_op, emit_op, dist, shifted):
    """One counting step on a (state, count) table or a stack of them.

    ``keep_op`` routes the mass whose step completes no match; ``emit_op``
    routes the mass whose step completes one, after moving its count up one
    bin (the last bin is absorbing).  ``shifted`` is scratch space shaped
    like ``dist``.
    """
    shifted[..., 0] = 0.0
    shifted[..., 1:] = dist[..., :-1]
    shifted[..., -1] += dist[..., -1]
    out = keep_op @ dist
    out += emit_op @ shifted
    return out


def _reachable(adjacency, start):
    """Indices of the states reachable from the ``start`` mask along nonzero
    (target, source) entries of ``adjacency``."""
    seen = start.copy()
    frontier = start
    while frontier.any():
        nxt = adjacency[:, frontier].any(axis=1) & ~seen
        seen |= nxt
        frontier = nxt
    return np.flatnonzero(seen)


# The block path holds the power, states**2 * bins floats, and each block
# applies it to a lagged table of bins**2 * states floats; when the larger
# of the two passes this the plain loop runs instead, whose memory is that of
# the (state, count) table.
_BLOCK_FLOATS_MAX = 1 << 20


def _counting_steps(keep_op, emit_op, dist, steps):
    """``steps`` stationary counting steps applied to the (state, count) table.

    Long runs go in blocks of B steps: the B-step operator, a polynomial
    matrix in the count truncated at the absorbing top bin, is built once by
    running the plain step on every basis table, so it carries the plain
    loop's rounding (repeated squaring would double the rounding error with
    each squaring).  A block costs about bins/2 plain steps of arithmetic
    in one call, so B ~ sqrt(steps * bins / states) balances building
    against applying; short runs, and runs whose power or lagged table
    would pass ``_BLOCK_FLOATS_MAX``, stay on the loop.
    """
    states, bins = dist.shape
    block = max(1, round(math.sqrt(steps * bins / states)))
    if steps >= 4 * block and states * bins * max(states, bins) <= _BLOCK_FLOATS_MAX:
        power = _block_operator(keep_op, emit_op, bins, block)
        for _ in range(steps // block):
            dist = _apply_block(power, dist)
        steps %= block
    shifted = np.empty_like(dist)
    for _ in range(steps):
        dist = _count_step(keep_op, emit_op, dist, shifted)
    return dist


def _block_operator(keep_op, emit_op, bins, block):
    """The ``block``-step operator as a (state, bins * state) matrix.

    Entry [t, d * states + j] is the mass carried from state j to state t
    while the count rises by d (by at least d in the top bin d = bins - 1).
    Each basis table, all mass on state j with count 0, takes the plain
    step ``block`` times, with the same bits as ``_count_step``: the kept
    part is the same stacked product, written into a reused buffer, and the
    emitting part is added one nonzero entry of ``emit_op`` at a time, a
    shifted column scaled by the entry.  Where an emit row has one entry the
    product's sum is that one rounded product plus exact zeros, so the bits
    agree; that holds for product measures and for Gibbs targets at least as
    long as the potential's depth.  Rows with several entries (depth > n)
    add their products one by one, which rounds differently.
    """
    states = keep_op.shape[0]
    tables = np.zeros((states, states, bins))
    tables[np.arange(states), np.arange(states), 0] = 1.0
    out = np.empty_like(tables)
    shifted = np.empty((states, bins))
    emits = [(t, k, emit_op[t, k]) for t, k in zip(*np.nonzero(emit_op))]
    for _ in range(block):
        np.matmul(keep_op, tables, out=out)
        for t, k, weight in emits:
            shifted[:, 0] = 0.0
            shifted[:, 1:] = tables[:, k, :-1]
            shifted[:, -1] += tables[:, k, -1]
            shifted *= weight
            out[:, t] += shifted
        tables, out = out, tables
    return np.ascontiguousarray(tables.transpose(1, 2, 0)).reshape(states, bins * states)


def _apply_block(power, dist):
    """Apply a ``_block_operator`` to a (state, count) table."""
    states, bins = dist.shape
    padded = np.zeros((states, 2 * bins - 1))
    padded[:, bins - 1 :] = dist
    # lagged[d, j, c] = dist[j, c - d], zero for c < d
    windows = np.lib.stride_tricks.sliding_window_view(padded, bins, axis=1)
    lagged = np.ascontiguousarray(windows[:, ::-1].transpose(1, 0, 2))
    # the top bin collects every count c with c + d >= bins - 1
    suffix = np.cumsum(dist[:, ::-1], axis=1)
    lagged[:, :, -1] = suffix.T
    return power @ lagged.reshape(bins * states, bins)


def enumerate_count_distribution(
    model,
    env: Environment,
    target,
    horizon: int,
    budget_words: int = DEFAULT_BUDGET_WORDS,
) -> CountDistribution:
    """Brute-force oracle: sum word masses over every word of full length.

    Kept deliberately independent of the DP engine; only usable when the
    model's full alphabet is finite and alphabet^(horizon+n) fits the
    budget.
    """
    tw = _checked_target(model, target, horizon)
    length = horizon + len(tw)
    total_words = _enumeration_words(model, length, budget_words)
    alphabet = model.alphabet
    digits = _all_words(len(alphabet), length)  # (length, total_words)
    if model.depth > 1:
        words = np.asarray(alphabet)[digits]
        probs = np.array(
            [model.fiber_cylinder_mass(env, tuple(words[:, w])) for w in range(total_words)]
        )
    else:
        wmat = model.symbol_weight_matrix(env, 0, length, alphabet)
        probs = np.prod(wmat[np.arange(length)[:, None], digits], axis=0)
    counts = _window_counts(digits.T, [alphabet.index(s) for s in tw], horizon)
    hist = np.bincount(counts, weights=probs, minlength=horizon + 1)
    return CountDistribution(
        masses=tuple(float(v) for v in hist),
        tail_mass=0.0,
        provenance="enumeration",
    )


def _enumeration_words(model, length: int, budget_words: int) -> int:
    """The words of ``length`` symbols over the model's full alphabet, or a
    BudgetError past ``budget_words`` (ValueError if the alphabet is not
    finite).  With two or more symbols any length past the budget's bit
    length is over it, so the count is formed for short lengths only."""
    if model.tail_mass_bound > 0.0:
        raise ValueError(
            f"{type(model).__name__} has no finite full alphabet; exhaustive "
            "enumeration is not available"
        )
    size = len(model.alphabet)
    if (size > 1 and length > budget_words.bit_length()) or size ** length > budget_words:
        raise BudgetError(
            f"enumeration needs {size}^{length} words, budget is {budget_words}"
        )
    return size ** length


def _chunk_streams(trials: int, seed):
    """(rows, generator) per chunk of at most ``_STREAM_ROWS`` of ``trials``
    rows: chunk c reads the c-th child stream of ``seed``."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for c, child in enumerate(seq.spawn((trials + _STREAM_ROWS - 1) // _STREAM_ROWS)):
        yield min(_STREAM_ROWS, trials - c * _STREAM_ROWS), np.random.default_rng(child)


def _window_mask(hits, classes, horizon: int) -> np.ndarray:
    """(rows, horizon) mask: [r, j - 1] is set when the target occurs in row r
    at offset j in [1, horizon]; ``hits[classes[d]]`` masks where the
    target's d-th symbol sits, and each target symbol costs one slice AND."""
    match = hits[classes[0]][:, 1 : 1 + horizon].copy()
    for d, c in enumerate(classes[1:], start=1):
        match &= hits[c][:, 1 + d : 1 + d + horizon]
    return match


def _window_counts(words, target, horizon: int) -> np.ndarray:
    """Per row of ``words``, the number of offsets j in [1, horizon] where the
    target occurs."""
    hits = {s: words == s for s in target}
    return _window_mask(hits, target, horizon).sum(axis=1, dtype=np.int64)


def _all_words(alphabet_size: int, length: int) -> np.ndarray:
    total = alphabet_size**length
    idx = np.arange(total)
    digits = np.empty((length, total), dtype=np.int64)
    for pos in range(length):
        digits[pos] = (idx // alphabet_size ** (length - 1 - pos)) % alphabet_size
    return digits


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
    one uniforms and one mask buffer (its last plane is scratch); each
    consumer reduces a slab before it asks for the next.  At depth > 1 the
    masks compare ``sample_words``' words with each distinct target symbol.
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
    # rows drawn one slab after another read the generator's stream in order
    rows = min(max(1, _MC_SLAB_FLOATS // length), _STREAM_ROWS, trials)
    u_buf = np.empty((rows, length))
    hit_buf = np.empty((len(distinct) + 1, rows, length), dtype=bool)
    for take, rng in _chunk_streams(trials, seed):
        for done in range(0, take, rows):
            m = min(rows, take - done)
            u, hits = u_buf[:m], hit_buf[:, :m]
            rng.random(out=u)
            for j in range(len(distinct)):
                np.greater_equal(u, lo[j], out=hits[j])
                hits[j] &= np.less(u, hi[j], out=hits[-1])
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


# ---------------------------------------------------------------------------
# placement masses and the exact mean
# ---------------------------------------------------------------------------


def _placement_suffix(model, env, target, horizon: int) -> np.ndarray:
    """Suffix masses per start: suffix[v-1, i] (v = 1..horizon) is the product
    of the fiber weights of target[i:] placed at absolute positions v+i
    onwards; suffix[:, 0] is the full placement mass A(v)."""
    tw = as_word(target).symbols
    n = len(tw)
    distinct = tuple(dict.fromkeys(tw))
    col_of = {s: i for i, s in enumerate(distinct)}
    wmat = model.symbol_weight_matrix(env, 0, horizon + n, distinct)
    rows = np.empty((horizon, n))
    for i, s in enumerate(tw):
        rows[:, i] = wmat[1 + i : 1 + i + horizon, col_of[s]]
    return np.cumprod(rows[:, ::-1], axis=1)[:, ::-1]


def expected_return_count(model, env: Environment, target, horizon: int) -> float:
    """Exact E[count]: the sum of fiber masses of the target at offsets 1..horizon;
    horizon times the cylinder mass when the measure is shift-invariant
    (``environment_free``)."""
    _checked_target(model, target, horizon)
    if model.environment_free:
        return horizon * model.marginal_cylinder_mass(target)
    suffix = _placement_suffix(model, env, target, horizon)
    return float(suffix[:, 0].sum())
