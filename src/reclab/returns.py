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
  partition (``models._cumulative_weights``) as ``sample_words``.  The
  samples come in slabs of rows from ``_sampled_classes``, and
  ``_window_mask`` marks where the target occurs in them; the cluster
  estimator ``experiments.theta_cluster_estimate`` reads the same masks.

Each engine checks the target with the model's ``validate_target`` and
reads only the protocol listed in ``reclab.models``: the DP ``dp_width``
and ``dp_tables`` (whose chain ``models.check_psi_mixing`` reads too);
enumeration a complete ``alphabet``, ``depth`` and ``symbol_weight_matrix``,
or ``fiber_cylinder_mass`` per word when ``depth`` > 1; Monte Carlo
``alphabet``, then ``symbol_weight_matrix`` and ``tail_mass_bound`` at
depth 1, ``sample_words`` at depth > 1; the moment layer
``symbol_weight_matrix``.

The module also implements the return-pattern taxonomy used by the moment
method: increasing return-time tuples, their decomposition into blocks of
immediate returns (consecutive gaps at most M) separated by long returns
(gaps above M), per-block overlaps in units of the minimal period m, the
minimal inter-block distance, and the "rare" patterns whose inter-block
distance (minus n) falls below a cutoff.  ``binomial_moment_enumeration``
sums fiber masses over all return-time tuples, which equals the binomial
moment E[C(count, r)], and ``rare_vs_main_split`` partitions that sum into
its rare and main parts.  Both run one recurrence over placement levels:
level k holds, per last placement, the mass of the k-tuples ending there
in a main and a rare vector; the next placement comes after a long gap
(g >= n, prefix sums over segments of earlier starts) or a self-overlap
gap (an extension factor), and a gap in the rare window moves mass to the
rare vector.  It costs horizon * r * (overlaps + 2) terms; the moment sum
is the case with an empty rare window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import _SLAB_CELLS, Environment, _cumulative_weights
from .symbolic import _border_array, as_word, self_overlaps

__all__ = [
    "BudgetError",
    "ReturnPattern",
    "PatternClass",
    "CountDistribution",
    "count_returns",
    "observation_time",
    "classify_pattern",
    "is_rare",
    "exact_count_distribution",
    "enumerate_count_distribution",
    "monte_carlo_count_distribution",
    "expected_return_count",
    "binomial_moment_enumeration",
    "rare_vs_main_split",
]

DEFAULT_BUDGET_CELLS = 1_000_000_000
DEFAULT_BUDGET_WORDS = 1 << 22
DEFAULT_BUDGET_TUPLES = 50_000_000
DEFAULT_R_MAX = 64
# floats of keep and emit operators the exact DP holds at a time: a slab of
# positions this small stays in cache, and memory does not grow with the
# horizon
_OPERATOR_SLAB_FLOATS = 1 << 14


class BudgetError(RuntimeError):
    """An engine refused to run past its configured compute budget."""


@dataclass(frozen=True)
class ReturnPattern:
    """A strictly increasing tuple of return times within [1, horizon]."""

    times: tuple[int, ...]
    horizon: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(int(v) for v in self.times))
        v = self.times
        if len(v) == 0:
            raise ValueError("return pattern must contain at least one time")
        if v[0] < 1 or v[-1] > self.horizon or any(a >= b for a, b in zip(v, v[1:])):
            raise ValueError(
                f"times must satisfy 1 <= v_1 < ... < v_r <= {self.horizon}, got {v}"
            )

    @property
    def r(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class PatternClass:
    """Block decomposition of a return pattern.

    ``heads`` are 1-based indices into the pattern marking block starts
    (the first is always 1); gaps at most the block threshold are
    within-block, larger gaps separate blocks.  Overlaps are within-block
    gaps in units of the minimal period m; within-block gaps that are not
    multiples of m are reported in ``non_multiple_gaps`` rather than
    rejected (they cannot arise from a periodic-point cylinder, but the
    classifier accepts general patterns).  ``delta`` is the minimal
    head-to-previous-tail distance between consecutive blocks, None for a
    single block.
    """

    j: int
    heads: tuple[int, ...]
    individual_overlaps: tuple[float, ...]
    total_overlap: float
    delta: int | None
    non_multiple_gaps: tuple[int, ...]


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


def classify_pattern(pattern, block_gap: int, period: int) -> PatternClass:
    """Decompose a return pattern into blocks of immediate returns.

    ``block_gap`` is the threshold M: consecutive gaps <= M stay within a
    block, gaps > M start a new one.  ``period`` is the unit m for the
    overlap counts.
    """
    if isinstance(pattern, ReturnPattern):
        times = pattern.times
    else:
        times = tuple(int(v) for v in pattern)
        times = ReturnPattern(times, horizon=max(times, default=0)).times
    if period < 1:
        raise ValueError("period must be >= 1")
    if block_gap < period:
        raise ValueError(f"block threshold {block_gap} must be >= period {period}")
    heads = [1]
    overlaps: list[float] = []
    non_multiple: list[int] = []
    inter_gaps: list[int] = []
    for k in range(1, len(times)):
        gap = times[k] - times[k - 1]
        if gap > block_gap:
            heads.append(k + 1)
            inter_gaps.append(gap)
        else:
            overlaps.append(gap / period)
            if gap % period != 0:
                non_multiple.append(gap)
    return PatternClass(
        j=len(heads),
        heads=tuple(heads),
        individual_overlaps=tuple(overlaps),
        total_overlap=float(sum(overlaps)),
        delta=min(inter_gaps) if inter_gaps else None,
        non_multiple_gaps=tuple(non_multiple),
    )


def is_rare(pattern_class: PatternClass, delta: int, n: int) -> bool:
    """True when the minimal inter-block distance minus n is below delta."""
    if pattern_class.j == 1:
        return False
    return pattern_class.delta - n < delta


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


@dataclass(frozen=True)
class CountDistribution:
    """A finite law r -> mass with explicit tail and provenance.

    ``bias_bound`` bounds the systematic bias of the engine.  It is 0.0 for
    every engine: the exact engines carry rounding only, and Monte Carlo
    draws every target symbol with its exact weight, so its laws carry
    sampling error only.
    """

    masses: tuple[float, ...]
    tail_mass: float
    provenance: str
    bias_bound: float = 0.0

    @property
    def r_max(self) -> int:
        return len(self.masses) - 1

    def total(self) -> float:
        return math.fsum(self.masses) + self.tail_mass

    def mean(self) -> float:
        return math.fsum(r * m for r, m in enumerate(self.masses))

    def binomial_moment(self, k: int) -> float:
        return math.fsum(math.comb(r, k) * m for r, m in enumerate(self.masses))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("r,mass,engine,tail_mass,bias_bound\n")
            for r, m in enumerate(self.masses):
                fh.write(
                    f"{r},{format(m, '.17g')},{self.provenance},"
                    f"{format(self.tail_mass, '.17g')},{format(self.bias_bound, '.17g')}\n"
                )


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
    n = len(tw)
    if horizon == 0:
        return CountDistribution(
            masses=(1.0,) + (0.0,) * r_max, tail_mass=0.0, provenance="exact-dp"
        )
    length = horizon + n
    cells = length * n * model.dp_width(tw) * (r_max + 2)
    if cells > budget_cells:
        raise BudgetError(f"exact DP needs {cells} cells, budget is {budget_cells}")
    vec = _exact_dp(tw, length, *model.dp_tables(env, tw, length), r_max)
    masses = tuple(float(v) for v in vec[: r_max + 1])
    tail = float(vec[r_max + 1])
    return CountDistribution(masses=masses, tail_mass=max(tail, 0.0), provenance="exact-dp")


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


# The block operator holds states**2 * bins floats; above this the plain
# loop runs instead, so memory stays that of the (state, count) table.
_BLOCK_FLOATS_MAX = 1 << 20


def _counting_steps(keep_op, emit_op, dist, steps):
    """``steps`` stationary counting steps applied to the (state, count) table.

    Long runs go in blocks of B steps: the B-step operator, a polynomial
    matrix in the count truncated at the absorbing top bin, is built once by
    running the plain step on every basis table, so it carries the plain
    loop's rounding (repeated squaring would double the rounding error with
    each squaring).  A block costs about bins/2 plain steps of arithmetic
    in one call, so B ~ sqrt(steps * bins / states) balances building
    against applying; short runs and large state spaces stay on the loop.
    """
    states, bins = dist.shape
    block = max(1, round(math.sqrt(steps * bins / states)))
    if steps >= 4 * block and states * states * bins <= _BLOCK_FLOATS_MAX:
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
    step ``block`` times.
    """
    states = keep_op.shape[0]
    tables = np.zeros((states, states, bins))
    tables[np.arange(states), np.arange(states), 0] = 1.0
    shifted = np.empty_like(tables)
    for _ in range(block):
        tables = _count_step(keep_op, emit_op, tables, shifted)
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
    if model.tail_mass_bound > 0.0:
        raise ValueError(
            f"{type(model).__name__} has no finite full alphabet; exhaustive "
            "enumeration is not available"
        )
    alphabet = model.alphabet
    total_words = len(alphabet) ** length
    if total_words > budget_words:
        raise BudgetError(
            f"enumeration needs {total_words} words, budget is {budget_words}"
        )
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


def _chunk_streams(trials: int, seed, chunk: int):
    """(rows, generator) per chunk of at most ``chunk`` of ``trials`` rows: one
    child stream of ``seed`` per chunk, so the draws do not depend on how the
    chunks are scheduled."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for c, child in enumerate(seq.spawn((trials + chunk - 1) // chunk)):
        yield min(chunk, trials - c * chunk), np.random.default_rng(child)


def _sampled_words(model, env: Environment, length: int, trials: int, seed, chunk: int):
    """``trials`` sampled words of ``length`` symbols, one chunk at a time."""
    for take, rng in _chunk_streams(trials, seed, chunk):
        yield model.sample_words(env, 0, length, take, rng)


def _window_mask(words, target, horizon: int) -> np.ndarray:
    """(rows, horizon) mask: [r, j - 1] is set when the target occurs in row r
    of ``words`` at offset j in [1, horizon]; one slice compare per target
    symbol."""
    match = words[:, 1 : 1 + horizon] == target[0]
    for d, s in enumerate(target[1:], start=1):
        match &= words[:, 1 + d : 1 + d + horizon] == s
    return match


def _window_counts(words, target, horizon: int) -> np.ndarray:
    """Per row of ``words``, the number of offsets j in [1, horizon] where the
    target occurs."""
    return _window_mask(words, target, horizon).sum(axis=1, dtype=np.int64)


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
    chunk: int = 4096,
) -> CountDistribution:
    """Empirical law of the return count over sampled fiber words.

    Sampling is chunked with one child stream per chunk, so results are
    reproducible for a given seed regardless of scheduling.  A target
    symbol the sampler can never draw (above a countable model's
    ``alphabet_cutoff``) is rejected; the exact engine handles it.
    """
    tw = _checked_sampling(model, target, horizon, trials, r_max)
    hist = np.zeros(r_max + 2, dtype=np.int64)
    for codes, classes in _sampled_classes(model, env, tw, horizon, trials, seed, chunk):
        counts = _window_counts(codes, classes, horizon)
        np.add.at(hist, np.minimum(counts, r_max + 1), 1)
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


def _sampled_classes(model, env: Environment, tw, horizon: int, trials: int, seed, chunk: int):
    """(codes, classes) per slab of rows of ``trials`` samples of
    horizon + len(tw) positions: the target occurs in a row of ``codes``
    where ``classes`` does.

    At depth 1 a return needs only the class of each position: which
    distinct target symbol, if any, sits there.  Each position is drawn from
    one uniform, so the class codes (0 for "other", j + 1 for the j-th
    distinct target symbol) come from the uniforms of ``sample_words``' own
    streams, compared with the intervals of ``_class_bounds``, and no other
    symbol is resolved.  At depth > 1 the codes are ``sample_words``' words
    and the classes the target itself.
    Every depth-1 slab reuses one set of uniforms, code and comparison
    buffers; each consumer reduces a slab before it asks for the next.
    """
    length = horizon + len(tw)
    if model.depth > 1:
        for words in _sampled_words(model, env, length, trials, seed, chunk):
            yield words, tw
        return
    distinct = sorted(set(tw), key=model.alphabet.index)
    lo, hi = _class_bounds(model, env, distinct, length)
    classes = [distinct.index(s) + 1 for s in tw]
    # rows drawn one slab after another read the generator's stream in order
    rows = min(max(1, _SLAB_CELLS // length), chunk, trials)
    u_buf = np.empty((rows, length))
    code_buf = np.empty((rows, length), dtype=np.min_scalar_type(len(distinct)))
    hit_buf = np.empty((2, rows, length), dtype=bool)
    for take, rng in _chunk_streams(trials, seed, chunk):
        for done in range(0, take, rows):
            m = min(rows, take - done)
            u, codes, (hit, below) = u_buf[:m], code_buf[:m], hit_buf[:, :m]
            rng.random(out=u)
            codes.fill(0)
            for j in range(len(distinct)):
                np.greater_equal(u, lo[j], out=hit)
                hit &= np.less(u, hi[j], out=below)
                np.copyto(codes, j + 1, where=hit)
            yield codes, classes


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
# moment enumeration over return-time tuples
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


def binomial_moment_enumeration(
    model,
    env: Environment,
    target,
    horizon: int,
    r: int,
    budget_terms: int = DEFAULT_BUDGET_TUPLES,
) -> float:
    """Sum of fiber masses of all r-fold return-time tuples in [1, horizon].

    The sum runs over strictly increasing tuples (v_1 < ... < v_r); the
    mass of a tuple is the fiber mass of the intersection of the shifted
    target cylinders, zero when overlapping placements conflict, and the
    whole sum equals the binomial moment E[C(count, r)] of the return
    count.  It is the module's placement recurrence with an empty rare
    window, which leaves the result identical to the naive tuple-by-tuple
    sum.
    """
    tw = _checked_target(model, target, horizon)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return 1.0
    return _placement_recurrence(model, env, tw, horizon, r, range(0), budget_terms)[1]


def rare_vs_main_split(
    model,
    env: Environment,
    target,
    horizon: int,
    r: int,
    delta: int,
    block_gap: int,
    period: int,
    budget_tuples: int = DEFAULT_BUDGET_TUPLES,
) -> tuple[float, float]:
    """Split the r-th moment sum into its rare and main parts.

    A return-time tuple is rare when some inter-block distance (a
    consecutive gap above ``block_gap``) minus the target length falls
    below ``delta``; the two partial sums reproduce
    ``binomial_moment_enumeration`` up to rounding.  ``budget_tuples`` caps
    the recurrence's term count, as ``budget_terms`` does there.
    """
    tw = _checked_target(model, target, horizon)
    if r < 1:
        raise ValueError("r must be >= 1")
    if block_gap < period:
        raise ValueError(f"block threshold {block_gap} must be >= period {period}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    # an inter-block gap g is rare when g - n < delta; overlap gaps are below n
    rare_gaps = range(block_gap + 1, len(tw) + delta)
    return _placement_recurrence(model, env, tw, horizon, r, rare_gaps, budget_tuples)


def _placement_recurrence(
    model, env: Environment, tw, horizon: int, r: int, rare_gaps: range, budget_terms: int
) -> tuple[float, float]:
    """(rare, main) fiber-mass sums over the r-fold return-time tuples (r >= 1);
    a tuple is rare once a consecutive gap lies in ``rare_gaps``.  The
    recurrence is the one described in the module docstring."""
    if r > horizon:
        return 0.0, 0.0
    n = len(tw)
    overlaps = sorted(g for g in self_overlaps(tw) if g < n) if n >= 2 else []
    terms = horizon * r * (len(overlaps) + 2)
    if terms > budget_terms:
        raise BudgetError(f"enumeration needs {terms} terms, budget is {budget_terms}")
    suffix = _placement_suffix(model, env, tw, horizon)
    a_mass = suffix[:, 0]
    # the long rare gaps [lo, hi], empty when hi = lo - 1
    lo = max(n, rare_gaps.start)
    hi = max(rare_gaps.stop - 1, lo - 1)
    starts = np.arange(horizon)

    def gap_sums(pref, g_lo, g_hi):
        # per placement v, the level summed over earlier u with g_lo <= v - u <= g_hi
        return pref[np.maximum(starts - g_lo + 1, 0)] - pref[np.maximum(starts - g_hi, 0)]

    main, rare = a_mass.copy(), np.zeros(horizon)
    for _ in range(2, r + 1):
        pref_main = np.concatenate(([0.0], np.cumsum(main)))  # pref[j] = sum_{u<=j}
        pref_rare = np.concatenate(([0.0], np.cumsum(rare)))
        keep = gap_sums(pref_main, n, lo - 1) + gap_sums(pref_main, hi + 1, horizon)
        new_main = a_mass * keep
        new_rare = a_mass * (gap_sums(pref_rare, n, horizon) + gap_sums(pref_main, lo, hi))
        for g in overlaps:
            ext = suffix[g:, n - g]
            if g in rare_gaps:
                new_rare[g:] += (main[: horizon - g] + rare[: horizon - g]) * ext
            else:
                new_main[g:] += main[: horizon - g] * ext
                new_rare[g:] += rare[: horizon - g] * ext
        main, rare = new_main, new_rare
    return float(rare.sum()), float(main.sum())
