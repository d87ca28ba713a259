"""
Return counting and exact distributions of the return count.

Given a target cylinder word of length n and a horizon N, the return count
of a sequence z is the number of positions j in [1, N] at which the window
z_j..z_{j+n-1} equals the target (position 0 is deliberately excluded:
counts are returns, not an initial hit).  Three engines produce the
distribution of this count when z is drawn from a fiber measure; two live
here, the third, Monte Carlo, in ``reclab.sampling``:

* ``exact_count_distribution`` -- exact forward dynamic programming over
  ((chain state, automaton state), clamped count); the automaton is the
  border (failure-function) automaton of the target.  One core serves
  every model: a Gibbs system is its (k-1)-step Markov chain, a product
  measure the one-state chain whose symbol weights vary by position.  The
  table keeps only the joint states reachable from the start; from the
  last change of the weights on, the counting steps share one operator,
  so long stationary runs go in blocks of B steps through a B-step
  operator built once from the plain step.  The core has an environment
  axis: ``exact_count_distributions`` steps the (state, count) tables of
  several environments as one stack, each environment with the arithmetic
  of its own run, and ``exact_count_distribution`` is its one-environment
  case.
* ``enumerate_count_distribution`` -- brute force over every word of the
  full length; only feasible at desk scale, kept as an independent oracle.

Each engine checks the target with the model's ``validate_target`` and
reads only the protocol listed in ``reclab.models``: the DP ``dp_width``
and ``dp_tables`` (whose chain ``checks.check_psi_mixing`` reads too; the
DP reads each environment's tables twice, a chunk of positions at a time
from a start position); enumeration a complete ``alphabet``, ``depth`` and
``symbol_weight_matrix``, or ``fiber_cylinder_mass`` per word when
``depth`` > 1.  ``expected_return_count``, the exact mean, reads the
per-offset placement masses of ``_placement_suffix``, as the moment layer
in ``reclab.checks`` does.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .models import Environment
from .polya_aeppli import CountDistribution
from .symbolic import _border_array, as_word

__all__ = [
    "BudgetError", "CountDistribution", "count_returns", "observation_time",
    "exact_count_distribution", "exact_count_distributions", "enumerate_count_distribution",
    "expected_return_count",
]

DEFAULT_BUDGET_CELLS = 1_000_000_000
DEFAULT_BUDGET_WORDS = 1 << 22
DEFAULT_R_MAX = 64
# floats of keep and emit operators the exact DP holds at a time: a slab of
# positions this small stays in cache, and memory does not grow with the
# horizon
_OPERATOR_SLAB_FLOATS = 1 << 14
# floats per chain state of the weight tables the exact DP's first pass reads
# at a time: a chunk of _TABLE_CHUNK_FLOATS // dp_width positions
_TABLE_CHUNK_FLOATS = 1 << 14


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
    raises; nothing is ever silently truncated.  This is the
    one-environment case of ``exact_count_distributions``.
    """
    return exact_count_distributions(model, [env], target, horizon, r_max, budget_cells)[0]


def exact_count_distributions(
    model,
    envs,
    target,
    horizon: int,
    r_max: int = DEFAULT_R_MAX,
    budget_cells: int = DEFAULT_BUDGET_CELLS,
) -> list[CountDistribution]:
    """``exact_count_distribution`` on each of one or more ``envs``, bit for
    bit, from one DP that steps the environments together.

    ``budget_cells`` applies per environment, and is checked before any
    table is built.  Each environment's weight tables are read a chunk of
    positions at a time (``dp_tables`` from a start position): all of them
    once, to find where they stop changing, and those before that again, to
    step them; so memory grows with neither the horizon nor the
    environments.
    """
    if not envs:
        raise ValueError("need at least one environment")
    tw = _checked_target(model, target, horizon, r_max)
    _dp_cells(model, tw, horizon, r_max, budget_cells)
    if horizon == 0:
        law = CountDistribution(masses=(1.0,) + (0.0,) * r_max, tail_mass=0.0, provenance="exact-dp")
        return [law] * len(envs)
    return [
        CountDistribution(masses=tuple(float(v) for v in vec[: r_max + 1]),
                          tail_mass=max(float(vec[r_max + 1]), 0.0), provenance="exact-dp")
        for vec in _exact_dp(model, envs, tw, horizon + len(tw), r_max)
    ]


def _dp_cells(model, tw, horizon: int, r_max: int, budget_cells: int) -> int:
    """The exact DP's cells, L * n * ``dp_width`` * (r_max + 2) over L =
    horizon + n positions, or a BudgetError past ``budget_cells``."""
    cells = (horizon + len(tw)) * len(tw) * model.dp_width(tw) * (r_max + 2)
    if cells > budget_cells:
        raise BudgetError(f"exact DP needs {cells} cells, budget is {budget_cells}")
    return cells


def _exact_dp(model, envs, tw, length, r_max):
    """Forward DP over ((chain state, automaton state), clamped count) for
    words of ``length`` symbols, on each of the E environments ``envs``.

    ``model.dp_tables(env, tw, stop, start)`` gives the symbols, the chain
    states (each the tuple of alphabet indices of the word's first symbols),
    their masses and the tables of positions start..stop-1: ``tables[i, a,
    c, d]`` is the mass of reading symbol a as the (start + i)-th symbol
    after those while the chain moves from state d to state c; the last
    holds for every later symbol, up to stop or past it.  A first pass reads
    each environment's tables, one environment at a time, in chunks of
    ``_TABLE_CHUNK_FLOATS`` // ``dp_width`` positions (environment 0's first
    call also gives the symbols, states and masses): it ORs the weights
    that are ever nonzero over the chunks, finds the last change across
    their edges and keeps the last table; a chunk shorter than asked for
    ends the pass.  ``_stack_steps`` reads the tables again a chunk of
    positions at a time.  Each step applies a linear operator to the table:
    a count-preserving part and an emitting part that shifts the count axis
    (the last bin is absorbing).  Both parts are linear in the weight table
    (``_step_operators``).

    Each environment is stepped up to its ``steady`` position, the last
    change of its tables; from there its steps go to ``_counting_steps``
    with its last table's operators, so its block decomposition is that of
    a run on its own.  The environments whose reachable joint states agree
    step together (``_stack_steps``).  Returns the (E, bins) laws.
    """
    chunk = max(1, _TABLE_CHUNK_FLOATS // model.dp_width(tw))
    alphabet, states, init, tables = model.dp_tables(envs[0], tw, min(chunk, length), 0)
    first = len(states[0])
    if length < first:
        raise ValueError(f"word length {length} shorter than the chain memory {first}; "
                         "use enumerate_count_distribution instead")
    n = len(tw)
    bins = r_max + 2
    next_state, emit = _automaton(tw, alphabet)
    joint = len(states) * n
    dist = np.zeros((joint, bins))
    for c, s in enumerate(states):
        q = count = 0
        for i, a in enumerate(s):
            if emit[a, q] and i >= n:
                count += 1
            q = next_state[a, q]
        dist[c * n + q, min(count, bins - 1)] += init[c]

    # per-symbol routing (target, source), split by emission: [a, 0] routes the
    # steps that complete no match, [a, 1] those that do
    routes = np.zeros((len(alphabet), 2, n, n))
    routes[np.arange(len(alphabet))[:, None], emit.astype(int), next_state, np.arange(n)] = 1.0
    # completions before position n route normally but never count
    counting_from = max(n - first, 0)
    groups, last = {}, []  # (live, used) -> (live, used, {environment: steady}); last tables
    for e, env in enumerate(envs):
        used, change, tail, rows = False, 0, None, tables if e == 0 else None
        for start in range(0, length, chunk):
            if rows is None:
                rows = model.dp_tables(env, tw, min(start + chunk, length), start)[3]
            used = used | (rows != 0).any(axis=0)
            changes = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=(1, 2, 3)))
            if changes.size:
                change = start + int(changes[-1]) + 1
            elif tail is not None and (rows[0] != tail[0]).any():  # at the chunk's edge
                change = start
            tail = rows[-1:].copy()
            if len(rows) < min(chunk, length - start):  # the last table holds from here on
                break
            rows = None
        last.append(tail)
        tables = rows = None
        # joint states never reached from the initial support carry no mass
        support = np.einsum("acd,akqr->cqdr", used, routes).reshape(joint, joint)
        live = _reachable(support, dist.any(axis=1))
        steady = groups.setdefault((live.tobytes(), used.tobytes()), (live, used, {}))[2]
        steady[e] = max(counting_from, change)
    laws = np.empty((len(envs), bins))
    for live, used, steady in groups.values():
        blocks = _operator_blocks(routes, used, live)
        for e, table in _stack_steps(model, envs, tw, last, steady, blocks, dist[live],
                                     counting_from, length - first):
            laws[e] = table.sum(axis=0)
    return laws


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


def _stack_steps(model, envs, tw, last, steady, blocks, dist, counting_from, steps):
    """(e, final (state, count) table) for each environment e of ``steady``,
    its ``steady`` position by index, each started from ``dist``.

    The stack holds the environments by decreasing ``steady``, so each
    position steps the leading slice of those that have not reached theirs:
    one product per step for the whole slice.  At its ``steady`` an
    environment leaves the stack for its ``_counting_steps`` tail, whose
    operators come from its last table ``last[e]``.  Its tables before that
    come from ``dp_tables`` on ``envs[e]``, a chunk at a time; the operators
    of a slab of positions of the slice go into one buffer of
    ``_OPERATOR_SLAB_FLOATS`` floats (a slab of one environment is the slab
    of a run on its own), made anew after each chunk; nothing is cached.
    """
    order = sorted(steady, key=steady.get, reverse=True)
    shape = last[order[0]].shape[1:]
    size = len(dist)
    slab = max(1, _OPERATOR_SLAB_FLOATS // (2 * size * size * len(order)))
    chunk = slab * max(1, _OPERATOR_SLAB_FLOATS // (slab * len(order) * math.prod(shape)))
    stack = np.repeat(dist[None], len(order), axis=0)
    shifted = np.empty_like(stack)
    k = len(order)
    ops = tables = None
    for i in range(steady[order[0]] + 1):
        while k and steady[order[k - 1]] <= i:  # order[k - 1] leaves the stack
            k -= 1
            if not k:  # the last tails run without the slab's buffers
                ops = tables = None
            e, table = order[k], stack[k]
            if steady[e] < steps:
                tail = np.zeros((1, 1, 2, size, size))
                _step_operators(last[e][None], blocks, tail)
                table = _counting_steps(tail[0, 0, 0], tail[0, 0, 1], table, steps - steady[e])
            yield e, table
        if not k:
            return
        if i % chunk == 0:  # no operators are held while the tables are built
            ops = tables = None
            tables = np.empty((k, min(chunk, steady[order[0]] - i)) + shape)
            for j, e in enumerate(order[:k]):
                rows = model.dp_tables(envs[e], tw, i + tables.shape[1], i)[3]
                tables[j, : len(rows)] = rows
                tables[j, len(rows) :] = rows[-1]  # the last table holds for every later one
            ops = np.zeros((k, slab, 2, size, size))
        if i % slab == 0:
            _step_operators(tables[:k, i % chunk : i % chunk + slab], blocks, ops)
        if i >= counting_from:
            stack = _count_step(ops[:k, i % slab, 0], ops[:k, i % slab, 1], stack[:k], shifted[:k])
        else:
            stack = (ops[:k, i % slab, 0] + ops[:k, i % slab, 1]) @ stack[:k]


def _step_operators(tables, blocks, out):
    """Write the keep and emit operators of each weight table [e, p, a, c,
    d] into ``out[e, p, 0]`` and ``out[e, p, 1]``.  They are linear in the
    table: block (c, d) is one product of the tables' weights [..., c, d]
    with the block's basis per environment; entries outside the blocks stay
    0."""
    envs, count = tables.shape[:2]
    for c, d, rows, cols, basis in blocks:
        block = out[:envs, :count, :, rows, cols]
        if block.flags.c_contiguous:  # one chain state: the block is the operator
            np.matmul(tables[..., c, d], basis, out=block.reshape(envs, count, -1))
        else:
            block[...] = (tables[..., c, d] @ basis).reshape(block.shape)


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


# The block path holds the power, states**2 * bins floats, and applies it to a
# lagged table ``_LAGGED_SLAB_FLOATS`` floats (one count column at least) at a
# time; past this the plain loop runs instead, in the (state, count) table.
_BLOCK_FLOATS_MAX = 1 << 20
_LAGGED_SLAB_FLOATS = 1 << 15


def _counting_steps(keep_op, emit_op, dist, steps):
    """``steps`` stationary counting steps applied to the (state, count) table.

    Long runs go in blocks of B steps: the B-step operator, a polynomial
    matrix in the count truncated at the absorbing top bin, is built once by
    running the plain step on every basis table, so it carries the plain
    loop's rounding (repeated squaring would double the rounding error with
    each squaring).  A block costs about bins/2 plain steps of arithmetic
    in one call, so B ~ sqrt(steps * bins / states) balances building
    against applying; short runs, and runs whose power would pass
    ``_BLOCK_FLOATS_MAX``, stay on the loop.
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
    # the spare buffer takes the power in (state, count, state) order
    np.copyto(out.reshape(states, bins, states), tables.transpose(1, 2, 0))
    return out.reshape(states, bins * states)


def _apply_block(power, dist):
    """Apply a ``_block_operator`` to a (state, count) table: the power times
    the lagged table, filled one slab of output count columns at a time.  A
    column c < bins - 1 reads only lags d <= c, so a slab below the top bin
    multiplies only the power's columns of its lags.  A table whose lagged
    copy fits one slab takes one product; several slabs may round its
    entries differently, by at most a unit in the last place per term."""
    states, bins = dist.shape
    padded = np.zeros((states, 2 * bins - 1))
    padded[:, bins - 1 :] = dist
    # windows[j, d, c] = dist[j, c - d], zero for c < d
    windows = np.lib.stride_tricks.sliding_window_view(padded, bins, axis=1)[:, ::-1]
    width = min(bins, max(1, _LAGGED_SLAB_FLOATS // (bins * states)))
    buffer = np.empty(bins * states * width)
    out = np.empty((states, bins))
    for start in range(0, bins, width):
        stop = min(start + width, bins)  # the slab reads lags d < stop
        lagged = buffer[: stop * states * (stop - start)].reshape(stop, states, -1)
        lagged[...] = windows[:, :stop, start:stop].transpose(1, 0, 2)
        if stop == bins:  # the top bin collects every count c with c + d >= bins - 1
            lagged[:, :, -1] = np.cumsum(dist[:, ::-1], axis=1).T
        out[:, start:stop] = power[:, : stop * states] @ lagged.reshape(stop * states, -1)
    return out


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
