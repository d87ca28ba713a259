"""
Transfer-operator numerics for locally constant potentials on finite SFTs.

A potential of depth k assigns a real value to every admissible k-word.
The associated transfer matrix acts on the admissible (k-1)-words: the
entry (u, w) sums exp(potential) over the k-words that start in state u
and end in state w (for k >= 2 there is at most one such word, u followed
by the last symbol of w; for k = 1 the single empty state collects the sum
over all symbols).

With Perron data (lam, h, nu) of that matrix, the normalised potential

    f~(y) = f(y) - log lam + log h(y[0:k-1]) - log h(y[1:k])

has transfer eigenvalue 1 and zero pressure, and the invariant Gibbs
measure assigns to a state word s the weight h(s) * nu(s) (scaled so the
weights sum to one).  Cylinder masses follow by the conformality
recursion: the mass of y_0..y_{N-1} is the product of exp(f~) over all
depth-k windows times the state weight of the trailing (k-1)-word.  The
measure is a (k-1)-step Markov chain, which is what the sampling and
dynamic-programming hooks expose.

Everything here is the deterministic (environment-independent) case;
random quenched experiments on these systems degenerate to the same
measure on every fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Environment, ratio_convergence
from .symbolic import PeriodicPoint, TransitionMatrix, _is_primitive, as_word

__all__ = [
    "Potential",
    "PerronData",
    "GibbsSystem",
    "build_transfer_matrix",
    "perron_eigendata",
    "normalize_potential",
    "lift_potential",
    "fit_decay_factor",
    "bernoulli_potential",
]

class Potential:
    """A depth-k potential: a value for each admissible k-word."""

    def __init__(self, depth: int, values: dict) -> None:
        if depth < 1:
            raise ValueError(f"potential depth must be >= 1, got {depth}")
        self.depth = int(depth)
        table: dict[tuple[int, ...], float] = {}
        for key, val in values.items():
            word = as_word(key).symbols
            if len(word) != depth:
                raise ValueError(
                    f"potential key {word} has length {len(word)}, expected {depth}"
                )
            table[word] = float(val)
        self.values = table

    @classmethod
    def constant(cls, value: float, transitions: TransitionMatrix, depth: int = 2):
        words = transitions.admissible_tuples(depth)
        return cls(depth, {w: value for w in words})


def bernoulli_potential(weights, depth: int = 1) -> Potential:
    """log-weight potential whose Gibbs state is the i.i.d. product measure."""
    weights = [float(w) for w in weights]
    if abs(sum(weights) - 1.0) > 1e-12 or min(weights) <= 0.0:
        raise ValueError("weights must be positive and sum to 1")
    size = len(weights)
    full = TransitionMatrix.full(size)
    return Potential(
        depth, {w: math.log(weights[w[0]]) for w in full.admissible_tuples(depth)}
    )


@dataclass(frozen=True, eq=False)
class PerronData:
    """Leading eigendata: lam > 0, eigenfunction h, conformal weights nu.

    h satisfies h M = lam h (the operator's right eigenvector in matrix
    left-position), nu satisfies M nu = lam nu; normalised so that
    sum(nu) = 1 and nu . h = 1.
    """

    lam: float
    h: np.ndarray
    nu: np.ndarray
    states: tuple[tuple[int, ...], ...]
    residual: float


def lift_potential(potential: Potential, transitions: TransitionMatrix) -> Potential:
    """Re-express a potential one level deeper (same function of x)."""
    k = potential.depth
    return Potential(
        k + 1,
        {
            w: potential.values[w[:k]]
            for w in transitions.admissible_tuples(k + 1)
        },
    )


def build_transfer_matrix(potential: Potential, transitions: TransitionMatrix) -> np.ndarray:
    """Weighted transfer matrix over the admissible (depth-1)-word states,
    in ``transitions.admissible_tuples`` order.  Every value's weight
    exp(value) must be a positive finite float.

    A depth-1 potential reduces to the empty-word state only on a full
    shift; on a constrained shift the preimage sum depends on the first
    symbol, so the potential must be lifted to depth 2 first
    (``lift_potential``).
    """
    if not transitions.is_topologically_mixing():
        raise ValueError(
            "transition matrix is not topologically mixing: no power of the "
            f"matrix is strictly positive (size {transitions.size}, checked "
            f"exponents up to {transitions.size ** 2})"
        )
    if potential.depth == 1 and not transitions.is_full():
        raise ValueError(
            "a depth-1 potential on a constrained shift has no empty-word "
            "transfer matrix; lift it to depth 2 (lift_potential)"
        )
    k = potential.depth
    expected = set(transitions.admissible_tuples(k))
    got = set(potential.values)
    if expected != got:
        missing = sorted(expected - got)[:5]
        extra = sorted(got - expected)[:5]
        raise ValueError(
            f"potential domain mismatch: missing {missing}, extraneous {extra}"
        )
    states = tuple(transitions.admissible_tuples(k - 1))
    index = {s: i for i, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for word, value in potential.values.items():
        try:
            weight = math.exp(value)
        except OverflowError:
            weight = math.inf
        if not 0.0 < weight < math.inf:
            raise ValueError(
                f"potential value {value!r} at word {word} has weight exp(value) = "
                f"{weight!r}; it must be a positive finite float"
            )
        mat[index[word[:-1]], index[word[1:]]] += weight
    return mat


def perron_eigendata(matrix, states=None) -> PerronData:
    """Leading eigenvalue and positive left/right eigenvectors.

    One dense eigensolve of the matrix and of its transpose; the relative
    residual of both eigenvectors is checked to 1e-10 (NaN fails the check).
    ``states`` name the rows, (i,) by default; ``normalize_potential`` reads
    them, so a ``build_transfer_matrix`` result takes its states along.
    """
    mat = np.asarray(matrix, dtype=float)
    if states is None:
        states = tuple((i,) for i in range(mat.shape[0]))
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    if (mat < 0).any():
        raise ValueError("matrix must be nonnegative")
    if not _is_primitive(mat):
        raise ValueError(
            "matrix is not primitive (no strictly positive power up to exponent "
            f"{mat.shape[0] ** 2}); Perron data is not well defined"
        )

    lam, nu = _dense_leading(mat)
    lam2, h = _dense_leading(mat.T)
    lam = 0.5 * (lam + lam2)
    nu = nu / nu.sum()
    h = h / float(nu @ h)
    residual = max(
        float(np.max(np.abs(mat @ nu - lam * nu))) / (lam * float(np.max(nu))),
        float(np.max(np.abs(h @ mat - lam * h))) / (lam * float(np.max(h))),
    )
    if not residual <= 1e-10:
        raise ValueError(
            f"Perron eigendata did not reach the required residual: {residual:.3e}"
        )
    return PerronData(lam=lam, h=h, nu=nu, states=tuple(states), residual=residual)


def _dense_leading(mat: np.ndarray) -> tuple[float, np.ndarray]:
    eigvals, vecs = np.linalg.eig(mat)
    i = int(np.argmax(eigvals.real))
    lam = float(eigvals[i].real)
    v = vecs[:, i]
    v = v / v[int(np.argmax(np.abs(v)))]
    return lam, np.abs(v.real)


def normalize_potential(potential: Potential, perron: PerronData) -> Potential:
    """Subtract the pressure and the eigenfunction coboundary.

    ``perron`` is the Perron data of the potential's transfer matrix, its
    states naming the rows.  The result has transfer eigenvalue 1 and
    constant eigenfunction; a potential already in that form is returned
    unchanged up to rounding.
    """
    k = potential.depth
    index = {s: i for i, s in enumerate(perron.states)}
    log_lam = math.log(perron.lam)
    log_h = np.log(perron.h)
    values = {}
    for word, value in potential.values.items():
        values[word] = (
            value - log_lam + float(log_h[index[word[:-1]]]) - float(log_h[index[word[1:]]])
        )
    return Potential(k, values)


class GibbsSystem:
    """The invariant Gibbs state of a depth-k potential on a mixing SFT.

    Construction runs the full pipeline (transfer matrix, Perron data,
    potential normalisation, state weights); instances are immutable and
    safe to share.  The pipeline runs on the potential less c, its largest
    finite value: the shift leaves the normalised potential as it is, and
    keeps every weight exp(value - c) at most 1, so a potential whose own
    weights would overflow or vanish as floats still builds.  ``perron`` is
    therefore the Perron data of that shifted matrix, whose eigenvalue is
    lam * exp(-c); ``potential`` keeps the values as given.
    """

    # the fiber measure is the same on every environment
    environment_free = True
    tail_mass_bound = 0.0

    def __init__(self, transitions: TransitionMatrix, potential: Potential) -> None:
        self.transitions = transitions
        if potential.depth == 1 and not transitions.is_full():
            potential = lift_potential(potential, transitions)
        self.potential = potential
        self.states = tuple(transitions.admissible_tuples(potential.depth - 1))
        c = max((v for v in potential.values.values() if math.isfinite(v)), default=0.0)
        shifted = Potential(potential.depth, {w: v - c for w, v in potential.values.items()})
        self.perron = perron_eigendata(build_transfer_matrix(shifted, transitions), self.states)
        self.normalized = normalize_potential(shifted, self.perron)
        self.state_index = {s: i for i, s in enumerate(self.states)}
        self.state_masses = self.perron.h * self.perron.nu
        self.state_masses = self.state_masses / self.state_masses.sum()
        norm_matrix = build_transfer_matrix(self.normalized, transitions)
        col_defect = float(np.max(np.abs(norm_matrix.sum(axis=0) - 1.0)))
        if not col_defect <= 1e-10:
            raise ValueError(
                f"normalised operator defect {col_defect:.3e} exceeds 1e-10"
            )
        self._norm_values = {
            w: math.exp(v) for w, v in self.normalized.values.items()
        }
        self._chain = None  # chain_tables, built on first use

    # -- measure -------------------------------------------------------------
    @property
    def depth(self) -> int:
        return self.potential.depth

    @property
    def alphabet(self) -> range:
        return range(self.transitions.size)

    def validate_target(self, target) -> tuple[int, ...]:
        tw = as_word(target).symbols
        if not self.transitions.word_is_admissible(tw):
            raise ValueError(f"target {tw} is not admissible for this system")
        return tw

    def cylinder_mass(self, w) -> float:
        """Exact invariant mass of the cylinder named by w (0 if inadmissible)."""
        word = as_word(w).symbols
        if not self.transitions.word_is_admissible(word):
            return 0.0
        k = self.depth
        n = len(word)
        if n < k - 1:
            return float(
                sum(
                    self.state_masses[i]
                    for i, s in enumerate(self.states)
                    if s[:n] == word
                )
            )
        out = float(self.state_masses[self.state_index[word[n - k + 1 :]]])
        for i in range(n - k + 1):
            out *= self._norm_values[word[i : i + k]]
        return out

    def theta(self, x: PeriodicPoint) -> float:
        """exp of the normalised-potential sum over one minimal period."""
        if not self.transitions.orbit_is_admissible(x):
            raise ValueError(
                f"periodic orbit {x.generator.to_text()!r} is not admissible"
            )
        m = x.period
        k = self.depth
        total = 0.0
        for j in range(m):
            window = tuple(x.symbol_at(j + i) for i in range(k))
            total += self.normalized.values[window]
        return math.exp(total)

    def theta_report(self, x: PeriodicPoint, n_list) -> list[tuple[str, float]]:
        """The named lines of ``reclab theta``: theta, the largest deviation
        of the mass ratios from it for n from min(n_list) to max(n_list), and
        the geometric decay factor fitted to the deviations from n = 1."""
        rows = ratio_convergence(self, x, max(n_list))
        return [
            ("theta", self.theta(x)),
            ("ratio_max_deviation", max(dev for n, _, dev in rows if n >= min(n_list))),
            ("ratio_decay_factor", fit_decay_factor([dev for _, _, dev in rows])),
        ]

    # -- Markov-chain view (sampling and DP hooks) ----------------------------
    def chain_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(initial state probs, next_state[state, a], prob[state, a]).

        Where a transition is inadmissible, next_state is 0 and prob is 0.
        States are the admissible (k-1)-words; for depth 1 there is a single
        state, (), of mass 1.  Built once per system; the arrays are
        read-only.
        """
        if self._chain is not None:
            return self._chain
        size = self.transitions.size
        n_states = len(self.states)
        nxt = np.zeros((n_states, size), dtype=np.int64)
        prob = np.zeros((n_states, size))
        for i, s in enumerate(self.states):
            for a in range(size):
                word = s + (a,)
                if not self.transitions.word_is_admissible(word):
                    continue
                j = self.state_index[word[1:]]
                nxt[i, a] = j
                prob[i, a] = self._norm_values[word] * self.state_masses[j] / self.state_masses[i]
        self._chain = (self.state_masses.copy(), nxt, prob)
        for table in self._chain:
            table.setflags(write=False)
        return self._chain

    def sample_words(self, env, start, length, trials, rng) -> np.ndarray:
        """Stationary sample paths of the underlying Markov chain."""
        del env, start  # the measure does not depend on the environment
        k = self.depth
        init, nxt, prob = self.chain_tables()
        cum = np.cumsum(prob, axis=1)
        cum = cum / cum[:, -1:]  # pin row totals at exactly 1
        out = np.empty((trials, length), dtype=np.int64)
        state = rng.choice(len(self.states), size=trials, p=init)
        head = min(k - 1, length)
        if head > 0:
            head_syms = np.array([s[:head] for s in self.states], dtype=np.int64)
            out[:, :head] = head_syms[state]
        for i in range(head, length):
            u = rng.random(trials)
            rows = cum[state]
            sym = (u[:, None] > rows).sum(axis=1)
            out[:, i] = sym
            state = nxt[state, sym]
        return out

    def dp_width(self, tw) -> int:
        return len(self.states) * self.transitions.size

    def dp_tables(self, env, tw, length: int, start: int):
        """The (k-1)-step chain as the exact DP's tables: one weight table for
        every position, from any ``start`` on."""
        del env, tw, length, start  # the measure does not depend on the environment
        init, nxt, prob = self.chain_tables()
        chain, size = prob.shape
        table = np.zeros((size, chain, chain))
        table[np.arange(size), nxt, np.arange(chain)[:, None]] = prob
        return range(size), self.states, init, table[None]

    # -- uniform model-protocol adapters --------------------------------------
    def symbol_weight_matrix(self, env, start, length, symbols) -> np.ndarray:
        """Per-position symbol weights; they exist for i.i.d. (depth-1) systems only."""
        del env, start  # the measure does not depend on the environment
        if self.depth != 1:
            raise ValueError(
                "per-position symbol weights need product (i.i.d.) fibers; this "
                "Gibbs system is Markov"
            )
        row = np.array([self.cylinder_mass((s,)) for s in symbols], dtype=float)
        return np.broadcast_to(row, (length, len(row)))

    def draw_environment(self, window_length: int, seed) -> Environment:
        del seed  # the measure does not depend on the environment
        window = np.zeros(window_length)
        window.setflags(write=False)
        return Environment(window=window)

    def fiber_cylinder_mass(self, env, w, offset: int = 0) -> float:
        return self.cylinder_mass(w)

    def marginal_cylinder_mass(self, w) -> float:
        return self.cylinder_mass(w)


def fit_decay_factor(deviations, floor: float = 1e-14) -> float:
    """Geometric decay factor fitted to a deviation sequence.

    Least-squares slope of log-deviation against index, restricted to
    entries above the floor.  A sequence that is zero (or has at most one
    nonzero entry) decays perfectly and reports 0.
    """
    pts = [(i, d) for i, d in enumerate(deviations) if d > floor]
    if len(pts) <= 1:
        return 0.0
    xs = np.array([i for i, _ in pts], dtype=float)
    ys = np.log(np.array([d for _, d in pts]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return math.exp(slope)
