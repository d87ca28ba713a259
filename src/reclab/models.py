"""
Random Bernoulli measure families over a driving environment.

A model owns a driving law (the distribution of i.i.d. environment
coordinates), per-position symbol weights p_s(w_i) read off the coordinate
at each shift position, the induced marginal (coordinate-averaged) weights,
and a closed-form cluster parameter theta for periodic points:

    theta(x) = prod_s pbar_s^{N_s}

where pbar_s is the marginal weight of symbol s and N_s counts s in one
minimal period of x.

Two families are provided.  ``TwoElementModel`` is a binary-alphabet family
driven by a Bernoulli coin: the weight of symbol 0 is alpha or beta
depending on the driving coordinate.  ``CountableModel`` is an infinite-
alphabet family driven by a uniform coordinate u in [eps, 1], with symbol
weights proportional to 1/(n log^{1+u} n) for n >= 3; the alphabet is
truncated at a cutoff S for sampling, and the neglected mass is certified
by an integral bound and carried around as ``tail_mass_bound``.  Sampled
tail symbols are mapped to a sentinel that never matches any cylinder.

Environments are finite, explicitly sized windows of coordinates; reading
past the window is an error, never a silent extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .symbolic import SENTINEL_SYMBOL, PeriodicPoint, Word, as_word

__all__ = [
    "Environment",
    "TwoElementModel",
    "CountableModel",
    "MarginalModel",
    "MixingProfile",
    "MixingReport",
    "SENTINEL_SYMBOL",
    "check_psi_mixing",
]

# Summation horizon for the countable-model normaliser; the remainder is
# added back as a midpoint-rule integral, accurate to ~1e-11 absolute.
_NORMALIZER_TERMS = 40_000

_normalizer_grid_cache: tuple[np.ndarray, np.ndarray] | None = None


def _normalizer_grid() -> tuple[np.ndarray, np.ndarray]:
    """(1/n, log log n) over the summation grid n = 3.._NORMALIZER_TERMS."""
    global _normalizer_grid_cache
    if _normalizer_grid_cache is None:
        n = np.arange(3, _NORMALIZER_TERMS + 1, dtype=float)
        _normalizer_grid_cache = (1.0 / n, np.log(np.log(n)))
    return _normalizer_grid_cache


@dataclass(frozen=True, eq=False)
class Environment:
    """A finite window (w_0, ..., w_{L-1}) of driving coordinates."""

    window: np.ndarray
    source_seed: int | str

    @property
    def length(self) -> int:
        return len(self.window)

    def __len__(self) -> int:
        return len(self.window)

    def coordinates(self, start: int, count: int) -> np.ndarray:
        if start < 0 or count < 0 or start + count > len(self.window):
            raise ValueError(
                f"environment window overflow: need [{start}, {start + count}) "
                f"but window has length {len(self.window)}"
            )
        return self.window[start : start + count]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("index,coordinate\n")
            for i, c in enumerate(self.window):
                fh.write(f"{i},{format(float(c), '.17g')}\n")


@dataclass(frozen=True)
class MixingProfile:
    """psi-mixing metadata: psi(k) values for k = 0.., plus rate bounds.

    eta1 upper-bounds every one-symbol fiber weight; eta0 lower-bounds
    marginal n-cylinder decay (None when the alphabet is infinite and no
    uniform lower bound exists).
    """

    psi: tuple[float, ...]
    eta0: float | None
    eta1: float

    @property
    def polynomial_exponent_threshold(self) -> float | None:
        """2 log(eta1)/log(eta0): the mean-convergence results need psi(k) k^q -> 0
        for some q above this.  Metadata only, never enforced (and None for
        models without a cylinder-mass lower bound)."""
        if self.eta0 is None:
            return None
        return 2.0 * math.log(self.eta1) / math.log(self.eta0)


@dataclass(frozen=True)
class MixingReport:
    max_marginal_deviation: float
    max_fiber_deviation: float
    pairs_checked: int


class _ProductModelBase:
    """Shared machinery: everything downstream of per-position symbol weights."""

    # fiber weights are read off the environment's coordinates
    environment_free = False

    # -- hooks supplied by concrete models ---------------------------------
    def _draw_coordinates(self, rng: np.random.Generator, length: int) -> np.ndarray:
        raise NotImplementedError

    def symbol_weight_matrix(
        self, env: Environment, start: int, length: int, symbols: Sequence[int]
    ) -> np.ndarray:
        """(length, len(symbols)) array of fiber weights p_s(w_{start+i})."""
        raise NotImplementedError

    def marginal_symbol_weight(self, s: int) -> float:
        raise NotImplementedError

    def validate_target_symbol(self, s: int) -> None:
        raise NotImplementedError

    def validate_sampled_symbol(self, s: int) -> None:
        """Raise when ``sample_words`` can never draw the symbol s."""

    # -- shared operations ---------------------------------------------------
    def draw_environment(self, window_length: int, seed) -> Environment:
        if window_length < 1:
            raise ValueError("window_length must be >= 1")
        rng = np.random.default_rng(seed)
        coords = self._draw_coordinates(rng, window_length)
        coords.setflags(write=False)
        return Environment(window=coords, source_seed=_seed_label(seed))

    def fiber_cylinder_mass(self, env: Environment, w, offset: int = 0) -> float:
        word = as_word(w)
        mat = self.symbol_weight_matrix(env, offset, len(word), word.symbols)
        # column i of the matrix is the weight of word[i]; take the diagonal
        return float(np.prod(np.diagonal(mat)))

    def marginal_cylinder_mass(self, w) -> float:
        word = as_word(w)
        out = 1.0
        for s in word.symbols:
            out *= self.marginal_symbol_weight(s)
        return out

    def theta_closed_form(self, x: PeriodicPoint) -> float:
        out = 1.0
        for s in x.generator.symbols:
            self.validate_target_symbol(s)
            pbar = self.marginal_symbol_weight(s)
            if pbar <= 0.0:
                raise ValueError(
                    f"symbol {s} has zero marginal weight; theta degenerates"
                )
            out *= pbar
        return out

    # alias used by the experiment layer, uniform across model kinds
    def theta(self, x: PeriodicPoint) -> float:
        return self.theta_closed_form(x)

    def theta_ratio_sequence(self, x: PeriodicPoint, n_list: Sequence[int]) -> list[float]:
        """Ratios mass(A_{n+m}(x))/mass(A_n(x)) of marginal cylinder masses."""
        if list(n_list) != sorted(set(n_list)):
            raise ValueError("n_list must be strictly increasing")
        m = x.period
        out = []
        for n in n_list:
            a_n = self.marginal_cylinder_mass(x.prefix(n))
            a_nm = self.marginal_cylinder_mass(x.prefix(n + m))
            out.append(a_nm / a_n)
        return out

    def sample_words(
        self,
        env: Environment,
        start: int,
        length: int,
        trials: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        raise NotImplementedError

    def sample_fiber_point(
        self, env: Environment, length: int, rng: np.random.Generator
    ) -> Word:
        sampled = self.sample_words(env, 0, length, 1, rng)[0]
        return Word(tuple(int(s) for s in sampled))

    def mixing_profile(self, k_max: int = 16) -> MixingProfile:
        raise NotImplementedError


def _seed_label(seed) -> int | str:
    """Provenance of an environment's seed.

    An integer seed labels itself.  A SeedSequence is labelled by its
    entropy (low 32 bits) and, when it was spawned, its spawn key as well,
    e.g. "1/3/0", so that environments spawned from one master seed keep
    distinct labels.
    """
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence):
        ent = seed.entropy
        if isinstance(ent, (int, np.integer)):
            label = int(ent) & 0xFFFFFFFF
        else:
            label = int(ent[0]) & 0xFFFFFFFF if ent else 0
        if seed.spawn_key:
            return "/".join(str(int(v)) for v in (label, *seed.spawn_key))
        return label
    return 0


class TwoElementModel(_ProductModelBase):
    """Binary random Bernoulli family driven by a Bernoulli(driving_p) coin.

    On driving coordinate 0 the weight of symbol 0 is alpha, on coordinate 1
    it is beta; symbol 1 takes the complement.  All of alpha, beta and the
    driving weight must be strictly inside (0, 1) so that no one-symbol
    fiber weight reaches 1.
    """

    def __init__(self, alpha: float, beta: float, driving_p: float) -> None:
        for name, v in (("alpha", alpha), ("beta", beta), ("driving_p", driving_p)):
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.driving_p = float(driving_p)

    def __repr__(self) -> str:
        return (
            f"TwoElementModel(alpha={self.alpha}, beta={self.beta}, "
            f"driving_p={self.driving_p})"
        )

    def _draw_coordinates(self, rng: np.random.Generator, length: int) -> np.ndarray:
        return np.where(rng.random(length) < self.driving_p, 0, 1).astype(np.int8)

    def _weight_of_zero(self, coords: np.ndarray) -> np.ndarray:
        return np.where(coords == 0, self.alpha, self.beta)

    def symbol_weight_matrix(self, env, start, length, symbols) -> np.ndarray:
        coords = env.coordinates(start, length)
        p0 = self._weight_of_zero(coords)
        cols = []
        for s in symbols:
            if s == 0:
                cols.append(p0)
            elif s == 1:
                cols.append(1.0 - p0)
            else:
                cols.append(np.zeros(length))
        return np.stack(cols, axis=1)

    def marginal_symbol_weight(self, s: int) -> float:
        p, q = self.driving_p, 1.0 - self.driving_p
        if s == 0:
            return self.alpha * p + self.beta * q
        if s == 1:
            return (1.0 - self.alpha) * p + (1.0 - self.beta) * q
        return 0.0

    def validate_target_symbol(self, s: int) -> None:
        if s not in (0, 1):
            raise ValueError(f"two-element model has alphabet {{0, 1}}, got symbol {s}")

    def sample_words(self, env, start, length, trials, rng) -> np.ndarray:
        coords = env.coordinates(start, length)
        p0 = self._weight_of_zero(coords)
        u = rng.random((trials, length))
        return (u >= p0[None, :]).astype(np.int8)

    def mixing_profile(self, k_max: int = 16) -> MixingProfile:
        weights = (self.alpha, self.beta, 1.0 - self.alpha, 1.0 - self.beta)
        return MixingProfile(
            psi=(0.0,) * (k_max + 1), eta0=min(weights), eta1=max(weights)
        )


class CountableModel(_ProductModelBase):
    """Countable-alphabet family with weights ~ 1/(n log^{1+u} n), n >= 3.

    The driving coordinate u is uniform on [eps, 1].  Symbols 1 and 2 carry
    no mass.  For sampling, the alphabet is truncated at ``alphabet_cutoff``;
    the certified bound on the truncated mass (uniform over u) is

        sup_u G(u) * (log S)^(-eps) / eps,

    by comparison of the tail sum with the integral of 1/(x log^{1+eps} x).
    The family decays so slowly that no practical cutoff makes this bound
    small; it is therefore reported, not hidden, and sampled tail draws are
    mapped to ``SENTINEL_SYMBOL`` (which never matches a target cylinder).
    """

    def __init__(self, epsilon: float, alphabet_cutoff: int = 16384) -> None:
        if not (0.0 < epsilon < 1.0):
            raise ValueError(f"epsilon must lie strictly in (0, 1), got {epsilon}")
        if alphabet_cutoff < 8:
            raise ValueError("alphabet_cutoff must be at least 8")
        self.epsilon = float(epsilon)
        self.alphabet_cutoff = int(alphabet_cutoff)
        self._normalizer_cache: dict[float, float] = {}
        gmax = self.normalizer(1.0) * (1.0 + 1e-9)
        self.tail_mass_bound = (
            gmax * math.log(self.alphabet_cutoff) ** (-self.epsilon) / self.epsilon
        )
        # Gauss-Legendre rule on [eps, 1] for marginal weights; 64 nodes is
        # far past the accuracy needed for this analytic integrand.
        nodes, gl_weights = np.polynomial.legendre.leggauss(64)
        half = 0.5 * (1.0 - self.epsilon)
        self._gl_nodes = self.epsilon + half * (nodes + 1.0)
        self._gl_weights = gl_weights * half / (1.0 - self.epsilon)
        self._marginal_cache: dict[int, float] = {}

    def __repr__(self) -> str:
        return (
            f"CountableModel(epsilon={self.epsilon}, "
            f"alphabet_cutoff={self.alphabet_cutoff})"
        )

    # -- weight family -------------------------------------------------------
    def normalizer(self, u: float) -> float:
        """G(u) with 1/G(u) = sum_{n>=3} 1/(n log^{1+u} n)."""
        u = float(u)
        cached = self._normalizer_cache.get(u)
        if cached is not None:
            return cached
        grid_inv, grid_loglog = _normalizer_grid()
        inv_sum = float(np.sum(grid_inv * np.exp(-(1.0 + u) * grid_loglog)))
        # midpoint-rule remainder of the sum past the grid
        x0 = _NORMALIZER_TERMS + 0.5
        inv_sum += math.log(x0) ** (-u) / u
        g = 1.0 / inv_sum
        self._normalizer_cache[u] = g
        return g

    def _base_weight(self, u, s: int):
        """1/(s log^{1+u} s) for s >= 3; zero weight for s in {1, 2}."""
        if s < 3:
            return np.zeros_like(np.asarray(u, dtype=float))
        return 1.0 / (s * np.log(s) ** (1.0 + np.asarray(u, dtype=float)))

    def fiber_symbol_weight(self, u: float, s: int) -> float:
        if s < 3:
            return 0.0
        return self.normalizer(u) * float(self._base_weight(u, s))

    def symbol_weight_matrix(self, env, start, length, symbols) -> np.ndarray:
        coords = np.asarray(env.coordinates(start, length), dtype=float)
        g = np.array([self.normalizer(float(u)) for u in coords])
        cols = []
        for s in symbols:
            if s < 3:
                cols.append(np.zeros(length))
            else:
                cols.append(g * self._base_weight(coords, s))
        return np.stack(cols, axis=1)

    def marginal_symbol_weight(self, s: int) -> float:
        if s < 3:
            return 0.0
        cached = self._marginal_cache.get(s)
        if cached is not None:
            return cached
        vals = np.array(
            [self.normalizer(float(u)) for u in self._gl_nodes]
        ) * self._base_weight(self._gl_nodes, s)
        out = float(np.dot(self._gl_weights, vals))
        self._marginal_cache[s] = out
        return out

    def validate_target_symbol(self, s: int) -> None:
        if s < 3:
            raise ValueError(
                f"countable model symbols start at 3 (symbols 1, 2 carry no mass); got {s}"
            )

    def validate_sampled_symbol(self, s: int) -> None:
        if s > self.alphabet_cutoff:
            raise ValueError(
                f"symbol {s} lies above the sampling cutoff {self.alphabet_cutoff}: "
                "sampled words never contain it"
            )

    def _draw_coordinates(self, rng: np.random.Generator, length: int) -> np.ndarray:
        return rng.uniform(self.epsilon, 1.0, size=length)

    def truncated_mass(self, u: float) -> float:
        """Total weight the truncated sampler assigns to real symbols at coordinate u."""
        s_grid = np.arange(3, self.alphabet_cutoff + 1, dtype=float)
        w = 1.0 / (s_grid * np.log(s_grid) ** (1.0 + u))
        return self.normalizer(u) * float(np.sum(w))

    def sample_words(self, env, start, length, trials, rng) -> np.ndarray:
        coords = np.asarray(env.coordinates(start, length), dtype=float)
        s_grid = np.arange(3, self.alphabet_cutoff + 1, dtype=float)
        log_s = np.log(s_grid)
        out = np.empty((trials, length), dtype=np.int64)
        u = rng.random((trials, length))
        for i, c in enumerate(coords):
            w = self.normalizer(float(c)) / (s_grid * log_s ** (1.0 + c))
            cdf = np.cumsum(w)
            idx = np.searchsorted(cdf, u[:, i], side="right")
            col = idx + 3
            col[idx >= len(s_grid)] = SENTINEL_SYMBOL
            out[:, i] = col
        return out

    def mixing_profile(self, k_max: int = 16) -> MixingProfile:
        # sup over u and symbols of the one-symbol weight; attained at s = 3.
        grid = np.linspace(self.epsilon, 1.0, 257)
        eta1 = max(self.fiber_symbol_weight(float(u), 3) for u in grid) * (1 + 1e-9)
        return MixingProfile(psi=(0.0,) * (k_max + 1), eta0=None, eta1=eta1)


class MarginalModel(_ProductModelBase):
    """The coordinate-averaged (annealed) measure of a product model.

    The marginal of an i.i.d.-driven Bernoulli family is itself a product
    measure with the averaged symbol weights, so running any engine on this
    adapter integrates the environment out exactly: the result is the exact
    environment average of the quenched laws.
    """

    # the averaged weights are the same on every environment
    environment_free = True

    def __init__(self, base: _ProductModelBase) -> None:
        self.base = base
        self.tail_mass_bound = getattr(base, "tail_mass_bound", 0.0)
        self._cdf: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"MarginalModel({self.base!r})"

    def _draw_coordinates(self, rng: np.random.Generator, length: int) -> np.ndarray:
        return self.base._draw_coordinates(rng, length)

    def symbol_weight_matrix(self, env, start, length, symbols) -> np.ndarray:
        env.coordinates(start, length)  # keep the window-overflow contract
        row = np.array([self.base.marginal_symbol_weight(s) for s in symbols])
        return np.tile(row, (length, 1))

    def marginal_symbol_weight(self, s: int) -> float:
        return self.base.marginal_symbol_weight(s)

    def validate_target_symbol(self, s: int) -> None:
        self.base.validate_target_symbol(s)

    def validate_sampled_symbol(self, s: int) -> None:
        self.base.validate_sampled_symbol(s)

    def sample_words(self, env, start, length, trials, rng) -> np.ndarray:
        env.coordinates(start, length)
        if isinstance(self.base, TwoElementModel):
            p0 = self.base.marginal_symbol_weight(0)
            return (rng.random((trials, length)) >= p0).astype(np.int8)
        if isinstance(self.base, CountableModel):
            if self._cdf is None:
                syms = np.arange(3, self.base.alphabet_cutoff + 1)
                self._cdf = np.cumsum(
                    [self.base.marginal_symbol_weight(int(s)) for s in syms]
                )
            u = rng.random((trials, length))
            idx = np.searchsorted(self._cdf, u, side="right")
            out = idx + 3
            out[idx >= len(self._cdf)] = SENTINEL_SYMBOL
            return out
        raise NotImplementedError(
            f"no marginal sampler for {type(self.base).__name__}"
        )

    def mixing_profile(self, k_max: int = 16) -> MixingProfile:
        return self.base.mixing_profile(k_max)


def check_psi_mixing(
    model,
    k_list: Sequence[int],
    cylinder_pool: Sequence,
    environment: Environment | None = None,
    offset: int = 0,
) -> MixingReport:
    """Worst-case relative deviation between joint and product cylinder masses.

    For each ordered pool pair (A, B) and gap k, compares the mass of
    "A at offset, B at offset+|A|+k" against the product of the two
    single-cylinder masses, for the marginal measure and (when an
    environment is given) for the fiber measure.  Product models should
    come out at zero to rounding.
    """
    words = [as_word(w) for w in cylinder_pool]
    worst_marginal = 0.0
    worst_fiber = 0.0
    pairs = 0
    for a in words:
        for b in words:
            for k in k_list:
                if k < 0:
                    raise ValueError("gaps must be nonnegative")
                pairs += 1
                ma = model.marginal_cylinder_mass(a)
                mb = model.marginal_cylinder_mass(b)
                joint = _marginal_joint_mass(model, a, b, k)
                if ma * mb > 0:
                    worst_marginal = max(
                        worst_marginal, abs(joint - ma * mb) / (ma * mb)
                    )
                if environment is not None:
                    fa = model.fiber_cylinder_mass(environment, a, offset)
                    shift = offset + len(a) + k
                    fb = model.fiber_cylinder_mass(environment, b, shift)
                    fj = _fiber_joint_mass(model, environment, a, b, k, offset)
                    if fa * fb > 0:
                        worst_fiber = max(worst_fiber, abs(fj - fa * fb) / (fa * fb))
    return MixingReport(
        max_marginal_deviation=worst_marginal,
        max_fiber_deviation=worst_fiber,
        pairs_checked=pairs,
    )


def _gap_fills(alphabet: Sequence[int], k: int):
    if k == 0:
        yield ()
        return
    stack = [()]
    for _ in range(k):
        stack = [g + (a,) for g in stack for a in alphabet]
    yield from stack


def _marginal_joint_mass(model, a: Word, b: Word, k: int) -> float:
    """Mass of {A at 0} intersect {B at |A|+k} under the marginal measure.

    For a finite alphabet and a small gap the intersection is expanded as a
    sum of full cylinders A.g.B over all gap words g, which exercises the
    independence claim for real instead of assuming it; otherwise the gap
    positions are integrated out directly.
    """
    if isinstance(model, TwoElementModel) and k <= 12:
        total = 0.0
        for gap in _gap_fills((0, 1), k):
            merged = a.symbols + gap + b.symbols
            total += model.marginal_cylinder_mass(Word(merged))
        return total
    out = 1.0
    for s in a.symbols + b.symbols:
        out *= model.marginal_symbol_weight(s)
    return out


def _fiber_joint_mass(model, env: Environment, a: Word, b: Word, k: int, offset: int) -> float:
    if isinstance(model, TwoElementModel) and k <= 12:
        total = 0.0
        for gap in _gap_fills((0, 1), k):
            merged = a.symbols + gap + b.symbols
            total += model.fiber_cylinder_mass(env, Word(merged), offset)
        return total
    span = len(a) + k + len(b)
    symbols = a.symbols + b.symbols
    mat = model.symbol_weight_matrix(env, offset, span, symbols)
    out = 1.0
    for i, _ in enumerate(a.symbols):
        out *= mat[i, i]
    for j, _ in enumerate(b.symbols):
        out *= mat[len(a) + k + j, len(a) + j]
    return float(out)
