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
by an integral bound and carried around as ``tail_mass_bound``.

Every product-fiber draw reads one partition of [0, 1) per position: the
cumulative ``symbol_weight_matrix`` weights in alphabet order, from
``_cumulative_weights``.  ``sample_words`` maps a uniform to the symbol
whose interval holds it; past the last symbol lies ``SENTINEL_SYMBOL``
when the alphabet is truncated (it never matches a cylinder), else that
last symbol.  Monte Carlo and the cluster estimator on product fibers read
the same partition up to the largest target symbol and draw each position
straight into its class (a target symbol or "other"), never forming a word.

Environments are finite, explicitly sized windows of coordinates; reading
past the window is an error, never a silent extension.

Every model (``reclab.gibbs.GibbsSystem`` too) serves the engines through
one protocol: ``validate_target``, ``alphabet`` (what ``sample_words``
draws, complete when ``tail_mass_bound`` is 0.0), ``depth`` (1 for product
fibers), ``environment_free``, ``dp_width`` (read before any table is
built) and ``dp_tables`` for the exact DP, ``symbol_weight_matrix``,
``fiber_cylinder_mass``, ``marginal_cylinder_mass``, ``sample_words``,
``draw_environment`` and ``theta_report`` (the lines of ``reclab theta``).
A product model may add ``marginal_symbol_weights(symbols)``, the vector
form of ``marginal_symbol_weight``, which ``MarginalModel`` reads when
present.
"""

from __future__ import annotations

import functools
import itertools
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

# The countable-model normaliser G(u) is defined by
#
#     1/G(u) = sum_{n=3}^{N} f(n) + (log(N + 1/2))^(-u) / u,
#     f(x) = 1/(x log^{1+u} x),  N = _NORMALIZER_TERMS:
#
# the first N terms of the series plus its remainder by the midpoint rule.
# ``_normalizers`` computes this definition in closed form to <= 4e-15
# relative.  The definition itself lies 2.6-4.2e-13 relative from the
# infinite series (u in {0.5, 0.7, 0.999}, against a 30-digit reference);
# it is kept because the benchmark's recorded countable laws are checked to
# 1e-12 absolute and the true series would move them by ~2e-12.
_NORMALIZER_TERMS = 40_000

# Euler-Maclaurin (DLMF 2.10(i)) for the terms from _EM_START to N; the
# terms below it are summed explicitly.  The constants are built from plain
# floats and the end polynomials on first use: a first numpy kernel maps its
# code into the process, and Gibbs runs never need these.
_EM_START = 64
_HEAD = range(3, _EM_START)
_INV_HEAD = np.array([1.0 / n for n in _HEAD])
_LOGLOG_HEAD = np.array([math.log(math.log(n)) for n in _HEAD])
_LOG_ENDS = (math.log(_EM_START), math.log(_NORMALIZER_TERMS))
_LOGLOG_ENDS = np.array([math.log(v) for v in _LOG_ENDS])
# B_2/2!, B_4/4!, B_6/6!: the weights of the first, third and fifth derivatives
_BERNOULLI = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0)
# the head is summed for this many u at a time, so that its (u, term)
# temporaries stay at 2^14 floats however long the coordinate array
_HEAD_ROWS = (1 << 14) // len(_HEAD)

# sampling holds at most this many uniforms, and cumulative weights, at a time
_SLAB_CELLS = 1 << 20


@functools.cache
def _end_polynomials() -> np.ndarray:
    """Coefficients (lowest first) in a = 1 + u of P_0 and P_1, with

        (log x)^-a P(a) = f(x)/2 -+ sum_k B_2k/(2k)! f^(2k-1)(x),  k = 1..3,

    the Euler-Maclaurin end terms at x = _EM_START (minus) and N (plus).

    f^(k)(x) = x^-(k+1) (log x)^-a sum_j c_j(a) (log x)^-j with each c_j a
    polynomial in a; differentiating x^-(k+1) (log x)^-(a+j) sends c_j to
    -(k+1) c_j at j and -(a+j) c_j at j+1.  c[j][p] is the a^p coefficient.
    """
    ends = (_EM_START, _NORMALIZER_TERMS)
    out = [[0.5 / x] + [0.0] * 5 for x in ends]
    c = [[1.0] + [0.0] * 5]
    for k in range(1, 6):  # c becomes the coefficients of f^(k)
        nxt = [[0.0] * 6 for _ in range(k + 1)]
        for j, cj in enumerate(c):
            for p, v in enumerate(cj):
                nxt[j][p] -= k * v
                nxt[j + 1][p] -= j * v
                if p < 5:
                    nxt[j + 1][p + 1] -= v
        c = nxt
        if k % 2:
            for row, x, sign in zip(out, ends, (-1.0, 1.0)):
                weight = sign * _BERNOULLI[k // 2] * x ** -(k + 1)
                for j, cj in enumerate(c):
                    for p, v in enumerate(cj):
                        row[p] += weight * math.log(x) ** -j * v
    return np.array(out)


def _normalizers(u) -> np.ndarray:
    """G(u) (see ``_NORMALIZER_TERMS``) for every u of a 1-d array, u > 0.

    Every operation is elementwise or reduces within one u, so G of a
    coordinate has the same bits in any array.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0.0):
        raise ValueError("the countable normaliser needs u > 0")
    a = 1.0 + u
    head = np.empty(len(u))
    for i in range(0, len(u), _HEAD_ROWS):
        terms = np.exp(-a[i : i + _HEAD_ROWS, None] * _LOGLOG_HEAD) * _INV_HEAD
        head[i : i + _HEAD_ROWS] = terms.sum(axis=1)
    log_pow = np.exp(-np.multiply.outer(_LOGLOG_ENDS, a))  # (log x)^-a at both ends
    end_polynomials = _end_polynomials()
    poly = end_polynomials[:, -1:]
    for coeff in end_polynomials[:, -2::-1].T:
        poly = poly * a + coeff[:, None]
    ends = log_pow[0] * poly[0] + log_pow[1] * poly[1]
    # int f over [_EM_START, N] = ((log _EM_START)^-u - (log N)^-u) / u
    log_ratio = _LOGLOG_ENDS[1] - _LOGLOG_ENDS[0]
    integral = -log_pow[0] * _LOG_ENDS[0] * np.expm1(-u * log_ratio) / u
    remainder = np.exp(-u * math.log(math.log(_NORMALIZER_TERMS + 0.5))) / u
    return 1.0 / (head + integral + ends + remainder)


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
    depth = 1
    tail_mass_bound = 0.0
    alphabet: range

    # Concrete models supply _draw_coordinates(rng, length),
    # symbol_weight_matrix(env, start, length, symbols) (the (length,
    # len(symbols)) fiber weights p_s(w_{start+i})), marginal_symbol_weight(s),
    # validate_target_symbol(s) and mixing_profile(k_max).

    def validate_target(self, target) -> tuple[int, ...]:
        tw = as_word(target).symbols
        for s in tw:
            self.validate_target_symbol(s)
        return tw

    def dp_width(self, tw) -> int:
        # the distinct target symbols plus the lumped "everything else" symbol
        return len(set(tw)) + 1

    def dp_tables(self, env: Environment, tw, length: int):
        """A product measure as a one-state chain whose weights vary by position."""
        distinct = tuple(dict.fromkeys(tw))
        weights = self.symbol_weight_matrix(env, 0, length, distinct)
        other = np.clip(1.0 - weights.sum(axis=1), 0.0, 1.0)
        rows = np.column_stack([weights, other])
        # the lumped symbol matches nothing in the target
        return list(distinct) + [object()], [()], [1.0], rows[:, :, None, None]

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
        for s in self.validate_target(x.generator):
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

    def theta_report(self, x: PeriodicPoint, n_list: Sequence[int]) -> list[tuple[str, float]]:
        """The named lines of ``reclab theta``: theta and the largest deviation
        of the marginal mass ratios over ``n_list`` from it."""
        theta = self.theta(x)
        ratios = self.theta_ratio_sequence(x, n_list)
        return [("theta", theta), ("ratio_max_deviation", max(abs(r - theta) for r in ratios))]

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
        """(trials, length) words from position ``start`` on: each position's
        uniform draws the symbol of ``_cumulative_weights`` whose interval
        holds it; past the last symbol lies the sentinel when the alphabet is
        truncated, else that last symbol."""
        past = SENTINEL_SYMBOL if self.tail_mass_bound > 0.0 else self.alphabet[-1]
        symbols = np.append(np.asarray(self.alphabet), past)
        u = rng.random((trials, length))
        out = np.empty((trials, length), dtype=symbols.dtype)
        for i, cum in _cumulative_weights(self, env, start, length, self.alphabet, _SLAB_CELLS):
            for k, row in enumerate(cum[:, 1:], start=i):
                out[:, k] = symbols[np.searchsorted(row, u[:, k], side="right")]
        return out

    def sample_fiber_point(
        self, env: Environment, length: int, rng: np.random.Generator
    ) -> Word:
        sampled = self.sample_words(env, 0, length, 1, rng)[0]
        return Word(tuple(int(s) for s in sampled))


def _cumulative_weights(model, env: Environment, start: int, length: int, symbols, cells: int):
    """The partition of [0, 1) that every product-fiber draw reads.

    Yields (i, cum) per slab of at most ``cells`` weights: cum[k, c] is the
    summed fiber weight of the first c of ``symbols`` at position
    start + i + k (cum[:, 0] is 0), so a uniform u there draws symbols[c]
    when cum[k, c] <= u < cum[k, c + 1].  Over a prefix of the alphabet the
    sums are the first columns of those over the whole alphabet.  On an
    ``environment_free`` model every position has the same weights, so one
    row is summed and read at every position of the slab.
    """
    step = max(1, cells // len(symbols))
    for i in range(0, length, step):
        weights = model.symbol_weight_matrix(env, start + i, min(step, length - i), symbols)
        rows = 1 if model.environment_free else len(weights)
        cum = np.zeros((rows, len(symbols) + 1))
        np.cumsum(weights[:rows], axis=1, out=cum[:, 1:])
        yield i, np.broadcast_to(cum, (len(weights), len(symbols) + 1))


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

    alphabet = range(2)

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
        p0 = self._weight_of_zero(env.coordinates(start, length))[:, None]
        s = np.asarray(symbols)
        return np.where(s == 0, p0, np.where(s == 1, 1.0 - p0, 0.0))

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

    def mixing_profile(self, k_max: int = 16) -> MixingProfile:
        weights = (self.alpha, self.beta, 1.0 - self.alpha, 1.0 - self.beta)
        return MixingProfile(
            psi=(0.0,) * (k_max + 1), eta0=min(weights), eta1=max(weights)
        )


class CountableModel(_ProductModelBase):
    """Countable-alphabet family with weights G(u)/(n log^{1+u} n), n >= 3.

    The driving coordinate u is uniform on [eps, 1].  Symbols 1 and 2 carry
    no mass.  G(u) is the inverse of the series truncated after
    ``_NORMALIZER_TERMS`` terms plus its midpoint-rule remainder, computed
    in closed form (``_normalizers``, one vector call per weight table) to
    <= 4e-15 relative.  It lies 2.6-4.2e-13 relative from the inverse of
    the infinite series; switching to the series waits for the benchmark's
    countable references (checked to 1e-12) to be re-recorded.

    For sampling, the alphabet is truncated at ``alphabet_cutoff``;
    the certified bound on the truncated mass (uniform over u) is

        sup_u G(u) * (log S)^(-eps) / eps,

    by comparison of the tail sum with the integral of 1/(x log^{1+eps} x).
    The family decays so slowly that no practical cutoff makes this bound
    small; it is therefore reported, not hidden, and ``sample_words`` maps
    tail draws to ``SENTINEL_SYMBOL`` (which never matches a target cylinder).
    """

    def __init__(self, epsilon: float, alphabet_cutoff: int = 16384) -> None:
        if not (0.0 < epsilon < 1.0):
            raise ValueError(f"epsilon must lie strictly in (0, 1), got {epsilon}")
        if alphabet_cutoff < 8:
            raise ValueError("alphabet_cutoff must be at least 8")
        self.epsilon = float(epsilon)
        self.alphabet_cutoff = int(alphabet_cutoff)
        self.alphabet = range(3, self.alphabet_cutoff + 1)
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
        self._gl_normalizers = _normalizers(self._gl_nodes)
        # marginal weights of the alphabet, NaN until first asked for
        self._marginal_table = np.full(len(self.alphabet), np.nan)

    def __repr__(self) -> str:
        return (
            f"CountableModel(epsilon={self.epsilon}, "
            f"alphabet_cutoff={self.alphabet_cutoff})"
        )

    # -- weight family -------------------------------------------------------
    def normalizer(self, u: float) -> float:
        """G(u), with 1/G(u) the truncated series of ``_NORMALIZER_TERMS``."""
        return float(_normalizers(np.array([float(u)]))[0])

    def _base_weight(self, u, s):
        """1/(s log^{1+u} s) for symbols s >= 3, broadcast over u and s."""
        return 1.0 / (s * np.log(s) ** (1.0 + np.asarray(u, dtype=float)))

    def symbol_weight_matrix(self, env, start, length, symbols) -> np.ndarray:
        coords = np.asarray(env.coordinates(start, length), dtype=float)
        s = np.asarray(symbols, dtype=float)
        out = _normalizers(coords)[:, None] * self._base_weight(
            coords[:, None], np.maximum(s, 3.0)
        )
        out[:, s < 3] = 0.0  # symbols 1 and 2 carry no mass
        return out

    def marginal_symbol_weight(self, s: int) -> float:
        return float(self.marginal_symbol_weights([s])[0])

    def marginal_symbol_weights(self, symbols) -> np.ndarray:
        """``marginal_symbol_weight`` of every symbol of an array: 0 below 3,
        read from the alphabet's table (filled as symbols are first asked
        for), computed afresh past the cutoff."""
        s = np.asarray(symbols, dtype=float)
        out = np.zeros(s.shape)
        inside = (s >= 3) & (s <= self.alphabet_cutoff)
        index = s[inside].astype(np.intp) - 3
        # a repeated missing symbol is computed once per repeat, to the same
        # bits; np.unique's sort code would add ~1 MB to a run's peak memory
        missing = index[np.isnan(self._marginal_table[index])]
        if missing.size:
            self._marginal_table[missing] = self._quadrature_marginals(missing + 3.0)
        out[inside] = self._marginal_table[index]
        beyond = s > self.alphabet_cutoff
        if beyond.any():
            out[beyond] = self._quadrature_marginals(s[beyond])
        return out

    def _quadrature_marginals(self, s: np.ndarray) -> np.ndarray:
        """The Gauss-Legendre average over u of G(u) / (s log^{1+u} s), per
        symbol s >= 3, in slabs of at most ``_SLAB_CELLS`` (symbol, node)
        cells.  Each entry depends on its own symbol alone, so a symbol
        gets the same bits whichever array it arrives in."""
        out = np.empty(len(s))
        step = max(1, _SLAB_CELLS // len(self._gl_nodes))
        for i in range(0, len(s), step):
            chunk = s[i : i + step, None]
            vals = self._gl_normalizers * self._base_weight(self._gl_nodes, chunk)
            out[i : i + step] = (vals * self._gl_weights).sum(axis=1)
        return out

    def validate_target_symbol(self, s: int) -> None:
        if s < 3:
            raise ValueError(
                f"countable model symbols start at 3 (symbols 1, 2 carry no mass); got {s}"
            )

    def _draw_coordinates(self, rng: np.random.Generator, length: int) -> np.ndarray:
        return rng.uniform(self.epsilon, 1.0, size=length)

    def mixing_profile(self, k_max: int = 16) -> MixingProfile:
        # sup over u and symbols of the one-symbol weight; attained at s = 3.
        grid = np.linspace(self.epsilon, 1.0, 257)
        eta1 = float(np.max(_normalizers(grid) * self._base_weight(grid, 3))) * (1 + 1e-9)
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

    def __init__(self, base) -> None:
        self.base = base
        self.alphabet = base.alphabet
        self.tail_mass_bound = base.tail_mass_bound

    def __repr__(self) -> str:
        return f"MarginalModel({self.base!r})"

    def draw_environment(self, window_length: int, seed) -> Environment:
        return self.base.draw_environment(window_length, seed)

    def symbol_weight_matrix(self, env, start, length, symbols) -> np.ndarray:
        env.coordinates(start, length)  # keep the window-overflow contract
        vector = getattr(self.base, "marginal_symbol_weights", None)
        if vector is not None:
            row = vector(symbols)
        else:
            row = np.array([self.base.marginal_symbol_weight(s) for s in symbols], dtype=float)
        return np.broadcast_to(row, (length, len(row)))

    def marginal_symbol_weight(self, s: int) -> float:
        return self.base.marginal_symbol_weight(s)

    def validate_target(self, target) -> tuple[int, ...]:
        return self.base.validate_target(target)

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


def _gap_expansion(model, a: Word, b: Word, k: int, mass) -> float | None:
    """Sum of ``mass`` over the full cylinders A.g.B, g over all gap words of
    length k, when the alphabet is complete and that is at most 4096 words
    (2**12 for two symbols); None otherwise."""
    if model.tail_mass_bound > 0.0 or len(model.alphabet) ** k > 4096:
        return None
    gaps = itertools.product(model.alphabet, repeat=k)
    return sum(mass(Word(a.symbols + gap + b.symbols)) for gap in gaps)


def _marginal_joint_mass(model, a: Word, b: Word, k: int) -> float:
    """Mass of {A at 0} intersect {B at |A|+k} under the marginal measure.

    For a complete alphabet and a small gap the intersection is expanded as
    a sum of full cylinders A.g.B over all gap words g, which exercises the
    independence claim for real instead of assuming it; otherwise the gap
    positions are integrated out directly: through the k-step transition
    matrix of a Markov chain (depth > 1), as a product of one-symbol
    weights for product fibers.
    """
    expanded = _gap_expansion(model, a, b, k, model.marginal_cylinder_mass)
    if expanded is not None:
        return expanded
    if model.depth > 1:
        return _chain_joint_mass(model, a, b, k)
    out = 1.0
    for s in a.symbols + b.symbols:
        out *= model.marginal_symbol_weight(s)
    return out


def _chain_joint_mass(model, a: Word, b: Word, k: int) -> float:
    """Mass of {A at 0} intersect {B at |A|+k} under the stationary chain of
    ``model.chain_tables()``: a forward pass over the chain states, the
    start state spelling the first depth - 1 symbols, then one step per
    symbol of B and of A past the start, and the k-step transition matrix
    over the free gap."""
    init, nxt, prob = model.chain_tables()
    n_states, size = prob.shape
    steps = np.zeros((size, n_states, n_states))
    steps[np.arange(size)[:, None], np.arange(n_states), nxt.T] = prob.T
    head = model.depth - 1
    pattern = a.symbols + (None,) * k + b.symbols
    # zip stops at the shorter, so a pattern shorter than a state constrains
    # only its own positions
    mass = np.array([
        p if all(c is None or c == s for c, s in zip(pattern, state)) else 0.0
        for p, state in zip(init, model.states)
    ])
    i = head
    while i < len(pattern):
        if pattern[i] is None:
            free = len(a) + k - i
            mass = mass @ np.linalg.matrix_power(steps.sum(axis=0), free)
            i += free
        else:
            mass = mass @ steps[pattern[i]]
            i += 1
    return float(mass.sum())


def _fiber_joint_mass(model, env: Environment, a: Word, b: Word, k: int, offset: int) -> float:
    expanded = _gap_expansion(
        model, a, b, k, lambda w: model.fiber_cylinder_mass(env, w, offset)
    )
    if expanded is not None:
        return expanded
    if model.depth > 1:
        # the fiber measure of a Markov (Gibbs) system is its stationary chain
        return _chain_joint_mass(model, a, b, k)
    span = len(a) + k + len(b)
    symbols = a.symbols + b.symbols
    mat = model.symbol_weight_matrix(env, offset, span, symbols)
    out = 1.0
    for i, _ in enumerate(a.symbols):
        out *= mat[i, i]
    for j, _ in enumerate(b.symbols):
        out *= mat[len(a) + k + j, len(a) + j]
    return float(out)
