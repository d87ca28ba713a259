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

Monte Carlo and the cluster estimator on product fibers draw each position
straight into its class (a target symbol or "other") from one uniform and
the cumulative ``symbol_weight_matrix`` weights in alphabet order
(``sampling._class_bounds``); no product model resolves a sampled symbol.

Environments are finite, explicitly sized windows of coordinates; reading
past the window is an error, never a silent extension.

Every model (``reclab.gibbs.GibbsSystem`` too) serves the engines through
one protocol: ``validate_target``, ``alphabet`` (what Monte Carlo can
draw, complete when ``tail_mass_bound`` is 0.0), ``depth`` (1 for product
fibers), ``environment_free``, ``dp_width`` (read before any table is
built) and ``dp_tables`` (from a start position) for the exact DP and
``checks.check_psi_mixing``'s joint masses, ``symbol_weight_matrix``,
``fiber_cylinder_mass``, ``marginal_cylinder_mass``, ``draw_environment``
and ``theta_report`` (the lines of ``reclab theta``); a model of depth > 1
also answers ``sample_words``, Monte Carlo's words there.
A product model also answers ``marginal_symbol_weights(symbols)``, which
``MarginalModel`` reads; the base class's ``marginal_symbol_weight(s)`` is
its scalar view.  ``ratio_convergence`` reads the marginal mass ratios
whose limit is theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .symbolic import PeriodicPoint, as_word

__all__ = [
    "Environment", "TwoElementModel", "CountableModel", "MarginalModel", "ratio_convergence",
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

# marginal weights, and Monte Carlo's cumulative weights, are computed this
# many cells at a time (1 MB per (rows, symbols) array)
_SLAB_CELLS = 1 << 17

# nodes of the Gauss-Legendre rule that averages the countable weights over u
_GL_NODES = 64


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], read-only.

    Newton's method on P_n, all nodes at once, from the seeds
    cos(pi (k + 3/4) / (n + 1/2)); P_n and P_{n-1} come from the three-term
    recurrence j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}, and
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1).  The steps stop once the largest
    is under 2^-40; the weights are 2 / ((1 - x)(1 + x) P_n'(x)^2) at the
    last nodes.  Nodes and weights are then symmetrised.  After the seeds
    only + - * / run, so no LAPACK build or numpy version moves the rule's
    bits, and the steps converge far past the seeds' last bits.
    """
    x = np.array([math.cos(math.pi * (n - k - 0.25) / (n + 0.5)) for k in range(n)])
    largest_step = math.inf
    while True:
        prev, p = np.ones(n), x
        for j in range(2, n + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        slope = n * (x * p - prev) / ((x - 1.0) * (x + 1.0))
        if largest_step < 2.0**-40:
            break
        step = p / slope
        x = x - step
        largest_step = np.max(np.abs(step))
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    nodes, weights = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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

    def __len__(self) -> int:
        return len(self.window)

    def coordinates(self, start: int, count: int) -> np.ndarray:
        if start < 0 or count < 0 or start + count > len(self.window):
            raise ValueError(
                f"environment window overflow: need [{start}, {start + count}) "
                f"but window has length {len(self.window)}"
            )
        return self.window[start : start + count]


class _ProductModelBase:
    """Shared machinery: everything downstream of per-position symbol weights."""

    # fiber weights are read off the environment's coordinates
    environment_free = False
    depth = 1
    tail_mass_bound = 0.0
    alphabet: range

    # Concrete models supply _draw_coordinates(rng, length), symbol_weight_matrix(env,
    # start, length, symbols) (the (length, len(symbols)) fiber weights p_s(w_{start+i})),
    # marginal_symbol_weights(symbols) and validate_target_symbol(s).

    def validate_target(self, target) -> tuple[int, ...]:
        tw = as_word(target).symbols
        for s in tw:
            self.validate_target_symbol(s)
        return tw

    def dp_width(self, tw) -> int:
        # the distinct target symbols plus the lumped "everything else" symbol
        return len(set(tw)) + 1

    def dp_tables(self, env: Environment, tw, length: int, start: int):
        """A product measure as a one-state chain whose weights vary by
        position; the tables are those of positions start..length-1."""
        distinct = tuple(dict.fromkeys(tw))
        weights = self.symbol_weight_matrix(env, start, length - start, distinct)
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
        return Environment(window=coords)

    def fiber_cylinder_mass(self, env: Environment, w, offset: int = 0) -> float:
        word = as_word(w)
        mat = self.symbol_weight_matrix(env, offset, len(word), word.symbols)
        # column i of the matrix is the weight of word[i]; take the diagonal
        return float(np.prod(np.diagonal(mat)))

    def marginal_symbol_weight(self, s: int) -> float:
        return float(self.marginal_symbol_weights([s])[0])

    def marginal_cylinder_mass(self, w) -> float:
        word = as_word(w)
        out = 1.0
        for s in word.symbols:
            out *= self.marginal_symbol_weight(s)
        return out

    def theta(self, x: PeriodicPoint) -> float:
        """Closed form: the product of the marginal weights over one period."""
        out = 1.0
        for s in self.validate_target(x.generator):
            pbar = self.marginal_symbol_weight(s)
            if pbar <= 0.0:
                raise ValueError(
                    f"symbol {s} has zero marginal weight; theta degenerates"
                )
            out *= pbar
        return out

    def theta_report(self, x: PeriodicPoint, n_list: Sequence[int]) -> list[tuple[str, float]]:
        """The named lines of ``reclab theta``: theta and the largest deviation
        of the marginal mass ratios at the n of ``n_list`` from it."""
        rows = ratio_convergence(self, x, max(n_list))
        return [("theta", self.theta(x)),
                ("ratio_max_deviation", max(dev for n, _, dev in rows if n in n_list))]


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

    def marginal_symbol_weights(self, symbols) -> np.ndarray:
        p, q = self.driving_p, 1.0 - self.driving_p
        s = np.asarray(symbols)
        zero = self.alpha * p + self.beta * q
        one = (1.0 - self.alpha) * p + (1.0 - self.beta) * q
        return np.where(s == 0, zero, np.where(s == 1, one, 0.0))

    def validate_target_symbol(self, s: int) -> None:
        if s not in (0, 1):
            raise ValueError(f"two-element model has alphabet {{0, 1}}, got symbol {s}")


class CountableModel(_ProductModelBase):
    """Countable-alphabet family with weights G(u)/(n log^{1+u} n), n >= 3.

    The driving coordinate u is uniform on [eps, 1].  Symbols 1 and 2 carry
    no mass.  G(u) is the inverse of the series truncated after
    ``_NORMALIZER_TERMS`` terms plus its midpoint-rule remainder, computed
    in closed form (``_normalizers``, one vector call per weight table) to
    <= 4e-15 relative.  It lies 2.6-4.2e-13 relative from the inverse of
    the infinite series; switching to the series waits for the benchmark's
    countable references (checked to 1e-12) to be re-recorded.  Marginal
    weights are computed on each call, by quadrature over u: the
    ``_GL_NODES``-point Gauss-Legendre rule of ``_gauss_legendre`` (Newton's
    method, no LAPACK), in slabs of at most ``_SLAB_CELLS`` cells.

    For sampling, the alphabet is truncated at ``alphabet_cutoff``;
    the certified bound on the truncated mass (uniform over u) is

        sup_u G(u) * (log S)^(-eps) / eps,

    by comparison of the tail sum with the integral of 1/(x log^{1+eps} x).
    The family decays so slowly that no practical cutoff makes this bound
    small; it is therefore reported, not hidden, and Monte Carlo counts a
    draw past the cutoff as no target symbol.
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
        nodes, gl_weights = _gauss_legendre(_GL_NODES)
        half = 0.5 * (1.0 - self.epsilon)
        self._gl_nodes = self.epsilon + half * (nodes + 1.0)
        self._gl_weights = gl_weights * half / (1.0 - self.epsilon)
        self._gl_normalizers = _normalizers(self._gl_nodes)

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

    def marginal_symbol_weights(self, symbols) -> np.ndarray:
        """The marginal weight of every symbol of an array, past the cutoff
        too: 0 below 3, else the Gauss-Legendre average over u of G(u) /
        (s log^{1+u} s), in slabs of at most ``_SLAB_CELLS`` (symbol, node)
        cells.  Each entry depends on its own symbol alone, so a symbol gets
        the same bits whichever array it arrives in."""
        s = np.asarray(symbols, dtype=float)
        out = np.empty(len(s))
        step = max(1, _SLAB_CELLS // len(self._gl_nodes))
        for i in range(0, len(s), step):
            chunk = np.maximum(s[i : i + step, None], 3.0)
            vals = self._gl_normalizers * self._base_weight(self._gl_nodes, chunk)
            out[i : i + step] = (vals * self._gl_weights).sum(axis=1)
        out[s < 3] = 0.0  # symbols 1 and 2 carry no mass
        return out

    def validate_target_symbol(self, s: int) -> None:
        if s < 3:
            raise ValueError(
                f"countable model symbols start at 3 (symbols 1, 2 carry no mass); got {s}"
            )

    def _draw_coordinates(self, rng: np.random.Generator, length: int) -> np.ndarray:
        return rng.uniform(self.epsilon, 1.0, size=length)


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
        row = self.base.marginal_symbol_weights(symbols)
        return np.broadcast_to(row, (length, len(row)))

    def marginal_symbol_weights(self, symbols) -> np.ndarray:
        return self.base.marginal_symbol_weights(symbols)

    def validate_target(self, target) -> tuple[int, ...]:
        return self.base.validate_target(target)


def ratio_convergence(model, x: PeriodicPoint, n_max: int) -> list[tuple[int, float, float]]:
    """(n, ratio, |ratio - theta|) for n = 1..n_max, where ratio is the mass
    ratio mu(A_{n+m}(x)) / mu(A_n(x)) of the marginal cylinders at the
    point's minimal period m; theta is its limit."""
    if n_max < 2 * x.period:
        raise ValueError(f"n_max must be at least 2m = {2 * x.period}")
    theta = model.theta(x)
    out = []
    for n in range(1, n_max + 1):
        a_n = model.marginal_cylinder_mass(x.prefix(n))
        a_nm = model.marginal_cylinder_mass(x.prefix(n + x.period))
        ratio = a_nm / a_n
        out.append((n, ratio, abs(ratio - theta)))
    return out
