"""
Polya-Aeppli distribution: exact pmf, moments, generating function, sampling.

The Polya-Aeppli law is the compound Poisson distribution with geometric
cluster sizes.  For a rate t > 0 and a cluster parameter p in [0, 1) the
probability of observing r events is

    P(r) = e^{-t} * sum_{j=1..r} p^{r-j} (1-p)^j (t^j / j!) C(r-1, j-1)

with P(0) = e^{-t}.  The probability generating function is

    g(z) = exp(t (z - 1) / (1 - p z)),

which has mean t/(1-p), variance t(1+p)/(1-p)^2 and, for p > 0, an
essential singularity at z = 1/p.  At p = 0 the law reduces to Poisson(t).

The masses come from Panjer's recursion for compound Poisson laws (Panjer
1981, ASTIN Bulletin 12), P(r) = (t/r) sum_j j q_j P(r-j) with the
geometric cluster law q_j = (1-p) p^(j-1), carried in two running sums so
that each mass costs O(1) and no term is ever subtracted:

    V(r) = P(r-1) + p V(r-1),  W(r) = V(r) + p W(r-1),  P(r) = (1-p) t W(r) / r,

from V(0) = W(0) = 0.  A table up to r_max therefore costs O(r_max), in
plain float arithmetic.  Every quantity in the loop is a sum of
nonnegative terms, so rounding stays relative: against a 50-digit
reference over t in [0.05, 10], p in [0, 0.99] and r <= 1,000 the worst
relative error is 4.3e-15, and 5.4e-16 for the binomial moments up to
k = 5.  The three-term recurrence of the same law,
r P(r) = (2p(r-1) + (1-p)t) P(r-1) - p^2 (r-2) P(r-2), subtracts; its
relative error reaches 1.4e-12 at r = 1,533 for (t 10, p 0.95), so it is
not used.

Moments are exposed in *binomial* normalisation: ``pa_binomial_moment(k)``
returns E[C(X, k)], the k-th Taylor coefficient of the pgf at z = 1.  This
is the classical factorial moment E[X(X-1)...(X-k+1)] divided by k!.  The
binomial normalisation is the one under which the moment sums over
increasing return-time tuples (see ``reclab.returns``) hold without an
extra k! factor; keep this in mind when comparing against references that
call the same quantity a "factorial moment".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = [
    "PolyaAeppliParams",
    "CountDistribution",
    "pa_pmf",
    "pa_pmf_table",
    "pa_binomial_moment",
    "pa_mean_variance",
    "pa_pgf",
    "pa_sample_many",
]

# Cap on r_max for the limit-law tables, fixed or adaptive, and for an
# experiment's count laws (``ExperimentConfig``).  The laws we target
# (t <= 10, p <= 0.95) are far below it; a larger r_max is an input error,
# refused before any table or histogram of that length is built.
R_MAX_CAP = 200_000


def check_r_max(r_max: int) -> None:
    """Refuse an r_max outside [0, ``R_MAX_CAP``] with a ValueError."""
    if r_max < 0:
        raise ValueError(f"r_max must be nonnegative, got {r_max}")
    if r_max > R_MAX_CAP:
        raise ValueError(f"r_max must be at most {R_MAX_CAP}, got {r_max}")


@dataclass(frozen=True)
class PolyaAeppliParams:
    """Parameter pair (t, p): event rate t > 0, cluster geometry p in [0, 1).

    p = 1 is rejected: the pmf polynomial is undefined there and the law
    degenerates.
    """

    t: float
    p: float

    def __post_init__(self) -> None:
        if not (self.t > 0.0) or not math.isfinite(self.t):
            raise ValueError(f"t must be a finite positive real, got {self.t}")
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"p must lie in [0, 1), got {self.p}")


@dataclass(frozen=True)
class CountDistribution:
    """A truncated law: masses for r = 0..r_max, the tail mass beyond, and
    the provenance ("polya-aeppli" for limit-law tables, else the engine).

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


def _panjer(rate: float, p: float, first: float):
    """Yield a(0) = ``first``, a(1), a(2), ...: the coefficients of
    first * exp(rate * z / (1 - p z)), by the subtraction-free recursion of
    the module docstring with (1-p) t replaced by ``rate``."""
    a, v, w, r = first, 0.0, 0.0, 0
    while True:
        yield a
        r += 1
        v = a + p * v
        w = v + p * w
        a = rate * w / r


def _masses(params: PolyaAeppliParams):
    """Yield P(0), P(1), ... of the law."""
    return _panjer((1.0 - params.p) * params.t, params.p, math.exp(-params.t))


def pa_pmf(params: PolyaAeppliParams, r: int) -> float:
    """Probability of exactly r events under the Polya-Aeppli law."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    return next(islice(_masses(params), r, None))


def pa_binomial_moment(params: PolyaAeppliParams, k: int) -> float:
    """k-th binomial moment E[C(X, k)] (the k! -normalised factorial moment).

    g(1 + u) = exp(t u / (1 - p - p u)), so with u = (1-p) z the moment is
    (1-p)^-k times the z^k coefficient of exp(t z / (1 - p z)): the pmf
    recursion started at 1 with rate t in place of (1-p) t.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return next(islice(_panjer(params.t, params.p, 1.0), k, None)) / (1.0 - params.p) ** k


def pa_mean_variance(params: PolyaAeppliParams) -> tuple[float, float]:
    """Closed-form (mean, variance) = (t/(1-p), t(1+p)/(1-p)^2)."""
    q = 1.0 - params.p
    return params.t / q, params.t * (1.0 + params.p) / (q * q)


def pa_pgf(params: PolyaAeppliParams, z: float) -> float:
    """Probability generating function exp(t (z-1)/(1 - p z)).

    Defined for |z| < 1/p: the series has an essential singularity at
    z = 1/p and diverges outside that radius.
    """
    if params.p > 0.0 and abs(z) * params.p >= 1.0:
        raise ValueError(
            f"pgf series diverges for |z| >= 1/p (p={params.p}, z={z})"
        )
    if z == 1.0:
        return 1.0
    return math.exp(params.t * (z - 1.0) / (1.0 - params.p * z))


def pa_pmf_table(
    params: PolyaAeppliParams,
    r_max: int | None = None,
    tail_tol: float = 1e-12,
) -> CountDistribution:
    """Tabulate the pmf up to r_max, recording the remaining mass as tail.

    With ``r_max=None`` the truncation point is chosen adaptively: the table
    grows until the residual first moment (against the closed form t/(1-p))
    certifies, via Markov's inequality, that the neglected mass is below
    ``tail_tol``, and until the residual second moment is small enough that
    mean/variance computed from the table are good to ~1e-9.  The first
    criterion alone stops too early for variance work when p is close to 1.
    A law whose residuals do not meet both bounds within ``R_MAX_CAP``
    entries, or whose masses vanish first, is refused with a ValueError.
    A fixed table has the bits of the adaptive table's first entries.
    """
    if r_max is not None:
        check_r_max(r_max)
        return _finish_table(list(islice(_masses(params), r_max + 1)))

    mean = params.t / (1.0 - params.p)
    second = 2.0 * pa_binomial_moment(params, 2) + mean  # E[X^2]
    masses: list[float] = []
    partial_first = 0.0
    partial_second = 0.0
    stagnant = 0
    for r, m in enumerate(_masses(params)):
        masses.append(m)
        partial_first += r * m
        partial_second += r * r * m
        if r > mean:
            resid1 = max(mean - partial_first, 0.0)
            resid2 = max(second - partial_second, 0.0)
            if resid1 / (r + 1.0) < tail_tol and resid2 < 1e-9:
                break
            # A correct pmf whose masses have died off satisfies the bounds
            # shortly after; a long dead stretch without them means the
            # residuals are stuck and the values cannot be a pmf.
            stagnant = stagnant + 1 if m < 1e-16 else 0
            if stagnant > 2000:
                raise ValueError(
                    "pmf masses vanished but the moment residuals did not; "
                    f"the values do not normalise (params {params})"
                )
        if r >= R_MAX_CAP:
            raise ValueError(
                f"adaptive pmf table exceeded {R_MAX_CAP} entries "
                f"for params {params}"
            )
    return _finish_table(masses)


def _finish_table(masses: list[float]) -> CountDistribution:
    tail = 1.0 - math.fsum(masses)
    if tail < 0.0:
        if tail < -1e-12:
            raise AssertionError(f"pmf table overshoots 1 by {-tail}")
        tail = 0.0
    return CountDistribution(masses=tuple(masses), tail_mass=tail, provenance="polya-aeppli")


def pa_sample_many(
    params: PolyaAeppliParams, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``size`` independent variates via the compound representation.

    A Poisson(t) number of clusters per variate, each contributing an
    independent geometric size on {1, 2, ...} with success probability 1-p.
    The pgf of this compound, exp(t (h(z)-1)) with h(z) = (1-p)z/(1-pz), is
    the Polya-Aeppli generating function.
    """
    counts = rng.poisson(params.t, size=size)
    if params.p == 0.0:
        return counts.astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(size, dtype=np.int64)
    sizes = rng.geometric(1.0 - params.p, size=total)
    owner = np.repeat(np.arange(size), counts)
    return np.bincount(owner, weights=sizes, minlength=size).astype(np.int64)
