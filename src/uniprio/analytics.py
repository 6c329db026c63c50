"""Closed-form steady-state curves for a multi-server queue with uniform priorities.

Model: customers arrive in a Poisson stream of rate ``alpha`` and are served by
``c`` identical unit-rate exponential servers. Every customer carries an
independent priority level drawn uniformly on [0, 1], and at each instant the
``c`` highest-level customers present are the ones in service (lower-level
customers are preempted and resume later with no lost work, by memorylessness).

The key structural fact: for a fixed level ``p`` the customers with level above
``p`` form an autonomous M/M/c system with thinned arrival rate
``(1 - p) * alpha``, positive recurrent exactly when ``(1 - p) * alpha < c``.
All quantities in this module are derived from that subsystem:

* ``p0_mass``             probability the subsystem above ``p`` is empty
* ``tail_pmf``            stationary count distribution of that subsystem
* ``expected_tail_count`` stationary mean count above ``p``
* ``priority_density``    density of the stationary mean measure at level ``p``
* ``sojourn_time``        mean time in system for a level-``p`` customer
* ``waiting_time``        mean time not in service for a level-``p`` customer

When ``alpha >= c`` there is a threshold level ``1 - c / alpha`` below which
these quantities diverge; see :func:`stability_threshold`.

Numerical policy: direct factorial evaluation up to ``c = 20`` servers, log-space
(``lgamma`` plus log-sum-exp) beyond that. Stability is decided by the exact
floating-point comparison ``(1 - p) * alpha < c`` with no epsilon guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "SystemParams",
    "ExtendedReal",
    "INFINITY",
    "RegimeTag",
    "StabilityRegime",
    "UnstableRegionError",
    "is_stable",
    "stability_threshold",
    "p0_mass",
    "p0_derivative",
    "tail_pmf",
    "expected_tail_count",
    "priority_density",
    "sojourn_time",
    "waiting_time",
    "mean_measure",
]

# Above this server count, factorials and powers move to log space.
_DIRECT_EVAL_MAX_SERVERS = 20


class UnstableRegionError(ValueError):
    """A per-level distribution was requested where no steady state exists.

    Raised by :func:`p0_mass`, :func:`p0_derivative` and :func:`tail_pmf` when
    ``(1 - p) * alpha >= c``. Mean-value functions do not raise; they return
    :data:`INFINITY` instead, because the divergent mean is itself meaningful.
    """


@dataclass(frozen=True)
class SystemParams:
    """Arrival rate and server count; service rates are fixed at one.

    Attributes:
        alpha: Poisson arrival rate, finite and strictly positive.
        c: number of servers, integer at least 1.
    """

    alpha: float
    c: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        if not math.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if isinstance(self.c, bool) or not isinstance(self.c, int):
            raise ValueError(f"c must be an integer, got {self.c!r}")
        if self.c < 1:
            raise ValueError(f"c must be at least 1, got {self.c}")

    @property
    def load(self) -> float:
        """Offered load per server, ``alpha / c``."""
        return self.alpha / self.c


@dataclass(frozen=True)
class ExtendedReal:
    """A nonnegative real or +infinity, carried as an explicit tagged value.

    Functions that can legitimately diverge return this wrapper instead of a
    bare float so callers must acknowledge the infinite case before doing
    arithmetic; the class intentionally defines no arithmetic operators.
    ``value`` is ``math.inf`` exactly when the quantity is infinite. Use
    :attr:`finite` when a finite number is required (it raises otherwise) and
    ``float(x)`` when rendering, where infinity is acceptable.
    """

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if math.isnan(self.value) or self.value < 0.0:
            raise ValueError(f"expected a nonnegative real or +inf, got {self.value}")

    @property
    def is_finite(self) -> bool:
        return self.value != math.inf

    @property
    def finite(self) -> float:
        """The numeric value, raising if the quantity is infinite."""
        if not self.is_finite:
            raise ValueError("value is infinite")
        return self.value

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return "ExtendedReal(inf)" if not self.is_finite else f"ExtendedReal({self.value!r})"


INFINITY = ExtendedReal(math.inf)


class RegimeTag(Enum):
    """Whether every priority level is stable, or only levels above a threshold."""

    STABLE = "stable"
    CRITICAL_OR_UNSTABLE = "critical-or-unstable"


@dataclass(frozen=True)
class StabilityRegime:
    """Classification of the whole system by its bifurcation threshold.

    ``p_star`` is ``None`` when ``alpha < c`` (every level is stable) and
    ``1 - c / alpha`` otherwise; levels at or below ``p_star`` have divergent
    tail subsystems, levels strictly above it are stable.
    """

    tag: RegimeTag
    p_star: float | None


def is_stable(params: SystemParams, p: float) -> bool:
    """True when the subsystem above level ``p`` is positive recurrent.

    Exact comparison ``(1 - p) * alpha < c``, no epsilon.
    """
    return (1.0 - p) * params.alpha < params.c


def stability_threshold(params: SystemParams) -> StabilityRegime:
    """Locate the bifurcation level, if any.

    Examples:
        >>> stability_threshold(SystemParams(alpha=5.0, c=2)).p_star
        0.6
        >>> stability_threshold(SystemParams(alpha=1.5, c=2)).p_star is None
        True
    """
    if params.alpha < params.c:
        return StabilityRegime(RegimeTag.STABLE, None)
    return StabilityRegime(RegimeTag.CRITICAL_OR_UNSTABLE, 1.0 - params.c / params.alpha)


def _check_level(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"priority level must lie in [0, 1], got {p}")
    return p


def _require_stable(params: SystemParams, p: float) -> None:
    if not is_stable(params, p):
        raise UnstableRegionError(
            f"no steady state at level p={p} for alpha={params.alpha}, c={params.c}: "
            f"thinned arrival rate {(1.0 - p) * params.alpha} is not below {params.c}"
        )


def _log_sum_exp(terms: list[float]) -> float:
    m = max(terms)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _p0_direct(a: float, c: int) -> float:
    # Normalizing constant of the M/M/c occupancy distribution, a < c.
    total = sum(a**i / math.factorial(i) for i in range(c))
    total += a**c / (math.factorial(c) * (1.0 - a / c))
    return 1.0 / total


def _log_p0(a: float, c: int) -> float:
    la = math.log(a)
    terms = [i * la - math.lgamma(i + 1) for i in range(c)]
    terms.append(c * la - math.lgamma(c + 1) - math.log(1.0 - a / c))
    return -_log_sum_exp(terms)


def p0_mass(params: SystemParams, p: float) -> float:
    """Stationary probability that no customer with level above ``p`` is present.

    This is the empty probability of an M/M/c system at arrival rate
    ``(1 - p) * alpha``:

        [ sum_{i<c} a^i / i!  +  a^c / (c! (1 - a/c)) ]^(-1),   a = (1 - p) alpha.

    Raises:
        UnstableRegionError: when ``(1 - p) * alpha >= c``.
        ValueError: when ``p`` is outside [0, 1].
    """
    p = _check_level(p)
    _require_stable(params, p)
    a = (1.0 - p) * params.alpha
    if a == 0.0:
        return 1.0
    if params.c <= _DIRECT_EVAL_MAX_SERVERS:
        return _p0_direct(a, params.c)
    return math.exp(_log_p0(a, params.c))


def p0_derivative(params: SystemParams, p: float) -> float:
    """Level-derivative of :func:`p0_mass`; strictly positive.

    The empty probability increases with the level, since raising the cutoff
    sheds load. With ``a = (1 - p) alpha`` and ``g = 1 - a/c``:

        P0(p)^2 * alpha * [ sum_{j<=c-2} a^j / j!
                            + a^(c-1) / ((c-1)! g)
                            + a^c / (c c! g^2) ].

    For a single server this collapses to ``alpha`` at every stable level.
    """
    p = _check_level(p)
    _require_stable(params, p)
    alpha, c = params.alpha, params.c
    a = (1.0 - p) * alpha
    if a == 0.0:
        return alpha  # only the j = 0 term of the bracket survives
    g = 1.0 - a / c
    if c <= _DIRECT_EVAL_MAX_SERVERS:
        p0 = _p0_direct(a, c)
        bracket = sum(a**j / math.factorial(j) for j in range(c - 1))
        bracket += a ** (c - 1) / (math.factorial(c - 1) * g)
        bracket += a**c / (c * math.factorial(c) * g * g)
        return (p0 * p0) * alpha * bracket
    la = math.log(a)
    lg = math.log(g)
    terms = [j * la - math.lgamma(j + 1) for j in range(c - 1)]
    terms.append((c - 1) * la - math.lgamma(c) - lg)
    terms.append(c * la - math.log(c) - math.lgamma(c + 1) - 2.0 * lg)
    log_p0 = _log_p0(a, c)
    return math.exp(2.0 * log_p0 + math.log(alpha) + _log_sum_exp(terms))


def tail_pmf(params: SystemParams, p: float, k: int) -> float:
    """Stationary probability of exactly ``k`` customers with level above ``p``.

    Three ranges, with ``a = (1 - p) alpha``: the empty probability at ``k = 0``,
    a Poisson-shaped body ``P0 a^k / k!`` for ``1 <= k <= c``, and the geometric
    tail ``P0 (a^c / c!) (a/c)^(k-c)`` beyond the server count.

    Raises:
        UnstableRegionError: when ``(1 - p) * alpha >= c`` (the count is then
            almost surely infinite and no pmf exists).
    """
    p = _check_level(p)
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    _require_stable(params, p)
    alpha, c = params.alpha, params.c
    a = (1.0 - p) * alpha
    if a == 0.0:
        return 1.0 if k == 0 else 0.0
    if c <= _DIRECT_EVAL_MAX_SERVERS:
        p0 = _p0_direct(a, c)
        if k == 0:
            return p0
        if k <= c:
            return p0 * a**k / math.factorial(k)
        return p0 * (a**c / math.factorial(c)) * (a / c) ** (k - c)
    log_p0 = _log_p0(a, c)
    la = math.log(a)
    if k <= c:
        return math.exp(log_p0 + k * la - math.lgamma(k + 1))
    log_tail = c * la - math.lgamma(c + 1) + (k - c) * (la - math.log(c))
    return math.exp(log_p0 + log_tail)


def expected_tail_count(params: SystemParams, p: float) -> ExtendedReal:
    """Stationary mean number of customers with level above ``p``.

    Finite exactly on the stable side, where with ``a = (1 - p) alpha`` and
    ``g = 1 - a/c`` it equals ``a + a^(c+1) P0 / (c c! g^2)``; +infinity
    otherwise.

    Examples:
        >>> expected_tail_count(SystemParams(alpha=1.5, c=2), 1.0)
        ExtendedReal(0.0)
    """
    p = _check_level(p)
    if not is_stable(params, p):
        return INFINITY
    alpha, c = params.alpha, params.c
    a = (1.0 - p) * alpha
    if a == 0.0:
        return ExtendedReal(0.0)
    g = 1.0 - a / c
    if c <= _DIRECT_EVAL_MAX_SERVERS:
        p0 = _p0_direct(a, c)
        queue_part = a ** (c + 1) * p0 / (c * math.factorial(c) * g * g)
    else:
        queue_part = math.exp(
            (c + 1) * math.log(a)
            + _log_p0(a, c)
            - math.log(c)
            - math.lgamma(c + 1)
            - 2.0 * math.log(g)
        )
    return ExtendedReal(a + queue_part)


def priority_density(params: SystemParams, p: float) -> ExtendedReal:
    """Density of the stationary mean measure of priority levels at ``p``.

    This is minus the level-derivative of :func:`expected_tail_count`. At a
    stable level, with ``a = (1 - p) alpha``, ``g = 1 - a/c``, and ``P0'`` the
    value of :func:`p0_derivative`:

        alpha + [ (c+1) alpha a^c P0 - a^(c+1) P0' ] / (c c! g^2)
              + 2 a^(c+1) P0 (alpha/c) / (c c! g^3)

    Returns +infinity on the unstable side, and exactly ``alpha`` at ``p = 1``.
    """
    p = _check_level(p)
    if not is_stable(params, p):
        return INFINITY
    alpha, c = params.alpha, params.c
    a = (1.0 - p) * alpha
    if a == 0.0:
        return ExtendedReal(alpha)
    g = 1.0 - a / c
    slope = p0_derivative(params, p)
    if c <= _DIRECT_EVAL_MAX_SERVERS:
        p0 = _p0_direct(a, c)
        cf = c * math.factorial(c)
        ac = a**c
        density = (
            alpha
            + ((c + 1) * alpha * ac * p0 - a * ac * slope) / (cf * g * g)
            + 2.0 * a * ac * p0 * (alpha / c) / (cf * g * g * g)
        )
    else:
        la = math.log(a)
        lg = math.log(g)
        log_p0 = _log_p0(a, c)
        log_cf = math.log(c) + math.lgamma(c + 1)
        first = math.exp(math.log((c + 1) * alpha) + c * la + log_p0 - log_cf - 2.0 * lg)
        second = math.exp((c + 1) * la + math.log(slope) - log_cf - 2.0 * lg)
        third = math.exp(
            math.log(2.0 * alpha / c) + (c + 1) * la + log_p0 - log_cf - 3.0 * lg
        )
        density = alpha + first - second + third
    return ExtendedReal(density)


def sojourn_time(params: SystemParams, p: float) -> ExtendedReal:
    """Stationary mean time in system for a customer arriving at level ``p``.

    Equals :func:`priority_density` divided by ``alpha``; +infinity on the
    unstable side and exactly 1 (one mean service) at ``p = 1``.
    """
    density = priority_density(params, p)
    if not density.is_finite:
        return INFINITY
    return ExtendedReal(density.value / params.alpha)


def waiting_time(params: SystemParams, p: float) -> ExtendedReal:
    """Stationary mean time not in service for a customer at level ``p``.

    One mean service shorter than :func:`sojourn_time`. Preempted spells count
    as waiting, so this is the total out-of-service time, not the delay before
    first service. +infinity on the unstable side, 0 at ``p = 1``.
    """
    sojourn = sojourn_time(params, p)
    if not sojourn.is_finite:
        return INFINITY
    return ExtendedReal(sojourn.value - 1.0)


def mean_measure(params: SystemParams, a: float, b: float) -> ExtendedReal:
    """Stationary mean number of customers with level in ``[a, b]``.

    Computed as a difference of tail means, so adjacent intervals add up
    consistently. Returns 0 for a null interval regardless of regime, and
    +infinity when ``a < b`` and level ``a`` is unstable (the interval then
    overlaps the divergent band with positive length).

    Raises:
        ValueError: if the endpoints are outside [0, 1] or ``a > b``.
    """
    a = _check_level(a)
    b = _check_level(b)
    if a > b:
        raise ValueError(f"interval endpoints out of order: a={a} > b={b}")
    if a == b:
        return ExtendedReal(0.0)
    if not is_stable(params, a):
        return INFINITY
    diff = expected_tail_count(params, a).finite - expected_tail_count(params, b).finite
    # The analytic difference is nonnegative; absorb last-ulp rounding noise.
    return ExtendedReal(diff if diff > 0.0 else 0.0)
