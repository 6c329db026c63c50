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

Numerical policy: every closed form reads the occupancy probabilities
``pi_0 .. pi_c`` of that subsystem from one helper, which walks the balance
recurrence ``w_k = w_(k-1) a / k`` and rescales the weights whenever one passes
1e280, so no ``k!`` or ``a^k`` is ever formed and any server count works.
What the closed forms read of it, ``pi_0``, ``pi_c``, the ratio
``P0' / (alpha P0)``, the tail mean and the waiting time ``W``, is computed once
per load ``a`` and server count and shared through a bounded cache of recent
loads, so the closed forms at one load share one walk of the recurrence and one
evaluation of each mean; the results are unchanged bit for bit. Only
``tail_pmf`` inside the body ``0 < k < c`` walks it afresh. Each mean is checked
as nonnegative where it is read, and each closed form boxes its result once as
an :class:`ExtendedReal`; every infinite result is the one :data:`INFINITY`.
Stability is decided by the exact floating-point comparison
``(1 - p) * alpha < c`` with no epsilon guard.
"""

from __future__ import annotations

import functools
import math
import numbers
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

# Occupancy weights are rescaled to 1 once one of them exceeds this.
_RESCALE_ABOVE = 1e280

# Loads whose per-load terms are kept. A dense curve revisits its loads: the
# closed forms of one curve point share a load, mean_measure's adjacent
# intervals share an endpoint, and the driver scores its estimates at bin
# centres among the 201 points of its analytic curves. 4096 holds every load
# of a 2000-level grid plus its upper endpoints, at five floats each.
_TERMS_CACHE_SIZE = 4096


def _as_real(name: str, value) -> float:
    # int, float and numpy reals pass as a float, a float at once (every level
    # check comes here); a bool or a string is refused, not read as 1.0 or parsed.
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_int(name: str, value) -> int:
    # int and numpy integers pass as an int; a bool, float or string is refused.
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _nonnegative(value: float) -> float:
    # The rule of ExtendedReal, also for the plain-float means inside the
    # closed forms; `not >=` refuses NaN as well as a negative.
    if not value >= 0.0:
        raise ValueError(f"expected a nonnegative real or +inf, got {value}")
    return value


class UnstableRegionError(ValueError):
    """A per-level distribution was requested where no steady state exists.

    Raised by :func:`p0_mass`, :func:`p0_derivative` and :func:`tail_pmf` when
    ``(1 - p) * alpha >= c``. Mean-value functions do not raise; they return
    :data:`INFINITY` instead, because the divergent mean is itself meaningful.

    Made as ``UnstableRegionError(p, params, a)``, with ``a`` the thinned
    arrival rate ``(1 - p) * alpha``; those three values are its ``args``, and
    its message is built from them when read.
    """

    def __init__(self, p: float, params: SystemParams, a: float) -> None:
        super().__init__(p, params, a)

    def __str__(self) -> str:
        p, params, a = self.args
        return (
            f"no steady state at level p={p} for alpha={params.alpha}, c={params.c}: "
            f"thinned arrival rate {a} is not below {params.c}"
        )


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
        object.__setattr__(self, "alpha", _as_real("alpha", self.alpha))
        if not math.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        object.__setattr__(self, "c", _as_int("c", self.c))
        if self.c < 1:
            raise ValueError(f"c must be at least 1, got {self.c}")

    @property
    def load(self) -> float:
        """Offered load per server, ``alpha / c``."""
        return self.alpha / self.c


@dataclass(frozen=True, init=False, slots=True)
class ExtendedReal:
    """A nonnegative real or +infinity, carried as an explicit tagged value.

    Functions that can legitimately diverge return this wrapper instead of a
    bare float so callers must acknowledge the infinite case before doing
    arithmetic; the class intentionally defines no arithmetic operators.
    ``value`` is ``math.inf`` exactly when the quantity is infinite. Use
    :attr:`finite` when a finite number is required (it raises otherwise) and
    ``float(x)`` when rendering, where infinity is acceptable. ``value`` must
    be a real number, as every real in this package must. The class is
    slotted, so each value is one small object with no ``__dict__``.
    """

    value: float

    def __init__(self, value: float) -> None:
        object.__setattr__(self, "value", _nonnegative(_as_real("value", value)))

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

    Exact comparison ``(1 - p) * alpha < c``, no epsilon; ``p`` is checked as any level is.
    """
    return (1.0 - _check_level(p)) * params.alpha < params.c


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
    p = _as_real("priority level", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"priority level must lie in [0, 1], got {p}")
    return p


def _occupancy(a: float, c: int) -> list[float]:
    # pi_0 .. pi_c of M/M/c at offered load 0 <= a < c; the states beyond c
    # carry the geometric tail pi_c (a/c)^(k-c), summing to pi_c / g.
    weights = [1.0]
    for k in range(1, c + 1):
        weight = weights[-1] * a / k
        weights.append(weight)
        if weight > _RESCALE_ABOVE:
            weights = [w / weight for w in weights]
    total = math.fsum(weights[:c]) + weights[c] / (1.0 - a / c)
    return [w / total for w in weights]


def _slope_bracket(pi: list[float], g: float) -> float:
    # P0' / (alpha P0) = sum_{j<=c-2} pi_j + pi_{c-1} / g + pi_c / (c g^2).
    c = len(pi) - 1
    return math.fsum(pi[: c - 1]) + pi[c - 1] / g + pi[c] / (c * g * g)


@functools.lru_cache(maxsize=_TERMS_CACHE_SIZE)
def _load_terms(a: float, c: int) -> tuple[float, float, float, float, float]:
    # (pi_0, pi_c, P0' / (alpha P0), tail mean, W) at load a: all any closed
    # form reads of the occupancy, except tail_pmf in 0 < k < c. The means are
    # checked where they are read, so a form that reads neither cannot fail on them.
    pi = _occupancy(a, c)
    pi_c, g = pi[c], 1.0 - a / c
    slope = _slope_bracket(pi, g)
    # P0' / P0 enters through _slope_bracket, never as a quotient: P0 may underflow.
    bracket = ((c + 1) - a * slope) / (c * g * g) + 2.0 * a / (c * c * g * g * g)
    return pi[0], pi_c, slope, a + a * pi_c / (c * g * g), pi_c * bracket


def _tail(
    params: SystemParams, p: float, strict: bool = True
) -> tuple[float, tuple[float, float, float, float, float]] | None:
    # The load a = (1 - p) alpha above level p, checked here, and its terms from
    # _load_terms. Where a >= c (no steady state) this raises, or returns None if not strict.
    p = _check_level(p)
    a = (1.0 - p) * params.alpha
    if not a < params.c:
        if not strict:
            return None
        raise UnstableRegionError(p, params, a)
    return a, _load_terms(a, params.c)


def _box(value: float) -> ExtendedReal:
    # A closed form's one ExtendedReal; every infinite result shares INFINITY.
    return INFINITY if value == math.inf else ExtendedReal(value)


def _tail_mean(params: SystemParams, p: float) -> float:
    # expected_tail_count as a checked float, inf on the unstable side.
    tail = _tail(params, p, strict=False)
    return math.inf if tail is None else _nonnegative(tail[1][3])


def _waiting(params: SystemParams, p: float) -> float:
    # waiting_time as a checked float, inf on the unstable side.
    tail = _tail(params, p, strict=False)
    return math.inf if tail is None else _nonnegative(tail[1][4])


def _density(params: SystemParams, p: float) -> float:
    # alpha (1 + W): at least alpha > 0 and never NaN, as W is checked, so this
    # needs no check of its own; an infinite W gives inf.
    return params.alpha + params.alpha * _waiting(params, p)


def p0_mass(params: SystemParams, p: float) -> float:
    """Stationary probability that no customer with level above ``p`` is present.

    This is the empty probability of an M/M/c system at arrival rate
    ``(1 - p) * alpha``:

        [ sum_{i<c} a^i / i!  +  a^c / (c! (1 - a/c)) ]^(-1),   a = (1 - p) alpha.

    Raises:
        UnstableRegionError: when ``(1 - p) * alpha >= c``.
        ValueError: when ``p`` is outside [0, 1].
    """
    return _tail(params, p)[1][0]


def p0_derivative(params: SystemParams, p: float) -> float:
    """Level-derivative of :func:`p0_mass`; strictly positive.

    The empty probability increases with the level, since raising the cutoff
    sheds load. With ``a = (1 - p) alpha`` and ``g = 1 - a/c``:

        P0(p)^2 * alpha * [ sum_{j<=c-2} a^j / j!
                            + a^(c-1) / ((c-1)! g)
                            + a^c / (c c! g^2) ].

    For a single server this collapses to ``alpha`` at every stable level.
    """
    _, (p0, _, slope, _, _) = _tail(params, p)
    return p0 * params.alpha * slope


def tail_pmf(params: SystemParams, p: float, k: int) -> float:
    """Stationary probability of exactly ``k`` customers with level above ``p``.

    Three ranges, with ``a = (1 - p) alpha``: the empty probability at ``k = 0``,
    a Poisson-shaped body ``P0 a^k / k!`` for ``1 <= k <= c``, and the geometric
    tail ``P0 (a^c / c!) (a/c)^(k-c)`` beyond the server count.

    Raises:
        UnstableRegionError: when ``(1 - p) * alpha >= c`` (the count is then
            almost surely infinite and no pmf exists).
    """
    k = _as_int("k", k)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    a, (p0, pi_c, _, _, _) = _tail(params, p)
    c = params.c
    if k == 0:
        return p0
    if k < c:
        return _occupancy(a, c)[k]
    return pi_c * (a / c) ** (k - c)


def expected_tail_count(params: SystemParams, p: float) -> ExtendedReal:
    """Stationary mean number of customers with level above ``p``.

    Finite exactly on the stable side, where with ``a = (1 - p) alpha`` and
    ``g = 1 - a/c`` it equals ``a + a^(c+1) P0 / (c c! g^2)``; +infinity
    otherwise.

    Examples:
        >>> expected_tail_count(SystemParams(alpha=1.5, c=2), 1.0)
        ExtendedReal(0.0)
    """
    return _box(_tail_mean(params, p))


def priority_density(params: SystemParams, p: float) -> ExtendedReal:
    """Density of the stationary mean measure of priority levels at ``p``.

    This is minus the level-derivative of :func:`expected_tail_count`. At a
    stable level, with ``a = (1 - p) alpha``, ``g = 1 - a/c``, and ``P0'`` the
    value of :func:`p0_derivative`:

        alpha + [ (c+1) alpha a^c P0 - a^(c+1) P0' ] / (c c! g^2)
              + 2 a^(c+1) P0 (alpha/c) / (c c! g^3)

    That is ``alpha (1 + W)`` with ``W`` the :func:`waiting_time`, which holds
    the bracketed terms. Returns +infinity on the unstable side, and exactly
    ``alpha`` at ``p = 1``.
    """
    return _box(_density(params, p))


def sojourn_time(params: SystemParams, p: float) -> ExtendedReal:
    """Stationary mean time in system for a customer arriving at level ``p``.

    Equals :func:`priority_density` divided by ``alpha``; +infinity on the
    unstable side and exactly 1 (one mean service) at ``p = 1``.
    """
    return _box(_density(params, p) / params.alpha)


def waiting_time(params: SystemParams, p: float) -> ExtendedReal:
    """Stationary mean time not in service for a customer at level ``p``.

    One mean service shorter than :func:`sojourn_time`. Preempted spells count
    as waiting, so this is the total out-of-service time, not the delay before
    first service. +infinity on the unstable side, 0 at ``p = 1``. Computed
    from the occupancy, not as ``sojourn - 1``, so it keeps its relative
    precision however small it is.
    """
    return _box(_waiting(params, p))


def mean_measure(params: SystemParams, a: float, b: float) -> ExtendedReal:
    """Stationary mean number of customers with level in ``[a, b]``.

    Computed as a difference of tail means, so adjacent intervals add up
    consistently. Returns 0 for a null interval regardless of regime, and
    +infinity when ``a < b`` and level ``a`` is unstable (the interval then
    overlaps the divergent band with positive length).

    Raises:
        ValueError: if the endpoints are outside [0, 1] or ``a > b``.
    """
    low = _tail_mean(params, a)  # each endpoint is checked here, once
    high = _tail_mean(params, b)
    if a > b:
        raise ValueError(f"interval endpoints out of order: a={a} > b={b}")
    if a == b:
        return ExtendedReal(0.0)
    if low == math.inf:
        return INFINITY
    diff = low - high
    # The analytic difference is nonnegative; absorb last-ulp rounding noise.
    return ExtendedReal(diff if diff > 0.0 else 0.0)
