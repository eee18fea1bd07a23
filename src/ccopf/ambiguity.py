"""Ambiguity-set arithmetic for sample-based joint chance constraints.

Links the four quantities (S, k, epsilon, r): out of S observed scenarios,
enforcing the k best-case ones makes the joint constraint hold with
probability >= 1 - epsilon for every distribution within relative-entropy
radius r of the empirical distribution.  All routines are pure scalar math;
probability products are evaluated in log space so that S in the hundreds
does not overflow double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class _WorstCaseRequired:
    """Sentinel: no k <= S gives the requested radius; full-support
    worst-case enforcement would be needed, which is out of scope."""

    __slots__ = ()

    def __repr__(self):
        return "WORST_CASE_REQUIRED"


WORST_CASE_REQUIRED = _WorstCaseRequired()

# Width of the final bisection bracket on epsilon.
_EPS_TOL = 1e-12


def radius_for(k, epsilon, s):
    """Maximal relative-entropy radius r for which enforcing the k
    best-case scenarios out of s certifies violation probability epsilon.

    r = -(k/S) log(S(1-eps)/k) - ((S-k)/S) log(S eps/(S-k)),
    with the 0 log 0 = 0 convention when k = S.  Requires
    epsilon in [1 - k/S, 1]; returns +inf at epsilon = 1.
    """
    _check_k_s(k, s)
    lo = 1.0 - k / s
    if not lo - 1e-12 <= epsilon <= 1.0 + 1e-12:
        raise ValueError(
            f"epsilon={epsilon} outside [{lo}, 1] for k={k}, s={s}"
        )
    epsilon = min(max(epsilon, lo), 1.0)
    if epsilon == 1.0:
        return math.inf
    first = -(k / s) * math.log(s * (1.0 - epsilon) / k)
    if k == s:
        second = 0.0  # coefficient (S-k)/S vanishes
    else:
        second = -((s - k) / s) * math.log(s * epsilon / (s - k))
    # Rounding can produce a tiny negative at the epsilon = 1 - k/S boundary.
    return max(0.0, first + second)


def k_for(epsilon, radius, s):
    """Smallest k in [1, S] with radius_for(k, epsilon, S) >= radius.

    radius_for is increasing in k at fixed epsilon, so a forward scan from
    the smallest admissible k (the empirical quantile index) is exact.
    Ties (radius_for(k) == radius to the last bit) resolve to the smaller k,
    i.e. toward enforcing fewer scenarios only when exactly justified.
    Returns WORST_CASE_REQUIRED when even k = S is insufficient.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not radius >= 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if not (isinstance(s, int) and s >= 1):
        raise ValueError(f"s must be a positive integer, got {s}")
    # ceil(S(1-eps)) with a nudge so exact products like 0.9*100 do not
    # round up to 91.
    k0 = max(1, math.ceil(s * (1.0 - epsilon) - 1e-9))
    for k in range(k0, s + 1):
        if radius_for(k, epsilon, s) >= radius:
            return k
    return WORST_CASE_REQUIRED


def _log_coeff(k, s):
    """log of S^S / (k^k (S-k)^(S-k)), with 0^0 = 1."""
    out = s * math.log(s) - k * math.log(k)
    if k < s:
        out -= (s - k) * math.log(s - k)
    return out


def _log_phi_penalty(k, s, epsilon):
    """log of the penalty term C (1-eps)^k eps^(S-k); -inf where it is 0."""
    if epsilon >= 1.0:
        return -math.inf if k >= 1 else _log_coeff(k, s)
    if epsilon <= 0.0:
        return -math.inf if k < s else _log_coeff(k, s)
    out = _log_coeff(k, s) + k * math.log1p(-epsilon)
    if k < s:
        out += (s - k) * math.log(epsilon)
    return out


def _phi(k, s, epsilon):
    """Certified satisfaction-margin objective 1 - eps - C (1-eps)^k eps^(S-k)."""
    return 1.0 - epsilon - math.exp(_log_phi_penalty(k, s, epsilon))


def optimal_epsilon(k, s):
    """Violation probability maximizing the certified margin for k of s.

    Maximizes phi(eps) = 1 - eps - C (1-eps)^k eps^(S-k) over
    eps in [1 - k/S, 1], C = S^S / (k^k (S-k)^(S-k)).  Returns
    (eps_star, phi(eps_star)).

    phi itself is not concave, but phi'(eps) = -1 + C psi(eps) with
    psi = (1-eps)^(k-1) eps^(S-k-1) (S eps - (S-k)) positive on the open
    interval, and T = log(C psi) is a sum of concave terms for
    2 <= k <= S-1.  phi therefore falls, rises, and falls again; its global
    maximum is the larger root of T = 0 (phi at the left boundary is
    k/S - 1 < 0 while phi(1) = 0).  The root is found by bisecting T'
    for the peak of T and then bisecting T on the right of the peak.
    """
    _check_k_s(k, s)

    if k == s:
        if s == 1:
            # phi is identically zero on [0, 1]; rightmost maximizer.
            return 1.0, 0.0
        # phi = 1 - eps - (1-eps)^S, concave, stationary at
        # (1-eps)^(S-1) = 1/S.
        eps = 1.0 - s ** (-1.0 / (s - 1))
        return eps, max(0.0, _phi(k, s, eps))

    if k == 1:
        # phi = (1-eps)(1 - C eps^(S-1)) with C > S, negative on the whole
        # open interval; the maximum value 0 is attained at eps = 1.
        return 1.0, 0.0

    lo = 1.0 - k / s

    def t_val(eps):
        return (
            _log_coeff(k, s)
            + (k - 1) * math.log1p(-eps)
            + (s - k - 1) * math.log(eps)
            + math.log(s * eps - (s - k))
        )

    def t_prime(eps):
        return (
            -(k - 1) / (1.0 - eps)
            + (s - k - 1) / eps
            + s / (s * eps - (s - k))
        )

    # Stage 1: peak of T.  T' decreases from +inf (left edge) to -inf
    # (right edge, since k >= 2).
    a = lo + (1.0 - lo) * 1e-15
    b = 1.0 - 1e-15
    while b - a > _EPS_TOL:
        m = 0.5 * (a + b)
        if t_prime(m) > 0.0:
            a = m
        else:
            b = m
    peak = 0.5 * (a + b)

    if t_val(peak) <= 0.0:
        # phi' <= 0 throughout: cannot happen for 2 <= k <= S-1 (it would
        # force phi(1) <= phi(left) < 0 = phi(1)), but guard anyway.
        return 1.0, 0.0

    # Stage 2: downcross of T on [peak, 1).  T is concave, positive at the
    # peak, and diverges to -inf at 1.
    a, b = peak, 1.0 - 1e-15
    if t_val(b) > 0.0:  # pragma: no cover - bracket guard
        return b, max(0.0, _phi(k, s, b))
    while b - a > _EPS_TOL:
        m = 0.5 * (a + b)
        if t_val(m) > 0.0:
            a = m
        else:
            b = m
    eps = 0.5 * (a + b)
    return eps, max(0.0, _phi(k, s, eps))


def min_k_for_target(epsilon_target, s):
    """Smallest k whose optimal violation probability is <= epsilon_target.

    optimal_epsilon(k, s)[0] is nonincreasing in k, so binary search is
    exact.  Raises ValueError when even k = S misses the target.
    """
    if not 0.0 < epsilon_target <= 1.0:
        raise ValueError(
            f"target must lie in (0, 1], got {epsilon_target}"
        )
    if not (isinstance(s, int) and s >= 1):
        raise ValueError(f"s must be a positive integer, got {s}")
    if optimal_epsilon(s, s)[0] > epsilon_target:
        raise ValueError(
            f"no k <= {s} reaches violation target {epsilon_target}; "
            f"best achievable is {optimal_epsilon(s, s)[0]:.6g} at k = {s}"
        )
    lo, hi = 1, s  # invariant: predicate false at lo-1 territory, true at hi
    if optimal_epsilon(1, s)[0] <= epsilon_target:
        return 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if optimal_epsilon(mid, s)[0] <= epsilon_target:
            hi = mid
        else:
            lo = mid
    return hi


def _check_k_s(k, s):
    if not (isinstance(s, int) and s >= 1):
        raise ValueError(f"s must be a positive integer, got {s}")
    if not (isinstance(k, int) and 1 <= k <= s):
        raise ValueError(f"k must be an integer in [1, {s}], got {k}")


@dataclass(frozen=True)
class AmbiguityParams:
    """Mutually consistent (S, k, epsilon, radius) quadruple.

    Construct through the classmethods so the consistency invariants
    (epsilon in [1 - k/S, 1], radius in [0, the certified maximum]) hold
    by construction.
    """

    s: int
    k: int
    epsilon: float
    radius: float

    def __post_init__(self):
        # radius_for checks k and s, and that epsilon lies in [1 - k/S, 1].
        max_r = radius_for(self.k, self.epsilon, self.s)
        if not 0.0 <= self.radius <= max_r + 1e-12:
            raise ValueError(
                f"radius={self.radius} outside [0, {max_r}] certified "
                f"for k={self.k}, s={self.s}, epsilon={self.epsilon}"
            )

    @classmethod
    def from_k(cls, k, s):
        """Best epsilon for a chosen k, with the matching maximal radius."""
        eps, _ = optimal_epsilon(k, s)
        return cls(s=s, k=k, epsilon=eps, radius=radius_for(k, eps, s))

    @classmethod
    def from_target(cls, epsilon_target, s):
        """Smallest enforced count achieving a violation-probability target."""
        return cls.from_k(min_k_for_target(epsilon_target, s), s)

    @property
    def bound(self):
        """Certified satisfaction margin phi at this (k, S) pair's optimum."""
        return optimal_epsilon(self.k, self.s)[1]
