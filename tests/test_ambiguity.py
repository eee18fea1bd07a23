"""Tests for the ambiguity-set arithmetic.

The closed-form radius is cross-checked against a direct numeric solve of
the underlying convex program (minimize the empirical-first relative
entropy over distributions whose first-k mass is capped), and the epsilon
optimizer against dense grid search.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from ccopf.ambiguity import (
    WORST_CASE_REQUIRED,
    AmbiguityParams,
    k_for,
    min_k_for_target,
    optimal_epsilon,
    radius_for,
)


def min_divergence_numeric(k, epsilon, s):
    """Oracle: smallest relative entropy -(1/S) sum log(S p_j) over
    sub-distributions p >= 0 with total mass <= 1 (the remainder may sit
    off the sample support) whose first-k mass is capped at 1 - epsilon.
    Solved directly in S variables from a deliberately non-optimal start."""
    p0 = np.empty(s)
    p0[:k] = 0.8 * (1.0 - epsilon) / k
    if k < s:
        p0[k:] = 0.1 / (s - k)
    cons = [
        {"type": "ineq", "fun": lambda p: 1.0 - np.sum(p)},
        {"type": "ineq", "fun": lambda p: (1.0 - epsilon) - np.sum(p[:k])},
    ]
    bounds = [(1e-12, 1.0)] * s

    def kl(p):
        return -np.mean(np.log(s * p))

    res = minimize(kl, p0, method="SLSQP", bounds=bounds, constraints=cons,
                   options={"maxiter": 500, "ftol": 1e-14})
    assert res.success, res.message
    return res.fun


class TestRadiusFor:
    def test_k_equals_s_closed_form(self):
        """k = S reduces to -log(1-eps)."""
        assert abs(radius_for(100, 0.1, 100) - (-math.log(0.9))) < 1e-12
        assert abs(radius_for(100, 0.1, 100) - 0.10536) < 1e-5

    def test_boundary_epsilon_gives_zero(self):
        """eps = 1 - k/S makes both logs vanish."""
        assert radius_for(90, 0.1, 100) == 0.0
        assert radius_for(3, 0.25, 4) == 0.0

    def test_epsilon_one_is_infinite(self):
        assert radius_for(5, 1.0, 10) == math.inf

    def test_below_domain_raises(self):
        with pytest.raises(ValueError):
            radius_for(90, 0.05, 100)

    @pytest.mark.parametrize("epsilon", [math.nan, 1.5, -0.1])
    def test_epsilon_outside_domain_raises(self, epsilon):
        with pytest.raises(ValueError, match="outside"):
            radius_for(98, epsilon, 100)

    def test_bad_k_raises(self):
        with pytest.raises(ValueError):
            radius_for(0, 0.5, 10)
        with pytest.raises(ValueError):
            radius_for(11, 0.5, 10)

    @pytest.mark.parametrize("k,epsilon,s", [
        (98, 0.0924, 100),
        (8, 0.25, 10),
        (9, 0.15, 10),
        (6, 0.5, 8),
        (12, 0.05, 12),
    ])
    def test_matches_numeric_convex_program(self, k, epsilon, s):
        """Closed form equals the direct numeric minimum of the divergence."""
        numeric = min_divergence_numeric(k, epsilon, s)
        closed = radius_for(k, epsilon, s)
        assert abs(numeric - closed) < 1e-6

    def test_monotone_in_k(self):
        """At fixed eps the radius grows with the enforced count."""
        for s in (10, 50, 100):
            eps = 0.2
            ks = range(max(1, math.ceil(s * (1 - eps))), s + 1)
            vals = [radius_for(k, eps, s) for k in ks]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert all(v >= 0.0 for v in vals)


class TestKFor:
    def test_zero_radius_is_empirical_quantile(self):
        """r = 0 needs exactly ceil((1-eps) S) scenarios."""
        assert k_for(0.1, 0.0, 100) == 90
        assert k_for(0.25, 0.0, 8) == 6
        assert k_for(0.999, 0.0, 100) == 1

    def test_huge_radius_needs_worst_case(self):
        assert k_for(0.1, 1e6, 100) is WORST_CASE_REQUIRED

    @pytest.mark.parametrize("epsilon,radius", [
        (0.1, math.nan), (0.1, -1.0), (0.1, -math.inf), (math.nan, 0.1),
    ])
    def test_nan_or_negative_rejected(self, epsilon, radius):
        with pytest.raises(ValueError, match="must"):
            k_for(epsilon, radius, 100)

    def test_matches_exhaustive_scan(self):
        """S = 20, eps = 0.2, r = 0.05 against enumerating k = 16..20."""
        target = None
        for k in range(16, 21):
            if radius_for(k, 0.2, 20) >= 0.05:
                target = k
                break
        assert target is not None
        assert k_for(0.2, 0.05, 20) == target

    def test_inverts_radius_for_on_grid(self):
        """k_for(eps, radius_for(k), S) recovers k, ties to the smaller k."""
        for s in (10, 40, 100):
            for eps in (0.1, 0.3, 0.6):
                k_lo = max(1, math.ceil(s * (1 - eps) - 1e-9))
                for k in range(k_lo, s + 1):
                    r = radius_for(k, eps, s)
                    assert k_for(eps, r, s) == k

    def test_tie_points_match_numeric_program(self):
        """At r = radius_for(k) the numeric convex program agrees on k.

        The program's reading (largest k whose minimal divergence stays
        within r) and the scan reading (smallest k whose certified radius
        reaches r) provably coincide at tie points; checked for small S.
        """
        s = 8
        eps = 0.3
        k_lo = max(1, math.ceil(s * (1 - eps)))
        for k in range(k_lo + 1, s + 1):
            r = radius_for(k, eps, s)
            feasible = [
                j for j in range(k_lo, s + 1)
                if min_divergence_numeric(j, eps, s) <= r + 1e-7
            ]
            assert max(feasible) == k
            assert k_for(eps, r, s) == k


class TestOptimalEpsilon:
    def test_tutorial_pair(self):
        """The two published (k, S) = (97|98, 100) optima."""
        eps97, _ = optimal_epsilon(97, 100)
        eps98, _ = optimal_epsilon(98, 100)
        assert abs(eps97 - 0.109) < 1e-3
        assert abs(eps98 - 0.0924) < 5e-4

    @pytest.mark.parametrize("k,s", [(5, 5), (97, 100), (98, 100), (2, 6),
                                     (7, 9), (150, 300)])
    def test_matches_dense_grid(self, k, s):
        """Grid search at 1e-6 step never beats the bisection result."""
        lo = 1.0 - k / s
        grid = np.linspace(lo + 1e-9, 1.0 - 1e-9, 1_000_001)
        log_c = s * math.log(s) - k * math.log(k) - (
            (s - k) * math.log(s - k) if k < s else 0.0
        )
        pen = np.exp(log_c + k * np.log1p(-grid) + (s - k) * np.log(grid))
        phi = 1.0 - grid - pen
        i = int(np.argmax(phi))
        eps, bound = optimal_epsilon(k, s)
        assert abs(eps - grid[i]) < 2e-6
        assert bound >= phi[i] - 1e-9

    def test_k_equals_s_closed_form(self):
        """k = S has the analytic maximizer 1 - S^(-1/(S-1))."""
        for s in (2, 5, 17, 200):
            eps, bound = optimal_epsilon(s, s)
            assert abs(eps - (1.0 - s ** (-1.0 / (s - 1)))) < 1e-10
            assert 0.0 <= bound <= 1.0

    def test_degenerate_cases(self):
        """k = 1 and k = S = 1 sit at the right edge with zero margin."""
        assert optimal_epsilon(1, 10) == (1.0, 0.0)
        assert optimal_epsilon(1, 1) == (1.0, 0.0)

    def test_range_invariants_and_monotonicity(self):
        """eps* in (1-k/S, 1], bound in [0, k/S]; eps* nonincreasing in k."""
        for s in (6, 30, 100):
            prev = None
            for k in range(1, s + 1):
                eps, bound = optimal_epsilon(k, s)
                assert 1.0 - k / s < eps <= 1.0
                assert 0.0 <= bound <= k / s + 1e-12
                if prev is not None:
                    assert eps <= prev + 1e-9
                prev = eps


class TestMinKForTarget:
    def test_tutorial_value(self):
        assert min_k_for_target(0.10, 100) == 98

    def test_target_one_any_k(self):
        assert min_k_for_target(1.0, 100) == 1

    def test_s300_frozen_value_with_adjacent_check(self):
        """S = 300 at target 0.10; value pinned by the adjacent-k bracket."""
        k = min_k_for_target(0.10, 300)
        assert k == 286
        assert optimal_epsilon(k - 1, 300)[0] > 0.10
        assert optimal_epsilon(k, 300)[0] <= 0.10

    def test_unreachable_target_raises(self):
        # Best achievable at S = 4 is eps*(4,4) ~ 0.37; ask below it.
        with pytest.raises(ValueError, match="no k"):
            min_k_for_target(0.05, 4)


class TestAmbiguityParams:
    def test_from_k_consistency(self):
        p = AmbiguityParams.from_k(98, 100)
        assert p.k == 98 and p.s == 100
        assert abs(p.epsilon - 0.0924) < 5e-4
        assert abs(p.radius - radius_for(98, p.epsilon, 100)) < 1e-15
        assert p.bound == optimal_epsilon(98, 100)[1]

    def test_from_target(self):
        p = AmbiguityParams.from_target(0.10, 100)
        assert p.k == 98

    def test_inconsistent_quadruple_rejected(self):
        with pytest.raises(ValueError):
            AmbiguityParams(s=100, k=90, epsilon=0.1, radius=1.0)
        with pytest.raises(ValueError):
            AmbiguityParams(s=100, k=50, epsilon=0.1, radius=0.0)

    @pytest.mark.parametrize("epsilon,radius", [
        (math.nan, 0.0), (math.nan, math.nan), (0.1, math.nan),
        (0.1, -1.0), (math.nan, -1.0), (1.5, 0.0),
    ])
    def test_nan_or_out_of_range_rejected(self, epsilon, radius):
        with pytest.raises(ValueError, match="outside"):
            AmbiguityParams(s=100, k=98, epsilon=epsilon, radius=radius)
