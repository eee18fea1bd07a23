"""Oracles for the linearized network model.

Flow sensitivities are checked against hand-derived values on two- and
three-bus networks (small enough to invert the susceptance matrix on
paper), against Kirchhoff's current law on the packaged 14-bus case, and
the constraint rows are cross-checked against a from-scratch physical
recomputation of shifted injections.  Dispatch solutions are checked
against closed-form two-variable KKT algebra.
"""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from ccopf.case_io import build_fleet, parse_matpower, to_network
from ccopf.dc_model import (
    CcSystem,
    assemble_cc_system,
    balance_equality,
    build_ptdf,
    dc_response,
    incidence_matrix,
    make_cost,
    solve_deterministic_dc,
)
from ccopf.scenario_mip import INFEASIBLE, OPTIMAL, QuadraticCost, qp_solve
from conftest import row_values, subprocess_env

TWO_BUS = """
function mpc = two_bus
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
 1 2 0 0 0 0 1 1 0 135 1 1.1 0.9;
 2 3 80 0 0 0 1 1 0 135 1 1.1 0.9;
];
mpc.gen = [
 1 0 0 99 -99 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;
 2 0 0 99 -99 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
 1 2 0 0.5 0 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
 2 0 0 3 0 10 0;
 2 0 0 3 0 20 0;
];
"""


def triangle_text(load_mw=100.0, rate_13=50.0, gen_buses=(1, 2),
                  statuses=(1, 1, 1)):
    gens = "\n".join(
        f" {b} 0 0 99 -99 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;"
        for b in gen_buses)
    costs = "\n".join(
        f" 2 0 0 3 0 {c} 0;" for c in (10, 20, 30)[:len(gen_buses)])
    return f"""
function mpc = triangle
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
 1 {2 if 1 in gen_buses else 1} 0 0 0 0 1 1 0 135 1 1.1 0.9;
 2 {2 if 2 in gen_buses else 1} 0 0 0 0 1 1 0 135 1 1.1 0.9;
 3 3 {load_mw} 0 0 0 1 1 0 135 1 1.1 0.9;
];
mpc.gen = [
{gens}
];
mpc.branch = [
 1 2 0 1 0 0 0 0 0 0 {statuses[0]} -360 360;
 1 3 0 1 0 {rate_13} 0 0 0 0 {statuses[1]} -360 360;
 2 3 0 1 0 0 0 0 0 0 {statuses[2]} -360 360;
];
mpc.gencost = [
{costs}
];
"""


def load_text(text):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return to_network(parse_matpower(text))


@pytest.fixture(scope="module")
def triangle():
    return load_text(triangle_text(rate_13=0.0))


class TestPtdf:
    def test_two_bus(self):
        case = load_text(TWO_BUS)
        phi = build_ptdf(case)
        np.testing.assert_allclose(phi, [[1.0, 0.0]], atol=1e-12)

    def test_triangle_hand_values(self, triangle):
        phi = build_ptdf(triangle)
        expected = np.array([
            [1 / 3, -1 / 3, 0.0],  # 1-2
            [2 / 3, 1 / 3, 0.0],   # 1-3
            [1 / 3, 2 / 3, 0.0],   # 2-3
        ])
        np.testing.assert_allclose(phi, expected, atol=1e-12)

    def test_slack_column_zero(self, case14):
        phi = build_ptdf(case14)
        assert phi.shape == (case14.n_branch, case14.n_bus)
        np.testing.assert_array_equal(phi[:, case14.slack], 0.0)

    def test_kirchhoff_current_law(self, case14):
        # For any balanced injection vector, branch flows from the
        # sensitivity matrix must satisfy nodal balance at every bus.
        phi = build_ptdf(case14)
        a = incidence_matrix(case14)
        rng = np.random.default_rng(5)
        for _ in range(4):
            p = rng.normal(size=case14.n_bus)
            p -= p.mean()
            flows = phi @ p
            np.testing.assert_allclose(a.T @ flows, p, atol=1e-10)

    def test_same_bytes_at_any_blas_thread_count(self):
        # A multithreaded dense Cholesky of the case300s susceptance
        # matrix rounds differently at 1 and 2 OpenBLAS threads; the
        # factors, and every output built on them, must not.
        script = (
            "import hashlib, warnings\n"
            "from ccopf.case_io import load_case, packaged_case_path\n"
            "from ccopf.dc_model import build_ptdf\n"
            "warnings.simplefilter('ignore')\n"
            "case = load_case(packaged_case_path('case300s'))\n"
            "print(hashlib.sha256(build_ptdf(case).tobytes())"
            ".hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=120, check=True,
                env={**subprocess_env(), "OPENBLAS_NUM_THREADS": threads})
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_disconnected_network_rejected(self):
        case = load_text(triangle_text(statuses=(1, 0, 0)))
        with pytest.raises(ValueError, match="not connected"):
            build_ptdf(case)


class TestDcResponse:
    def test_m_columns_sum_to_zero(self, case14, fleet14):
        resp = dc_response(case14, fleet14)
        np.testing.assert_allclose(resp.m_matrix.sum(axis=0), 0.0,
                                   atol=1e-12)

    def test_m_structure(self, case14, fleet14):
        resp = dc_response(case14, fleet14)
        for j, bus in enumerate(fleet14.vre_buses):
            col = -fleet14.participation.copy()
            col[bus] += 1.0
            np.testing.assert_allclose(resp.m_matrix[:, j], col, atol=1e-12)

    def test_gen_sens_is_participation(self, case14, fleet14):
        resp = dc_response(case14, fleet14)
        for j in range(fleet14.n_vre):
            np.testing.assert_allclose(resp.gen_sens[:, j],
                                       -fleet14.gen_participation,
                                       atol=1e-12)

    def test_concentrated_balancing(self):
        # Single generator at the slack bus absorbs everything: an error at
        # bus 1 shifts injections by +1 there and -1 at bus 3.
        case = load_text(triangle_text(gen_buses=(3,)))
        fleet = build_fleet(case, [0], [0.2], 0.1)
        resp = dc_response(case, fleet)
        np.testing.assert_allclose(resp.m_matrix[:, 0], [1.0, 0.0, -1.0],
                                   atol=1e-12)
        phi = build_ptdf(case)
        np.testing.assert_allclose(resp.flow_sens[:, 0], phi[:, 0],
                                   atol=1e-12)


@pytest.fixture(scope="module")
def case14_rated(case14_raw):
    """case14 with case.default_line_limit = 1 p.u.: every branch is rated,
    so every flow has its rows.  fleet14 fits it (same buses and
    capacities)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return to_network(case14_raw, default_line_limit=1.0)


class TestCcSystem:
    def test_row_layout(self, case14_rated, fleet14, case14):
        cc = assemble_cc_system(case14_rated, fleet14)
        # 4 non-slack generators, 20 branches, upper and lower each.
        assert cc.n_rows == 2 * 4 + 2 * 20
        assert cc.base_lin.shape == (48, case14_rated.n_gen)
        assert cc.sens.shape == (48, fleet14.n_vre)
        assert cc.row_names[0].startswith("gen1_hi")
        assert cc.row_names[8].startswith("flow0_hi")
        with_slack = assemble_cc_system(case14_rated, fleet14,
                                        include_slack_rows=True)
        assert with_slack.n_rows == 2 * 5 + 2 * 20
        # Unrated, no branch has a limit: only the 8 generator rows, bit
        # for bit those of the rated case.
        unrated = assemble_cc_system(case14, fleet14)
        assert unrated.row_names == cc.row_names[:8]
        for field in ("base_lin", "base_const", "sens", "rhs"):
            np.testing.assert_array_equal(getattr(unrated, field),
                                          getattr(cc, field)[:8])

    def test_rows_need_finite_bounds(self):
        with pytest.raises(ValueError, match="finite bound"):
            CcSystem(row_names=("hi", "unrated"),
                     base_lin=np.ones((2, 1)), base_const=np.zeros(2),
                     sens=np.zeros((2, 1)), rhs=np.array([1.0, np.inf]))

    def test_rows_match_physical_recomputation(self, case14_rated, fleet14):
        cc = assemble_cc_system(case14_rated, fleet14, include_slack_rows=True)
        phi = build_ptdf(case14_rated)
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, case14_rated.n_gen)
        for _ in range(3):
            xi = rng.normal(scale=0.05, size=fleet14.n_vre)
            shift = float(np.sum(xi))
            gen_out = x - fleet14.gen_participation * shift
            inj = -case14_rated.p_load.copy()
            np.add.at(inj, case14_rated.gen_bus, gen_out)
            np.add.at(inj, fleet14.vre_buses, fleet14.forecasts + xi)
            flows = phi @ inj
            values = row_values(cc, x, xi)
            n_gen = case14_rated.n_gen
            np.testing.assert_allclose(values[:n_gen], gen_out, atol=1e-10)
            np.testing.assert_allclose(values[n_gen:2 * n_gen], -gen_out,
                                       atol=1e-10)
            lo = 2 * n_gen
            np.testing.assert_allclose(values[lo:lo + 20], flows,
                                       atol=1e-10)
            np.testing.assert_allclose(values[lo + 20:], -flows, atol=1e-10)

    def test_affine_in_errors(self, case14, fleet14):
        cc = assemble_cc_system(case14, fleet14)
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, case14.n_gen)
        xi_a = rng.normal(size=fleet14.n_vre)
        xi_b = rng.normal(size=fleet14.n_vre)
        base = row_values(cc, x, np.zeros(fleet14.n_vre))
        combined = row_values(cc, x, xi_a + xi_b)
        parts = ((row_values(cc, x, xi_a) - base)
                 + (row_values(cc, x, xi_b) - base))
        np.testing.assert_allclose(combined - base, parts, atol=1e-12)

    def test_batch_rows(self, case14, fleet14):
        cc = assemble_cc_system(case14, fleet14)
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 1, case14.n_gen)
        xi = rng.normal(size=(7, fleet14.n_vre))
        batch = row_values(cc, x, xi)
        assert batch.shape == (7, cc.n_rows)
        for s in range(7):
            np.testing.assert_allclose(batch[s], row_values(cc, x, xi[s]),
                                       atol=1e-12)


    def test_nominal_system_and_conflict_row(self):
        # 2x <= 2 and -x <= -2 conflict.  The Farkas weights are 1/4 and
        # 1/2 (y'A = 0, ||a||'y = 1), so the last row is named.
        cc = CcSystem(row_names=("hi", "lo"),
                      base_lin=np.array([[2.0], [-1.0]]),
                      base_const=np.array([0.0, 1.0]),
                      sens=np.zeros((2, 1)),
                      rhs=np.array([2.0, -1.0]))
        system = cc.nominal_system((np.zeros((0, 1)), np.zeros(0)))
        np.testing.assert_array_equal(system.a_ineq, [[2.0], [-1.0]])
        np.testing.assert_array_equal(system.b_ineq, [2.0, -2.0])
        result = qp_solve(QuadraticCost(h=np.eye(1), g=np.zeros(1)), system)
        assert result.status == INFEASIBLE
        np.testing.assert_allclose(result.certificate["y_ineq"], [0.25, 0.5])
        assert cc.conflict_row(result) == "lo"
        result.certificate = None
        assert cc.conflict_row(result) is None


class TestDeterministicDispatch:
    def test_tutorial_costs_load_single_generator(self, case14_tutorial,
                                                  fleet14_tutorial):
        sol = solve_deterministic_dc(case14_tutorial, fleet14_tutorial)
        assert sol.status == OPTIMAL
        expected = np.zeros(5)
        expected[0] = np.sum(case14_tutorial.p_load) - 0.4
        np.testing.assert_allclose(sol.dispatch, expected, atol=1e-7)
        assert sol.cost == pytest.approx(2000.0 * expected[0], abs=1e-4)

    def test_stock_costs_split_by_marginal_price(self, case14, fleet14):
        sol = solve_deterministic_dc(case14, fleet14)
        assert sol.status == OPTIMAL
        # Two-variable KKT oracle: equal marginal costs between the two
        # cheap generators, everything else priced out at the optimum.
        net = float(np.sum(case14.p_load)) - 0.4
        ratio = case14.cost_c2[0] / case14.cost_c2[1]
        g1 = net / (1.0 + ratio)
        g2 = net - g1
        marginal = 2 * case14.cost_c2[0] * g1 + case14.cost_c1[0]
        assert marginal < case14.cost_c1[2]  # expensive units stay off
        np.testing.assert_allclose(sol.dispatch, [g1, g2, 0, 0, 0],
                                   atol=1e-7)
        assert sol.cost == pytest.approx(make_cost(case14).value(
            np.array([g1, g2, 0, 0, 0])), rel=1e-9)

    def test_no_fleet_serves_gross_load(self, case14):
        sol = solve_deterministic_dc(case14)
        assert sol.status == OPTIMAL
        assert float(np.sum(sol.dispatch)) == pytest.approx(
            float(np.sum(case14.p_load)), abs=1e-8)

    def test_binding_line_limit_hand_kkt(self):
        # Cheap unit at bus 1 is capped by the 50 MW line 1-3: flow is
        # (2 g1 + g2) / 3 <= 0.5 with g1 + g2 = 1, so g1 = g2 = 0.5 and the
        # line's shadow price is 3000 $/p.u. (= 30 $/MWh).
        case = load_text(triangle_text(rate_13=50.0))
        sol = solve_deterministic_dc(case)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.dispatch, [0.5, 0.5], atol=1e-8)
        assert sol.cost == pytest.approx(1500.0, abs=1e-5)
        # Finite rows: 4 generator rows then the one rated line (hi, lo).
        assert sol.qp.duals_ineq[4] == pytest.approx(3000.0, rel=1e-6)
        assert sol.qp.duals_eq[0] == pytest.approx(-3000.0, rel=1e-6)

    def test_infeasible_reports_conflicting_row(self):
        case = load_text(triangle_text(load_mw=1000.0, rate_13=0.0))
        sol = solve_deterministic_dc(case)
        assert sol.status == INFEASIBLE
        assert sol.dispatch is None
        assert "gen" in sol.message

    def test_balance_row_nets_out_forecasts(self, case14, fleet14):
        a_eq, b_eq = balance_equality(case14, fleet14)
        np.testing.assert_array_equal(a_eq, np.ones((1, 5)))
        assert b_eq[0] == pytest.approx(2.59 - 0.4, abs=1e-12)
