"""Nonlinear network machinery: Newton flow, quadratic cross-checks,
response sensitivities, and the alternating dispatch/selection loop."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from ccopf import ac_model
from ccopf.ambiguity import AmbiguityParams
from ccopf.ac_model import (
    NEWTON_TOL,
    AcEvaluator,
    AcState,
    FixedPointError,
    NewtonError,
    ac_row_set,
    fixed_point_solve,
    linearize_cc_system,
    loss_balance_equality,
    pf_solve,
    quantity_values,
    respond,
    response_jacobian,
    solve_operating_point,
)
from ccopf.case_io import (
    PQ,
    build_fleet,
    load_case,
    packaged_case_path,
    parse_matpower,
    to_network,
)
from ccopf.dc_model import dc_response
from ccopf.cli import _network_model, sweep_k
from ccopf.scenario_mip import ROW_TOL
from ccopf.scenarios import GaussianSpec, sample

TWO_BUS = """\
function mpc = twobus
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0 0 0 0 1 1.0 0 135 1 1.5 0.5;
 2 1 {pd} {qd} 0 0 1 1.0 0 135 1 1.5 0.5;
];
mpc.gen = [
 1 0 0 99 -99 1.0 100 1 500 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
 1 2 {r} {x} 0 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
 2 0 0 3 0.01 20 0;
];
"""


def two_bus(r, x, pd_mw, qd_mw):
    text = TWO_BUS.format(r=r, x=x, pd=pd_mw, qd=qd_mw)
    return to_network(parse_matpower(text))


TRIANGLE = """\
function mpc = triangle
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0 0 0 0 1 1.0 0 135 1 1.5 0.5;
 2 2 {pd2} {qd2} 0 0 1 1.0 0 135 1 1.5 0.5;
 3 1 {pd3} {qd3} 0 0 1 1.0 0 135 1 1.5 0.5;
];
mpc.gen = [
 1 0 0 99 -99 1.0 100 1 300 0 0 0 0 0 0 0 0 0 0 0 0;
 2 0 0 99 -99 1.0 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
 1 2 {r} 0.10 0 0 0 0 0 0 1 -360 360;
 1 3 {r} 0.10 0 0 0 0 0 0 1 -360 360;
 2 3 {r} 0.10 0 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
 2 0 0 3 0.01 20 0;
 2 0 0 3 0.02 25 0;
];
"""


def triangle(r, pd2_mw, pd3_mw, qd2_mw=0.0, qd3_mw=0.0):
    text = TRIANGLE.format(r=r, pd2=pd2_mw, pd3=pd3_mw,
                           qd2=qd2_mw, qd3=qd3_mw)
    return to_network(parse_matpower(text))


def polar_injections_loop(case, vmag, theta):
    """Textbook double-loop polar injection formulas (independent oracle)."""
    n = case.n_bus
    g = np.zeros((n, n))
    b = np.zeros((n, n))
    for l in range(case.n_branch):
        f, t = int(case.br_from[l]), int(case.br_to[l])
        den = case.br_r[l] ** 2 + case.br_x[l] ** 2
        gl, bl = case.br_r[l] / den, -case.br_x[l] / den
        g[f, f] += gl
        b[f, f] += bl
        g[t, t] += gl
        b[t, t] += bl
        g[f, t] -= gl
        b[f, t] -= bl
        g[t, f] -= gl
        b[t, f] -= bl
    p = np.zeros(n)
    q = np.zeros(n)
    for i in range(n):
        for k in range(n):
            th = theta[i] - theta[k]
            p[i] += vmag[i] * vmag[k] * (g[i, k] * math.cos(th)
                                         + b[i, k] * math.sin(th))
            q[i] += vmag[i] * vmag[k] * (g[i, k] * math.sin(th)
                                         - b[i, k] * math.cos(th))
    return p, q


def state_at(case, vmag, theta):
    """Consistent operating point synthesized from given voltages.

    All power quantities are evaluated from (vmag, theta); the state lies
    on the power-flow manifold by construction but is not marked solved
    (it answers to no setpoints).
    """
    vmag = np.asarray(vmag, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(vmag <= 0):
        raise ValueError("voltage magnitudes must be positive")
    return ac_model._make_state(ac_model._network(case), vmag, theta, False,
                                0, np.inf, "synthesized from voltages")


def stock_case14_setpoints(case14):
    """Net injection targets from the file's scheduled outputs."""
    p_set = -case14.p_load.copy()
    np.add.at(p_set, case14.gen_bus, np.array([2.324, 0.40, 0.0, 0.0, 0.0]))
    return p_set, -case14.q_load.copy()


def signed_expected(rows, values):
    """Documented two-sided layout: hi then lo per kind, flows upper-only."""
    pieces = []
    for kind in ("pgen", "qbus", "v"):
        sel = [v for v, k in zip(values, rows.kinds) if k == kind]
        pieces.append(np.array(sel))
        pieces.append(-np.array(sel))
    pieces.append(np.array(
        [v for v, k in zip(values, rows.kinds) if k == "flow"]))
    return np.concatenate(pieces)


class TestPowerFlow:
    def test_no_load_flat(self):
        case = two_bus(0.0, 0.1, 0.0, 0.0)
        state = pf_solve(case, np.zeros(2), np.zeros(2))
        assert state.solved
        assert state.iterations == 0
        assert np.abs(state.p).max() == 0.0
        assert np.abs(state.q).max() == 0.0
        assert np.abs(state.theta).max() == 0.0
        assert np.abs(state.ell).max() == 0.0
        np.testing.assert_allclose(state.v, 1.0)

    def test_two_bus_hand_solution(self):
        # Lossless line, x = 0.1, 0.5 p.u. load: the reactive balance gives
        # V2 = cos(theta2) and the active balance 10 sin(2 theta2) / 2 = -0.5.
        case = two_bus(0.0, 0.1, 50.0, 0.0)
        state = pf_solve(case, np.array([0.0, -0.5]), np.zeros(2))
        assert state.solved
        theta2 = -math.asin(0.1) / 2.0
        v2 = math.cos(theta2)
        assert state.theta[1] == pytest.approx(theta2, abs=1e-9)
        assert math.sqrt(state.v[1]) == pytest.approx(v2, abs=1e-9)
        # from-side flow carries the full load, slack injects exactly 0.5
        assert state.ell[0] == pytest.approx(0.5, abs=1e-9)
        assert state.ell[1] == pytest.approx(-0.5, abs=1e-9)
        assert state.p[0] == pytest.approx(0.5, abs=1e-9)
        assert state.q[0] == pytest.approx(10.0 * math.sin(theta2) ** 2,
                                           abs=1e-9)

    def test_case14_stock_controls(self, case14):
        p_set, q_set = stock_case14_setpoints(case14)
        state = pf_solve(case14, p_set, q_set)
        assert state.solved
        assert state.mismatch <= 1e-10
        assert state.theta[case14.slack] == 0.0
        assert np.all(state.v > 0)
        ns = np.arange(14) != case14.slack
        np.testing.assert_allclose(state.p[ns], p_set[ns], atol=1e-10)

    def test_failure_is_flagged_not_raised(self):
        case = two_bus(0.0, 0.1, 5000.0, 0.0)  # far beyond line capacity
        state = pf_solve(case, np.array([0.0, -50.0]), np.zeros(2))
        assert not state.solved
        assert state.message
        assert np.isfinite(state.mismatch) and state.mismatch > 1e-10

    def test_losses_positive_on_lossy_line(self):
        case = two_bus(0.05, 0.1, 50.0, 10.0)
        state = pf_solve(case, np.array([0.0, -0.5]),
                         np.array([0.0, -0.1]))
        assert state.solved
        # total injection == network losses > 0, both flow ends sum to it
        losses = state.p.sum()
        assert losses > 1e-4
        assert state.ell[0] + state.ell[1] == pytest.approx(losses,
                                                            abs=1e-12)


# Rectangular quadratic-form restatement of the power-flow quantities, an
# independent cross-check of the polar formulas.


@dataclass(frozen=True, eq=False)
class QuadraticFormModel:
    """Rectangular-coordinate quadratic forms of every state quantity.

    With X = [e; f] the stacked real/imaginary bus voltages, active
    injections are X' y_p[k] X, reactive X' y_q[k] X, squared magnitudes
    X' m_v[k] X, and directed branch flows X' y_br[row] X.  Dense (one
    (2n, 2n) matrix per quantity), intended as a reference model for small
    networks.
    """

    y_p: np.ndarray
    y_q: np.ndarray
    m_v: np.ndarray
    y_br: np.ndarray


def _re_form(h):
    """Symmetric 2n-form of Re{V^H h V} on X = [e; f]."""
    q = np.block([[h.real, -h.imag], [h.imag, h.real]])
    return 0.5 * (q + q.T)


def _im_form(h):
    """Symmetric 2n-form of Im{V^H h V} on X = [e; f]."""
    q = np.block([[h.imag, h.real], [-h.real, h.imag]])
    return 0.5 * (q + q.T)


def build_quadratic_model(case):
    net = ac_model._network(case)
    n = case.n_bus
    f, t = case.br_from, case.br_to
    y_series = 1.0 / (case.br_r + 1j * case.br_x)
    ll = f.size
    y_p = np.empty((n, 2 * n, 2 * n))
    y_q = np.empty((n, 2 * n, 2 * n))
    m_v = np.empty((n, 2 * n, 2 * n))
    for k in range(n):
        h = np.zeros((n, n), dtype=complex)
        h[:, k] = np.conj(net.ybus[k, :])
        y_p[k] = _re_form(h)
        y_q[k] = _im_form(h)
        sel = np.zeros((n, n))
        sel[k, k] = 1.0
        m_v[k] = _re_form(sel.astype(complex))
    y_br = np.empty((2 * ll, 2 * n, 2 * n))
    for row in range(2 * ll):
        l = row % ll
        a, b = (f[l], t[l]) if row < ll else (t[l], f[l])
        h = np.zeros((n, n), dtype=complex)
        h[a, a] = np.conj(y_series[l])
        h[b, a] = -np.conj(y_series[l])
        y_br[row] = _re_form(h)
    return QuadraticFormModel(y_p=y_p, y_q=y_q, m_v=m_v, y_br=y_br)


def state_x(state):
    """Rectangular voltage vector [e; f] of a state."""
    vmag = np.sqrt(state.v)
    return np.concatenate([vmag * np.cos(state.theta),
                           vmag * np.sin(state.theta)])


def quadratic_residuals(model, state):
    """Quadratic-form values minus the state's stored quantities.

    Stacked [active; reactive; squared magnitude; directed flows]; zero
    exactly when the state is internally consistent.
    """
    x = state_x(state)
    p_form = np.einsum("i,rij,j->r", x, model.y_p, x)
    q_form = np.einsum("i,rij,j->r", x, model.y_q, x)
    v_form = np.einsum("i,rij,j->r", x, model.m_v, x)
    l_form = np.einsum("i,rij,j->r", x, model.y_br, x)
    return np.concatenate([p_form - state.p, q_form - state.q,
                           v_form - state.v, l_form - state.ell])


class TestQuadraticModel:
    def test_solved_state_residuals(self, case14, fleet14_ac):
        state = solve_operating_point(case14, fleet14_ac,
                                      np.full(5, 2.19 / 5))
        assert state.solved
        model = build_quadratic_model(case14)
        assert np.abs(quadratic_residuals(model, state)).max() <= 1e-8

    def test_no_branch_residuals_are_minus_injections(self):
        # A disconnected pair (the only branch is switched off) has a zero
        # admittance matrix, so the quadratic forms vanish and the
        # residuals are exactly the negated stored quantities.
        text = TWO_BUS.format(r=0.0, x=0.1, pd=0.0, qd=0.0).replace(
            " 1 2 0.0 0.1 0 0 0 0 0 0 1 -360 360;",
            " 1 2 0.0 0.1 0 0 0 0 0 0 0 -360 360;")
        case = to_network(parse_matpower(text))
        assert case.n_branch == 0
        model = build_quadratic_model(case)
        state = AcState(p=np.array([0.3, -0.2]), q=np.array([0.1, 0.4]),
                        v=np.ones(2), theta=np.zeros(2), ell=np.zeros(0),
                        solved=False, iterations=0, mismatch=np.inf)
        res = quadratic_residuals(model, state)
        np.testing.assert_array_equal(res[:2], [-0.3, 0.2])
        np.testing.assert_array_equal(res[2:4], [-0.1, -0.4])
        np.testing.assert_array_equal(res[4:6], [0.0, 0.0])

    def test_matches_polar_on_random_states(self, case14):
        model = build_quadratic_model(case14)
        rng = np.random.default_rng(0)
        for _ in range(100):
            vmag = rng.uniform(0.9, 1.1, size=14)
            theta = rng.uniform(-0.5, 0.5, size=14)
            theta[case14.slack] = 0.0
            state = state_at(case14, vmag, theta)
            assert np.abs(quadratic_residuals(model, state)).max() <= 1e-10

    def test_polar_matches_hand_loop(self, case14):
        rng = np.random.default_rng(3)
        for _ in range(3):
            vmag = rng.uniform(0.95, 1.05, size=14)
            theta = rng.uniform(-0.3, 0.3, size=14)
            state = state_at(case14, vmag, theta)
            p, q = polar_injections_loop(case14, vmag, theta)
            np.testing.assert_allclose(state.p, p, atol=1e-10)
            np.testing.assert_allclose(state.q, q, atol=1e-10)


class TestRespond:
    def test_zero_error_is_identity(self, case14, fleet14):
        state = solve_operating_point(case14, fleet14, np.full(5, 0.438))
        assert state.solved
        back = respond(case14, fleet14, state, np.zeros(2))
        for field in ("p", "q", "v", "theta", "ell"):
            diff = np.abs(getattr(back, field) - getattr(state, field))
            assert diff.max() <= 1e-10

    def test_setpoint_algebra(self, case14):
        # VRE at PQ buses so the reactive shift is visible in the flow.
        fleet = build_fleet(case14, [case14.bus_index(9),
                                     case14.bus_index(14)],
                            np.array([0.15, 0.15]), 0.1)
        dispatch = np.full(5, 0.45)
        state = solve_operating_point(case14, fleet, dispatch)
        xi = np.array([0.06, -0.02])
        responded = respond(case14, fleet, state, xi)
        assert responded.solved
        ns = np.arange(14) != case14.slack
        direct = np.zeros(14)
        direct[fleet.vre_buses] = xi
        expected_p = (state.p + direct
                      - fleet.participation * xi.sum())
        np.testing.assert_allclose(responded.p[ns], expected_p[ns],
                                   atol=1e-8)
        expected_q = state.q + fleet.gamma * direct
        pq = case14.bus_kind == PQ
        np.testing.assert_allclose(responded.q[pq], expected_q[pq],
                                   atol=1e-8)

    def test_continuity_along_a_ray(self, case14, fleet14):
        state = solve_operating_point(case14, fleet14, np.full(5, 0.438))
        direction = np.array([0.3 * 0.2, -0.3 * 0.2])
        samples = np.linspace(0.0, 1.0, 7)
        states = [respond(case14, fleet14, state, t * direction)
                  for t in samples]
        assert all(s.solved for s in states)
        steps = [np.abs(np.concatenate([
            b.v - a.v, b.theta - a.theta])).max()
            for a, b in zip(states, states[1:])]
        assert max(steps) <= 4.0 * max(steps[0], 1e-12)


class TestResponseJacobian:
    def fd_matrix(self, case, fleet, rows, state, dispatch, h=1e-5):
        fd = np.empty((rows.n_rows, fleet.n_vre))
        for j in range(fleet.n_vre):
            e = np.zeros(fleet.n_vre)
            e[j] = h
            up = respond(case, fleet, state, e)
            dn = respond(case, fleet, state, -e)
            assert up.solved and dn.solved
            fd[:, j] = (quantity_values(case, fleet, rows, up, dispatch, e)
                        - quantity_values(case, fleet, rows, dn, dispatch,
                                          -e)) / (2 * h)
        return fd

    # Bus 1 is the slack: with slack rows, its machine rows and the direct
    # error term of a source at the slack bus are differentiated too.
    # case14 rates no branch, so only the rated input has flow rows.
    @pytest.mark.parametrize("vre_buses, include_slack_rows, rated",
                             [((2, 3), False, False), ((9, 14), False, False),
                              ((1, 3), True, False), ((9, 14), False, True)],
                             ids=["vre_buses0", "vre_buses1", "slack_rows",
                                  "rated"])
    def test_finite_differences(self, case14, vre_buses,
                                include_slack_rows, rated):
        if rated:
            case14 = replace(case14, br_limit=np.full(case14.n_branch, 1.0))
        fleet = build_fleet(case14, [case14.bus_index(b)
                                     for b in vre_buses],
                            np.array([0.15, 0.15]), 0.1)
        dispatch = np.full(5, 0.45)
        state = solve_operating_point(case14, fleet, dispatch)
        rows = ac_row_set(case14, fleet,
                          include_slack_rows=include_slack_rows)
        assert rows.kinds.count("flow") == (2 * case14.n_branch if rated
                                            else 0)
        jac = response_jacobian(case14, fleet, state, rows=rows)
        fd = self.fd_matrix(case14, fleet, rows, state, dispatch)
        big = np.abs(jac.j_matrix) > 1e-8
        rel = (np.abs(fd - jac.j_matrix)[big]
               / np.abs(jac.j_matrix)[big])
        assert rel.max() <= 1e-4
        if np.any(~big):
            assert np.abs(fd - jac.j_matrix)[~big].max() <= 1e-6

    def test_machine_rows_are_exactly_the_participation(self, case14,
                                                        fleet14):
        state = solve_operating_point(case14, fleet14, np.full(5, 0.438))
        jac = response_jacobian(case14, fleet14, state,
                                rows=ac_row_set(case14, fleet14))
        ns_gens = np.flatnonzero(~case14.slack_gen_mask())
        expected = -np.tile(fleet14.gen_participation[ns_gens][:, None],
                            (1, 2))
        np.testing.assert_array_equal(jac.j_matrix[:ns_gens.size], expected)

    def test_richardson_quadratic_remainder(self, case14, fleet14):
        dispatch = np.full(5, 0.438)
        state = solve_operating_point(case14, fleet14, dispatch)
        rows = ac_row_set(case14, fleet14)
        jac = response_jacobian(case14, fleet14, state, rows=rows)
        base = quantity_values(case14, fleet14, rows, state, dispatch)
        direction = np.array([1.0, -0.7])
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            xi = h * direction
            responded = respond(case14, fleet14, state, xi)
            vals = quantity_values(case14, fleet14, rows, responded,
                                   dispatch, xi)
            errs.append(np.abs(vals - base - jac.j_matrix @ xi).max())
        # halving the step must shrink the remainder about fourfold
        assert errs[1] <= errs[0] / 4.0 * 1.5 + 1e-14
        assert errs[2] <= errs[1] / 4.0 * 1.5 + 1e-14

    def test_flow_rows_approach_dc_sensitivities(self):
        case = triangle(0.0, 0.1, 0.1)  # lossless, near-flat
        case = replace(case, br_limit=np.full(3, 1.0))  # flows have rows
        fleet = build_fleet(case, [1, 2], np.array([0.01, 0.01]), 0.1)
        dispatch = np.array([0.001, 0.001])
        state = solve_operating_point(case, fleet, dispatch)
        rows = ac_row_set(case, fleet)
        jac = response_jacobian(case, fleet, state, rows=rows)
        flow_rows = np.array([r for r, k in enumerate(rows.kinds)
                              if k == "flow"])
        fwd = jac.j_matrix[flow_rows[:3]]
        rev = jac.j_matrix[flow_rows[3:]]
        dc = dc_response(case, fleet).flow_sens
        assert np.abs(fwd - dc).max() / np.abs(dc).max() <= 0.02
        # lossless twin rows are exact negations
        np.testing.assert_allclose(rev, -fwd, atol=1e-8)


@pytest.fixture(scope="module")
def case14_ac_rated(case14_ac):
    """case14_ac with every branch rated at 1 p.u., as
    case.default_line_limit = 1 rates case14's unrated branches, so every
    directed flow has its signed row."""
    br_limit = np.full(case14_ac.n_branch, 1.0)
    br_limit.setflags(write=False)
    return replace(case14_ac, br_limit=br_limit)


class TestRowSet:
    def test_only_quantities_with_a_bound_are_monitored(self, ac14_inputs):
        # case14q rates no branch: no directed flow is a quantity, and the
        # 17 quantities expand into 34 signed rows.  Rated, all 40 are.
        case, fleet, _, _ = ac14_inputs
        rows = ac_row_set(case, fleet)
        assert (rows.n_rows, len(rows.signed_names)) == (17, 34)
        assert "flow" not in rows.kinds
        rated = replace(case, br_limit=np.full(case.n_branch, 1.0))
        rows = ac_row_set(rated, fleet)
        assert (rows.n_rows, len(rows.signed_names)) == (57, 74)
        assert rows.kinds.count("flow") == 40
        # One rated branch: its two directed flows, from-side first.
        one = replace(case, br_limit=np.where(np.arange(case.n_branch) == 3,
                                              0.5, np.inf))
        rows = ac_row_set(one, fleet)
        assert rows.names[17:] == ("flow3_fwd:2-4", "flow3_rev:2-4")
        np.testing.assert_array_equal(rows.flows, [3, 3 + case.n_branch])
        np.testing.assert_array_equal(rows.hi[17:], [0.5, 0.5])


class TestLinearization:
    def test_rows_exact_at_expansion_point(self, case14_ac_rated,
                                           fleet14_ac):
        case, fleet = case14_ac_rated, fleet14_ac
        dispatch = np.full(5, 0.438)
        state = solve_operating_point(case, fleet, dispatch)
        rows = ac_row_set(case, fleet)
        jac = response_jacobian(case, fleet, state, rows=rows)
        cc = linearize_cc_system(case, fleet, state, dispatch, rows=rows,
                                 sens_rows=jac.j_matrix)
        values = quantity_values(case, fleet, rows, state, dispatch)
        expected = signed_expected(rows, values)
        np.testing.assert_allclose(cc.row_values(dispatch, np.zeros(2)),
                                   expected, atol=1e-9)
        # bounds: upper bounds for hi rows, negated lower bounds for lo
        kinds = np.asarray(rows.kinds)
        hi = np.asarray(rows.hi)
        lo = np.asarray(rows.lo)
        pieces = []
        for kind in ("pgen", "qbus", "v"):
            pieces += [hi[kinds == kind], -lo[kinds == kind]]
        pieces.append(hi[kinds == "flow"])
        np.testing.assert_array_equal(cc.rhs, np.concatenate(pieces))

    def test_unsolved_state_is_rejected(self, case14_ac, fleet14_ac):
        state = state_at(case14_ac, np.ones(case14_ac.n_bus),
                         np.zeros(case14_ac.n_bus))
        rows = ac_row_set(case14_ac, fleet14_ac)
        dispatch = np.full(5, 0.438)
        calls = (
            lambda: response_jacobian(case14_ac, fleet14_ac, state,
                                      rows=rows),
            lambda: linearize_cc_system(
                case14_ac, fleet14_ac, state, dispatch, rows=rows,
                sens_rows=np.zeros((rows.n_rows, 2))),
            lambda: loss_balance_equality(case14_ac, fleet14_ac, state,
                                          dispatch),
        )
        for call in calls:
            with pytest.raises(NewtonError,
                               match="linearization needs a solved state: "
                                     "synthesized from voltages"):
                call()

    def test_loss_balance_lossless_is_plain_sum(self):
        case = triangle(0.0, 30.0, 20.0)
        fleet = build_fleet(case, [2], np.array([0.05]), 0.1)
        dispatch = np.array([0.3, 0.15])
        state = solve_operating_point(case, fleet, dispatch)
        a_eq, b_eq = loss_balance_equality(case, fleet, state, dispatch)
        np.testing.assert_allclose(a_eq, 1.0, atol=1e-9)
        assert b_eq[0] == pytest.approx(0.5 - 0.05, abs=1e-9)

    def test_loss_balance_ties_slack_to_its_dispatch(self):
        case = triangle(0.03, 30.0, 20.0, qd2_mw=5.0, qd3_mw=5.0)
        fleet = build_fleet(case, [2], np.array([0.05]), 0.1)
        params = AmbiguityParams.from_k(4, 4)
        result = fixed_point_solve(case, fleet, np.zeros((4, 1)), params)
        x = result.selection.x_star
        slack_machine = (result.state.p[case.slack]
                         + case.p_load[case.slack])
        assert abs(slack_machine - x[0]) <= 1e-5
        # losses make the tied coefficient exceed one
        a_eq, _ = loss_balance_equality(case, fleet, result.state, x)
        assert a_eq[0, 1] > 1.0


class TestFixedPoint:
    def test_zero_spread_converges_immediately(self, case14_ac,
                                               fleet14_ac):
        params = AmbiguityParams.from_k(8, 10)
        result = fixed_point_solve(case14_ac, fleet14_ac,
                                   np.zeros((10, 2)), params)
        assert result.outer_iterations == 1
        assert result.d_history[-1] <= 1e-4
        assert result.selection.status == "OPTIMAL"
        assert result.state.solved

    def test_case14_setup_converges(self, case14_ac, fleet14_ac):
        spec = GaussianSpec(forecasts=np.array([0.2, 0.2]), zeta=0.05,
                            rho=0.2)
        training = sample(spec, 200, seed=11)
        params = AmbiguityParams.from_k(190, 200)
        result = fixed_point_solve(case14_ac, fleet14_ac, training, params)
        assert result.outer_iterations <= 5
        assert result.d_history[-1] <= 1e-4
        sel = result.selection
        assert sel.status == "OPTIMAL"
        assert int(sel.z_star.sum()) == 10

        # honesty re-check: every enforced scenario verified by full Newton
        rows = ac_row_set(case14_ac, fleet14_ac)
        for j in np.flatnonzero(sel.z_star == 0):
            responded = respond(case14_ac, fleet14_ac, result.state,
                                training.xi[j])
            assert responded.solved
            vals = quantity_values(case14_ac, fleet14_ac, rows, responded,
                                   sel.x_star, training.xi[j])
            assert np.all(vals <= rows.hi + 1e-4)
            assert np.all(vals >= rows.lo - 1e-4)

        # enforcing scenarios can only cost more than the unconstrained fit
        det = fixed_point_solve(case14_ac, fleet14_ac, np.zeros((5, 2)),
                                AmbiguityParams.from_k(5, 5))
        assert sel.objective >= det.selection.objective - 1e-6

    def test_selection_failure_names_the_node(self, case14_ac, fleet14_ac,
                                              monkeypatch):
        from ccopf.scenario_mip import NUMERICAL_FAILURE, SelectionSolution

        failed = SelectionSolution(
            x_star=None, z_star=None, objective=np.nan, enforced_set=(),
            status=NUMERICAL_FAILURE,
            message="node 3 (|E| = 2, |R| = 1): injected")
        monkeypatch.setattr(ac_model, "solve_selection",
                            lambda problem, options=None: failed)
        with pytest.raises(FixedPointError,
                           match=r"selection stage: NUMERICAL_FAILURE at "
                                 r"node 3 \(\|E\| = 2, \|R\| = 1\): "
                                 r"injected"):
            fixed_point_solve(case14_ac, fleet14_ac, np.zeros((4, 2)),
                              AmbiguityParams.from_k(3, 4))

    def test_deterministic_conflict_names_the_row(self, ac14_inputs,
                                                  monkeypatch):
        # Every PQ bus held to 1.2-1.3 p.u. leaves the deterministic stage
        # no dispatch; the certificate weighs bus 14's lower limit most.
        import dataclasses

        from ccopf.scenario_mip import INFEASIBLE, QpSubproblemResult

        case, fleet, _, _ = ac14_inputs
        pq = case.bus_kind == PQ
        case = dataclasses.replace(
            case, v_min2=np.where(pq, 1.44, case.v_min2),
            v_max2=np.where(pq, 1.69, case.v_max2))
        spec = GaussianSpec(forecasts=fleet.forecasts, zeta=0.05, rho=0.2)
        train = sample(spec, 10, seed=7)
        params = AmbiguityParams.from_k(10, 10)
        solved = []
        real_qp_solve = ac_model.qp_solve

        def recorded(cost, system):
            solved.append((system, real_qp_solve(cost, system)))
            return solved[-1][1]

        with monkeypatch.context() as patch:
            patch.setattr(ac_model, "qp_solve", recorded)
            with pytest.raises(FixedPointError) as info:
                fixed_point_solve(case, fleet, train, params)
        assert str(info.value) == ("deterministic stage: INFEASIBLE "
                                   "(most conflicted row: v@bus14_lo)")
        # The named row is the heaviest of a valid Farkas certificate.
        system, result = solved[-1]
        y, mu = result.certificate["y_ineq"], result.certificate["y_eq"]
        assert np.min(y) >= 0.0
        combo = y @ system.a_ineq + mu @ system.a_eq
        assert np.max(np.abs(combo)) <= 1e-6 * max(1.0, np.max(y))
        assert y @ system.b_ineq + mu @ system.b_eq < 0.0
        # Without a certificate there is no row to name.
        monkeypatch.setattr(ac_model, "qp_solve", lambda cost, system:
                            QpSubproblemResult(status=INFEASIBLE))
        with pytest.raises(FixedPointError) as info:
            fixed_point_solve(case, fleet, train, params)
        assert str(info.value) == "deterministic stage: INFEASIBLE"

    def test_one_factorization_per_operating_point(self, ac14_inputs,
                                                   monkeypatch):
        # The linearized rows, the loss balance and the error response at
        # an operating point all come from one factorization of its
        # power-flow Jacobian, and the last re-projected point, whose
        # state alone is read, is never factored.
        import scipy.linalg

        case, fleet, train, _ = ac14_inputs
        counts = {"lu_factor": 0, "power_flow": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.linalg, "lu_factor",
                            counted("lu_factor", scipy.linalg.lu_factor))
        monkeypatch.setattr(ac_model, "solve_operating_point",
                            counted("power_flow",
                                    ac_model.solve_operating_point))
        fixed_point_solve(case, fleet, train, AmbiguityParams.from_k(38, 40))
        assert counts["power_flow"] > 2
        assert counts["lu_factor"] == counts["power_flow"] - 1

    def test_row_partials_once_per_operating_point(self, ac14_inputs,
                                                   monkeypatch):
        # The frozen error response and the first inner pass at the point
        # an outer iteration starts from read one copy of the rows' state
        # partials: 17 points on ac14 at k = 38, each differentiated once.
        case, fleet, train, _ = ac14_inputs
        states = []
        real = ac_model.AcRowSet.state_partials

        def counted(rows, lin):
            states.append(lin.state)
            return real(rows, lin)

        monkeypatch.setattr(ac_model.AcRowSet, "state_partials", counted)
        fixed_point_solve(case, fleet, train, AmbiguityParams.from_k(38, 40))
        assert len({id(state) for state in states}) == len(states) == 17

    def test_one_network_per_solve_and_per_evaluator(self, ac14_inputs,
                                                     monkeypatch):
        # Every power flow of a solve, and the evaluator's nominal one,
        # runs on the _Network its caller already holds.
        case, fleet, train, test = ac14_inputs
        builds = []
        real = ac_model._network

        def counted(case):
            builds.append(case)
            return real(case)

        monkeypatch.setattr(ac_model, "_network", counted)
        result = fixed_point_solve(case, fleet, train,
                                   AmbiguityParams.from_k(38, 40))
        assert len(builds) == 1
        AcEvaluator(case, fleet, result.selection.x_star)
        assert len(builds) == 2

    def test_infeasible_reactive_range_is_reported(self, case14, fleet14):
        # stock ranges cannot cover the dropped charging/shunt support
        params = AmbiguityParams.from_k(4, 4)
        with pytest.raises(FixedPointError, match="qgen"):
            fixed_point_solve(case14, fleet14, np.zeros((4, 2)), params)


class TestEvaluationHooks:
    def test_newton_failure_counts_as_violation(self, case14_ac,
                                                fleet14_ac):
        evaluator = AcEvaluator(case14_ac, fleet14_ac, np.full(5, 0.438))
        joint, per_row = evaluator.check(
            np.full(5, 0.438), np.array([[50.0, 50.0], [0.0, 0.0]]))
        assert evaluator.row_names[-1] == "newton_failure"
        np.testing.assert_array_equal(joint, [True, False])
        assert per_row[-1] == 0.5

    def test_sweep_over_the_nonlinear_model(self, case14_ac, fleet14_ac,
                                            tmp_path):
        spec = GaussianSpec(forecasts=np.array([0.2, 0.2]), zeta=0.05,
                            rho=0.2)
        train = sample(spec, 40, seed=7)
        test = sample(spec, 300, seed=8)
        rows, digest = sweep_k(_network_model("ac", case14_ac, fleet14_ac),
                               train, test, [36, 40], record_time=False)
        assert [r["k"] for r in rows] == [40, 36]  # ascending epsilon*
        assert all(r["status"] == "OPTIMAL" for r in rows)
        assert rows[0]["cost_vs_ro"] == 1.0
        assert all(0.0 <= r["joint_violation"] <= 1.0 for r in rows)
        assert rows[1]["cost"] <= rows[0]["cost"] + 1e-9

        rows2, digest2 = sweep_k(
            _network_model("ac", case14_ac, fleet14_ac), train, test,
            [36, 40], record_time=False)
        assert digest2 == digest
        assert rows2 == rows

    def test_sweep_monitors_slack_rows_when_asked(self, ac14_inputs):
        # The slack rows bind on ac14 (6679.23 with them, 6520.72 without),
        # so a sweep that drops the flag reports the wrong optimum.
        case, fleet, train, test = ac14_inputs
        rows, _ = sweep_k(
            _network_model("ac", case, fleet, include_slack_rows=True),
            train, test, [38], record_time=False)
        result = fixed_point_solve(case, fleet, train,
                                   AmbiguityParams.from_k(38, 40),
                                   include_slack_rows=True)
        assert rows[0]["status"] == "OPTIMAL"
        assert rows[0]["cost"] == result.selection.objective


@pytest.fixture(scope="module")
def ac14_inputs():
    """configs/ac14.ini: case14q, its fleet, the 40 training and the 2000
    test scenarios."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # dropped line charging
        case = load_case(packaged_case_path("case14q"))
    fleet = build_fleet(case, [case.bus_index(2), case.bus_index(3)],
                        np.array([20.0, 20.0]), 0.1, forecasts_in_mw=True)
    spec = GaussianSpec(forecasts=fleet.forecasts, zeta=0.05, rho=0.2)
    return case, fleet, sample(spec, 40, seed=7), sample(spec, 2000, seed=8)


@pytest.fixture(scope="module")
def ac14(ac14_inputs):
    """configs/ac14.ini: case14q, its fixed-point dispatch at k = 38 of 40,
    an evaluator at that dispatch and the 2000 test scenarios."""
    case, fleet, train, test = ac14_inputs
    result = fixed_point_solve(case, fleet, train,
                               AmbiguityParams.from_k(38, 40))
    dispatch = result.selection.x_star
    return case, fleet, dispatch, AcEvaluator(case, fleet, dispatch), test.xi


def batch_of_one_check(evaluator, dispatch, xi):
    """The scalar scoring loop: respond, read the rows, compare bounds."""
    violated = np.zeros((xi.shape[0], len(evaluator.row_names)), dtype=bool)
    iterations = np.zeros(xi.shape[0], dtype=int)
    for j, xi_j in enumerate(xi):
        responded = respond(evaluator.case, evaluator.fleet, evaluator.state,
                            xi_j)
        iterations[j] = responded.iterations
        if not responded.solved:
            violated[j, -1] = True
            continue
        values = quantity_values(evaluator.case, evaluator.fleet,
                                 evaluator.rows, responded, dispatch, xi_j)
        rows = evaluator.rows
        margins = rows.rhs - rows.signs * values[rows.q_idx]
        violated[j, :-1] = margins < -ROW_TOL
    return violated.any(axis=1), violated.mean(axis=0), iterations


def assert_block_matches_batch_of_one(evaluator, xi, block_result):
    iterations, norm, vmag, theta = block_result
    _, _, v, ell = ac_model._quantities(evaluator._net, vmag, theta)
    for j, xi_j in enumerate(xi):
        alone = respond(evaluator.case, evaluator.fleet, evaluator.state,
                        xi_j)
        assert iterations[j] == alone.iterations
        assert (norm[j] <= NEWTON_TOL) == alone.solved
        np.testing.assert_allclose(v[j], alone.v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(theta[j], alone.theta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ell[j], alone.ell, rtol=0, atol=1e-12)


class TestBatchedNewton:
    def test_ac14_blocks_equal_batch_of_one(self, ac14):
        _, _, _, evaluator, xi = ac14
        step = ac_model._block_size(evaluator.case.n_bus)
        for lo in range(0, xi.shape[0], step):
            block = xi[lo:lo + step]
            assert_block_matches_batch_of_one(evaluator, block,
                                              evaluator._respond(block))

    def test_larger_block_gives_the_same_results(self, ac14):
        _, _, _, evaluator, xi = ac14
        assert_block_matches_batch_of_one(evaluator, xi[:300],
                                          evaluator._respond(xi[:300]))

    def test_failing_scenario_leaves_neighbours_unchanged(self, ac14):
        _, _, _, evaluator, xi = ac14
        clean = xi[:20]
        mixed = np.vstack([clean[:10], [[50.0, 50.0]], clean[10:]])
        iterations, norm, vmag, theta = evaluator._respond(mixed)
        assert norm[10] > NEWTON_TOL
        keep = np.arange(21) != 10
        ref_its, ref_norm, ref_vmag, ref_theta = evaluator._respond(clean)
        np.testing.assert_array_equal(iterations[keep], ref_its)
        np.testing.assert_array_equal(norm[keep], ref_norm)
        np.testing.assert_array_equal(vmag[keep], ref_vmag)
        np.testing.assert_array_equal(theta[keep], ref_theta)
        assert_block_matches_batch_of_one(
            evaluator, mixed, (iterations, norm, vmag, theta))

    # case14q rates no branch; rated at 0.6 p.u., the block scorer reads
    # the 40 flow rows too, and some of them are violated.
    @pytest.mark.parametrize("size", ["one", "block", "ragged", "rated"])
    def test_check_equals_the_scalar_loop(self, ac14, size):
        case, fleet, dispatch, evaluator, xi = ac14
        if size == "rated":
            evaluator = AcEvaluator(
                replace(case, br_limit=np.full(case.n_branch, 0.6)), fleet,
                dispatch)
        step = ac_model._block_size(case.n_bus)
        count = {"one": 1, "block": step}.get(size, 2 * step + 7)
        joint, per_row = evaluator.check(dispatch, xi[:count])
        ref_joint, ref_rows, ref_its = batch_of_one_check(
            evaluator, dispatch, xi[:count])
        np.testing.assert_array_equal(joint, ref_joint)
        np.testing.assert_array_equal(per_row, ref_rows)
        np.testing.assert_array_equal(evaluator.iterations, ref_its)
        assert evaluator.iterations.shape == (count,)
        flow = np.char.startswith(evaluator.row_names, "flow")
        assert flow.sum() == (40 if size == "rated" else 0)
        if size == "rated":
            assert np.any((per_row[flow] > 0) & (per_row[flow] < 1))

    @pytest.mark.parametrize("rated", [False, True])
    def test_check_builds_only_the_monitored_flows(self, ac14, rated,
                                                   monkeypatch):
        # case14q rates no branch, so scoring builds no flow; with every
        # branch rated it builds each of the 40 directed flows once per
        # scenario.
        case, fleet, dispatch, evaluator, xi = ac14
        if rated:
            evaluator = AcEvaluator(
                replace(case, br_limit=np.full(case.n_branch, 0.6)), fleet,
                dispatch)
        built = []
        real = ac_model._branch_power

        def counted(net, v, flows):
            out = real(net, v, flows)
            built.append(out.shape)
            return out

        monkeypatch.setattr(ac_model, "_branch_power", counted)
        evaluator.check(dispatch, xi[:300])
        assert len(built) > 1 and sum(b for b, _ in built) == 300
        assert {f for _, f in built} == {evaluator.rows.flows.size}
        assert evaluator.rows.flows.size == (40 if rated else 0)

    def test_check_needs_the_built_at_dispatch(self, ac14):
        _, _, dispatch, evaluator, xi = ac14
        with pytest.raises(ValueError, match="dispatch the evaluator was"):
            evaluator.check(dispatch + 1e-3, xi[:1])
        joint, _ = evaluator.check(dispatch.copy(), xi[:1])
        assert joint.shape == (1,)

    def test_singular_jacobian_stops_only_that_scenario(self, ac14,
                                                        monkeypatch):
        _, _, _, evaluator, xi = ac14
        block = xi[:6]
        expected = evaluator._respond(block)
        real_solve = np.linalg.solve
        single_calls = []

        def solve(a, b):
            if a.ndim == 3 and a.shape[0] > 1:
                raise np.linalg.LinAlgError("injected: stack has a singular "
                                            "matrix")
            single_calls.append(a.shape)
            if len(single_calls) == 2:  # scenario 1 on the first step
                raise np.linalg.LinAlgError("injected: singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        iterations, norm, vmag, theta = evaluator._respond(block)
        monkeypatch.undo()
        assert iterations[1] == 0 and norm[1] > NEWTON_TOL
        np.testing.assert_array_equal(vmag[1], evaluator._start[0])
        keep = np.arange(6) != 1
        np.testing.assert_array_equal(iterations[keep], expected[0][keep])
        np.testing.assert_allclose(vmag[keep], expected[2][keep], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(theta[keep], expected[3][keep], rtol=0,
                                   atol=1e-12)

    def test_singular_jacobian_message(self, case14, monkeypatch):
        def solve(a, b):
            raise np.linalg.LinAlgError("injected")

        p_set, q_set = stock_case14_setpoints(case14)
        monkeypatch.setattr(np.linalg, "solve", solve)
        state = pf_solve(case14, p_set, q_set)
        assert not state.solved
        assert state.iterations == 0
        assert state.message.startswith("singular power-flow system")

    def test_block_size_follows_bus_count(self):
        assert ac_model._block_size(14) == (
            ac_model.NEWTON_BLOCK_BYTES // (8 * 16 * 14 * 14))
        assert 1 <= ac_model._block_size(10_000) <= ac_model._block_size(14)

    def test_failed_scenarios_are_recorded(self, ac14):
        _, _, dispatch, evaluator, xi = ac14
        batch = np.vstack([xi[:5], [[50.0, 50.0]], xi[5:9]])
        joint, per_row = evaluator.check(dispatch, batch)
        np.testing.assert_array_equal(evaluator.failed, [5])
        assert joint[5] and per_row[-1] == pytest.approx(0.1)
        alone = respond(evaluator.case, evaluator.fleet, evaluator.state,
                        batch[5])
        assert evaluator.iterations[5] == alone.iterations
        evaluator.check(dispatch, xi[:9])
        assert evaluator.failed.size == 0

    def test_failed_scenarios_are_logged_by_index(self, ac14, caplog):
        import logging

        from ccopf.cli import _log_newton_failures

        _, _, dispatch, evaluator, xi = ac14
        evaluator.check(dispatch, np.vstack([xi[:5], [[50.0, 50.0]]]))
        with caplog.at_level(logging.INFO, logger="ccopf"):
            _log_newton_failures(evaluator)
        assert caplog.messages == [
            "Newton failed on 1 of 6 test scenarios (indices 5)"]
        caplog.clear()
        evaluator.check(dispatch, xi[:5])
        with caplog.at_level(logging.INFO, logger="ccopf"):
            _log_newton_failures(evaluator)
        assert caplog.messages == []
