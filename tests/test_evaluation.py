"""Evaluation-layer oracles.

The headline oracle: on a one-generator network with Gaussian (unclipped)
errors, the joint violation event reduces to a single normal tail whose
probability is known in closed form; the empirical rate must sit within
three binomial standard errors of it.  The rest checks the structural
guarantees: nesting of deterministic / k-of-S / all-enforced costs,
exactness of the k = S normalization, file round trips, and determinism.
The DC row screen is checked against the dense test of every row, on the
bundled configs and on small random row systems.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from ccopf import ac_model, evaluation
from ccopf.ac_model import AcEvaluator
from ccopf.case_io import build_fleet, parse_matpower, to_network
from ccopf.cli import _network_model, _resolve_run, sweep_k
from ccopf.dc_model import (
    CcSystem,
    assemble_cc_system,
    solve_deterministic_dc,
)
from ccopf.evaluation import (
    SCREEN_ALLOWANCE,
    DcEvaluator,
    read_sweep_csv,
    ro_baseline,
    solve_dc_selection,
    violation_frequency,
    write_sweep_csv,
    write_sweep_svg,
)
from ccopf.scenario_mip import OPTIMAL, ROW_TOL
from ccopf.scenarios import GaussianSpec, ScenarioSet, sample
from conftest import row_values, without_clipping

SINGLE_GEN = """
function mpc = single_gen
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
 1 2 0 0 0 0 1 1 0 135 1 1.1 0.9;
 2 3 180 0 0 0 1 1 0 135 1 1.1 0.9;
];
mpc.gen = [
 1 0 0 99 -99 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
 1 2 0 0.2 0 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
 2 0 0 3 0 25 0;
];
"""


def load_text(text):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return to_network(parse_matpower(text))


@pytest.fixture(scope="module")
def tutorial_sets(case14_tutorial, fleet14_tutorial):
    spec = GaussianSpec(forecasts=fleet14_tutorial.forecasts, zeta=0.05,
                        rho=0.2)
    return sample(spec, 40, seed=101), sample(spec, 4000, seed=202)


class TestViolationFrequency:
    def test_matches_analytic_normal_tail(self):
        case = load_text(SINGLE_GEN)
        fleet = build_fleet(case, [1], [0.2], 0.1)
        spec = without_clipping(GaussianSpec(forecasts=np.array([0.2]),
                                             zeta=0.45, rho=0.0))
        sigma = np.sqrt(0.45 * 0.2)
        test = sample(spec, 20000, seed=77)
        cc = assemble_cc_system(case, fleet)
        dispatch = np.array([1.8])  # 0.2 p.u. of headroom to p_max = 2
        report = violation_frequency(dispatch, test, DcEvaluator(cc))
        # Upper generator row violates iff xi < -headroom; the lower row's
        # tail (xi > 1.8 = 6 sigma) is negligible, flows are unlimited.
        target = norm.cdf(-0.2 / sigma)
        se = np.sqrt(target * (1 - target) / test.s)
        assert abs(report.joint_violation_rate - target) <= 3 * se
        upper = report.row_names.index("gen0_hi@bus1")
        assert report.per_row_rates[upper] == pytest.approx(
            report.joint_violation_rate, abs=1e-12)

    def test_robust_dispatch_never_violates_its_own_set(
            self, case14_tutorial, fleet14_tutorial, tutorial_sets):
        train, _ = tutorial_sets
        ro = ro_baseline(case14_tutorial, fleet14_tutorial, train)
        cc = assemble_cc_system(case14_tutorial, fleet14_tutorial)
        report = violation_frequency(ro.x_star, train, DcEvaluator(cc))
        assert report.joint_violation_rate == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("model", ["dc", "ac"])
    def test_non_finite_scenarios_are_rejected(
            self, case14_ac, fleet14_ac, model, bad, monkeypatch):
        # The AC scorer raises before any Newton work, as the DC one does,
        # rather than scoring the row as a newton_failure violation.
        dispatch = np.full(5, 0.438)
        if model == "dc":
            evaluator = DcEvaluator(assemble_cc_system(case14_ac, fleet14_ac))
        else:
            evaluator = AcEvaluator(case14_ac, fleet14_ac, dispatch)

            def newton(*args, **kwargs):
                raise AssertionError("Newton ran on non-finite input")

            monkeypatch.setattr(ac_model, "_newton", newton)
        test = ScenarioSet(xi=np.array([[0.0, 0.0], [bad, 0.0], [0.0, 0.01]]),
                           seed=0, spec_digest="")
        with pytest.raises(ValueError,
                           match="dispatch and scenarios must be finite"):
            violation_frequency(dispatch, test, evaluator)

    def test_report_invariants_guard_inconsistency(self):
        from ccopf.evaluation import EvalReport
        with pytest.raises(AssertionError):
            EvalReport(joint_violation_rate=0.1,
                       per_row_rates=np.array([0.5]),
                       row_names=("r",))


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def config_sets(name):
    """Case, fleet, training set and test set of a bundled config."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # case14's dropped branch data
        run = _resolve_run(CONFIG_DIR / f"{name}.ini")
    return (run.model.case, run.model.fleet, run.sets["train"],
            run.sets["test"])


def dense_check(cc, dispatch, xi):
    """The reference: every row tested in every scenario."""
    violated = np.atleast_2d(
        cc.rhs - row_values(cc, dispatch, xi)) < -ROW_TOL
    return violated.any(axis=1), violated.mean(axis=0)


def threshold_rhs():
    """The bound at which a row with zero base and zero sensitivities sits
    exactly on the screen's threshold: its worst-case margin, the bound
    itself, equals SCREEN_ALLOWANCE * (1 + |bound|) - ROW_TOL."""
    rhs = -ROW_TOL
    for _ in range(20):
        following = SCREEN_ALLOWANCE * (1.0 + abs(rhs)) - ROW_TOL
        if following == rhs:
            return rhs
        rhs = following
    raise AssertionError("no fixed point")


@st.composite
def screened_batches(draw):
    """A small row system, a dispatch and a scenario batch.

    Bounds sit at random offsets from each row's worst case over the
    batch's box, some in the band just above -ROW_TOL where the screen's
    threshold lies.  Two rows with zero base and zero sensitivities are
    placed exactly on the threshold and one float above it.  The batch is
    several scenarios, one scenario given as a 1-D vector, or several plus
    one far outside the rest; one sensitivity column may be zero.
    """
    n_gen = draw(st.integers(1, 3))
    n_vre = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["batch", "single", "outlier"]))
    s = 1 if shape == "single" else draw(st.integers(2, 6))

    def floats(*dims):
        size = int(np.prod(dims))
        values = draw(st.lists(
            st.floats(-2.0, 2.0, allow_subnormal=False),
            min_size=size, max_size=size))
        return np.array(values).reshape(dims)

    base_lin = floats(n_rows, n_gen)
    base_const = floats(n_rows)
    sens = floats(n_rows, n_vre)
    x = floats(n_gen)
    xi = floats(s, n_vre)
    if draw(st.booleans()):
        sens[:, draw(st.integers(0, n_vre - 1))] = 0.0
    lo, hi = xi.min(axis=0), xi.max(axis=0)
    worst = (base_lin @ x + base_const
             + np.maximum(sens * hi, sens * lo).sum(axis=1))
    offsets = np.array(draw(st.lists(
        st.floats(-1.0, 1.0)
        | st.floats(-ROW_TOL + 5e-10, -ROW_TOL + 5e-8),
        min_size=n_rows, max_size=n_rows)))
    on = threshold_rhs()
    cc = CcSystem(
        row_names=tuple(f"r{i}" for i in range(n_rows))
        + ("on_threshold", "above_threshold"),
        base_lin=np.vstack([base_lin, np.zeros((2, n_gen))]),
        base_const=np.concatenate([base_const, [0.0, 0.0]]),
        sens=np.vstack([sens, np.zeros((2, n_vre))]),
        rhs=np.concatenate([worst + offsets, [on, np.nextafter(on, 1.0)]]))
    if shape == "outlier":
        xi = np.vstack([xi, np.full(n_vre, 1e6)])
    elif shape == "single":
        xi = xi[0]
    return cc, x, xi, shape


class TestRowScreen:
    @pytest.mark.parametrize("name", ["sweep14", "sweep300"])
    def test_screen_is_exact_on_bundled_config(self, name):
        # The robust dispatch of the config's training set, scored on its
        # 10000 test scenarios: the same mask and rates as the dense test.
        case, fleet, train, test = config_sets(name)
        cc = assemble_cc_system(case, fleet)
        x = ro_baseline(case, fleet, train, cc=cc).x_star
        evaluator = DcEvaluator(cc)
        joint, rates = evaluator.check(x, test.xi)
        ref_joint, ref_rates = dense_check(cc, x, test.xi)
        assert ref_joint.any()
        assert np.array_equal(joint, ref_joint)
        assert np.array_equal(rates, ref_rates)
        if name == "sweep300":
            rows = evaluator.cc
            live = evaluator.live_rows(rows.base_lin @ x + rows.base_const,
                                       test.xi)
            assert live.size < rows.n_rows // 10

    @pytest.mark.parametrize("block_bytes", [1, 8 * 37 * 300 + 7, 2**40])
    def test_block_size_changes_no_answer(self, block_bytes, monkeypatch):
        # One scenario per block, uneven blocks of 300 (the last one
        # short) and the whole test set at once all score bit for bit alike.
        case, fleet, train, test = config_sets("sweep300")
        cc = assemble_cc_system(case, fleet)
        x = ro_baseline(case, fleet, train, cc=cc).x_star
        joint, rates = DcEvaluator(cc).check(x, test.xi)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", block_bytes)
        other_joint, other_rates = DcEvaluator(cc).check(x, test.xi)
        assert np.array_equal(other_joint, joint)
        assert other_rates.tobytes() == rates.tobytes()

    @given(screened_batches())
    def test_screen_matches_dense_rows(self, example):
        cc, x, xi, shape = example
        evaluator = DcEvaluator(cc)
        joint, rates = evaluator.check(x, xi)
        ref_joint, ref_rates = dense_check(cc, x, xi)
        assert np.array_equal(joint, ref_joint)
        assert np.array_equal(rates, ref_rates)
        live = set(evaluator.live_rows(cc.base_lin @ x + cc.base_const,
                                       np.atleast_2d(xi)))
        n_rows = cc.n_rows
        assert n_rows - 2 in live  # on the threshold: evaluated
        assert n_rows - 1 not in live  # one float above: screened
        if shape == "outlier":
            # The far scenario reaches every row with a positive
            # sensitivity, so none of those is screened.
            reached = np.flatnonzero(cc.sens.max(axis=1) >= 1e-3)
            assert live.issuperset(reached.tolist())

    def test_non_finite_inputs_rejected(self, case14, fleet14):
        evaluator = DcEvaluator(assemble_cc_system(case14, fleet14))
        x = np.full(case14.n_gen, 0.5)
        xi = np.zeros((3, fleet14.n_vre))
        bad_x = x.copy()
        bad_x[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            evaluator.check(bad_x, xi)
        bad_xi = xi.copy()
        bad_xi[2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            evaluator.check(x, bad_xi)
        bad_xi[2, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            evaluator.check(x, bad_xi)


class TestCostNesting:
    def test_det_kl_ro_ordering(self, case14_tutorial, fleet14_tutorial,
                                tutorial_sets):
        train, _ = tutorial_sets
        det = solve_deterministic_dc(case14_tutorial, fleet14_tutorial)
        ro = ro_baseline(case14_tutorial, fleet14_tutorial, train)
        last = det.cost
        for k in (34, 37, 40):
            sol, _ = solve_dc_selection(case14_tutorial, fleet14_tutorial,
                                        train, k)
            assert sol.status == OPTIMAL
            assert det.cost <= sol.objective + 1e-9 * abs(sol.objective)
            assert sol.objective <= ro.objective + 1e-9 * abs(ro.objective)
            assert sol.objective >= last - 1e-9 * abs(last)
            last = sol.objective
            if k == train.s:
                # k = S is the robust problem itself, solved the same way.
                assert sol.objective == ro.objective
                assert np.array_equal(sol.x_star, ro.x_star)
        assert ro.objective > det.cost + 1e-6  # robustness costs something

    def test_infeasible_robust_names_offenders(self):
        case = load_text(SINGLE_GEN)
        fleet = build_fleet(case, [1], [0.2], 0.1)
        bad = ScenarioSet(xi=np.array([[-3.0], [0.0]]), seed=0,
                          spec_digest="manual")
        with pytest.raises(ValueError, match=r"conflict.*\[0\]"):
            ro_baseline(case, fleet, bad)


class TestSweep:
    def test_sweep_rows_and_files(self, tmp_path, case14_tutorial,
                                  fleet14_tutorial, tutorial_sets):
        train, test = tutorial_sets
        csv_path = tmp_path / "sweep.csv"
        svg_path = tmp_path / "sweep.svg"
        rows, digest = sweep_k(
            _network_model("dc", case14_tutorial, fleet14_tutorial), train,
            test, k_values=[36, 38, 40])
        write_sweep_csv(rows, csv_path, digest)
        write_sweep_svg(rows, svg_path, case14_tutorial.name)
        assert [r["k"] for r in rows] == [40, 38, 36]  # ascending eps*
        eps = [r["epsilon_star"] for r in rows]
        assert eps == sorted(eps)
        for row in rows:
            assert row["status"] == OPTIMAL
        # k = S is exactly the robust problem, so normalization is exact.
        k_s = next(r for r in rows if r["k"] == 40)
        assert k_s["cost_vs_ro"] == pytest.approx(1.0, abs=1e-12)
        costs = {r["k"]: r["cost"] for r in rows}
        assert costs[36] <= costs[38] <= costs[40] + 1e-9
        text = csv_path.read_text()
        assert text.startswith(f"# config={digest}")
        assert "k,epsilon_star,bound,cost" in text
        back = read_sweep_csv(csv_path)
        assert [r["k"] for r in back] == [40, 38, 36]
        assert back[0]["cost"] == rows[0]["cost"]  # 17-digit round trip
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        for title in ("Joint satisfaction", "Cost vs robust", "Solve time"):
            assert title in svg

    def test_record_time_off_zeroes_column(self, tmp_path, case14_tutorial,
                                           fleet14_tutorial, tutorial_sets):
        train, test = tutorial_sets
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            rows, digest = sweep_k(
                _network_model("dc", case14_tutorial, fleet14_tutorial),
                train, test, k_values=[38, 40], record_time=False)
            write_sweep_csv(rows, path, digest)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        for row in read_sweep_csv(paths[0]):
            assert row["time_s"] == 0.0

    def test_robust_set_enters_the_digest(self, case14_tutorial,
                                          fleet14_tutorial, tutorial_sets):
        # cost_vs_ro depends on the robust set, so the digest must too.
        train, test = tutorial_sets
        spec = GaussianSpec(forecasts=fleet14_tutorial.forecasts, zeta=0.05,
                            rho=0.2)
        net = _network_model("dc", case14_tutorial, fleet14_tutorial)
        digests = {
            sweep_k(net, train, test, [40], ro_set=ro_set,
                    record_time=False)[1]
            for ro_set in (None, sample(spec, 40, seed=303),
                           sample(spec, 40, seed=304),
                           sample(spec, 50, seed=303))}
        assert len(digests) == 4

    def test_bad_inputs(self, case14_tutorial, fleet14_tutorial,
                        tutorial_sets):
        train, test = tutorial_sets
        net = _network_model("dc", case14_tutorial, fleet14_tutorial)
        with pytest.raises(ValueError, match="empty k list"):
            sweep_k(net, train, test, [])
        with pytest.raises(ValueError, match=r"\[1, 40\]"):
            sweep_k(net, train, test, [41])
        with pytest.raises(ValueError, match="unknown model"):
            _network_model("newton", case14_tutorial, fleet14_tutorial)

    def test_csv_writer_handles_failed_rows(self, tmp_path):
        rows = [{"k": 5, "epsilon_star": 0.3, "bound": 0.5,
                 "cost": float("nan"), "cost_vs_ro": float("nan"),
                 "joint_violation": float("nan"), "time_s": 0.0,
                 "status": "INFEASIBLE"}]
        path = tmp_path / "failed.csv"
        write_sweep_csv(rows, path, "deadbeef")
        back = read_sweep_csv(path)
        assert back[0]["status"] == "INFEASIBLE"
        assert np.isnan(back[0]["cost"])
