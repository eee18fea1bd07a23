"""Out-of-sample evaluation, the robust baseline, and sweep files.

A dispatch is judged on fresh scenarios exactly the way it was optimized:
the *joint* event — any chance-constraint row exceeding its bound by more
than scenario_mip.ROW_TOL, the tolerance the search counts satisfied
blocks by — is counted per scenario.  On the DC model a row that no point
of the test batch's componentwise box can push past its bound is proved
satisfied and not evaluated; the others are evaluated per scenario, so
the counts equal those of the dense test of every row up to last-bit
rounding of the row products (the dense test's own rounding depends on
the shape of the BLAS call).  The robust baseline enforces every training
scenario (zero relaxation budget); relative-entropy solutions at any k on
the same training set can only be cheaper, and the deterministic dispatch
cheaper still, so the three objectives nest.  Scoring returns the
violation rates only; the commands that run it decide what else a file
holds.  Every result CSV opens with the digest of the configuration that
made it (write_csv); a sweep's rows (cli.sweep_k) are written as one CSV
row per k plus a three-panel SVG.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import svg_plot
from .dc_model import (
    assemble_cc_system,
    balance_equality,
    make_cost,
)
from .scenario_mip import (
    INFEASIBLE,
    OPTIMAL,
    ROW_TOL,
    SelectionSolution,
    build_selection_from_ccopf,
    qp_solve,  # noqa: F401  (perfbench traces this import site)
    solve_selection,
)

# Relative rounding allowance of the DcEvaluator row screen.
SCREEN_ALLOWANCE = 1e-9
# DcEvaluator scores the scenarios in blocks of about this many bytes of
# margins.  A block's work arrays are small enough for the allocator to
# reuse from block to block, where one array per test set (3 MB at 10 000
# scenarios on case300s) may be mapped and page-faulted afresh on every
# call, depending on what the process allocated before.
SCORE_BLOCK_BYTES = 2**16
# _box reads a batch as rows of about this many elements: long enough for
# numpy's contiguous reduction loops, short enough that the one row of
# partial extremes they leave costs little to reduce.
_BOX_FOLD_WIDTH = 256

CSV_COLUMNS = ("k", "epsilon_star", "bound", "cost", "cost_vs_ro",
               "joint_violation", "time_s", "status")


@dataclass
class EvalReport:
    """Out-of-sample violation rates of one dispatch."""

    joint_violation_rate: float
    per_row_rates: np.ndarray
    row_names: tuple

    def __post_init__(self):
        assert -1e-12 <= self.joint_violation_rate <= 1 + 1e-12
        # A joint violation happens whenever any row violates, so the joint
        # rate dominates each row's rate and the union bound caps it.
        if self.per_row_rates.size:
            assert self.joint_violation_rate >= np.max(
                self.per_row_rates) - 1e-12
            assert self.joint_violation_rate <= np.sum(
                self.per_row_rates) + 1e-12


class DcEvaluator:
    """Evaluation of the rows of a dispatch over a scenario batch.

    Only the rows that some scenario of the batch could violate are
    evaluated.  Over the batch's componentwise box [lo, hi] the largest
    shift of row i is sup_i = sum_k max(sens_ik hi_k, sens_ik lo_k), so a
    row whose worst-case margin rhs - base - sup clears -ROW_TOL by more
    than a rounding allowance passes the dense test in every scenario of
    the batch, rounding included, and is given the rate 0.0 that testing
    it would give.  The other rows are tested in blocks of scenarios
    (SCORE_BLOCK_BYTES).  The joint mask and per-row rates equal those of
    testing every row, up to last-bit rounding of the row products: the
    dense test's own rounding depends on the shape of the BLAS call, so a
    margin within a few ulps of -ROW_TOL may be classified either way.
    That product is the only layout-dependent step.  The box's min and
    max, the joint ORs and the per-row counts are exact, so they are
    taken along contiguous memory (_box; each block's violations are
    transposed to one row per live row) without changing a bit.
    """

    def __init__(self, cc):
        self.cc = cc
        self.row_names = self.cc.row_names

    def check(self, dispatch, xi):
        """(joint violation mask over scenarios, per-row violation rates)."""
        x = np.asarray(dispatch, dtype=float)
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        if not (np.isfinite(x).all() and np.isfinite(xi).all()):
            raise ValueError("dispatch and scenarios must be finite")
        cc = self.cc
        base = cc.base_lin @ x + cc.base_const
        live = self.live_rows(base, xi)
        rhs, base, sens_t = cc.rhs[live], base[live], cc.sens[live].T
        joint = np.zeros(xi.shape[0], dtype=bool)
        counts = np.zeros(live.size)
        step = max(1, SCORE_BLOCK_BYTES // (8 * max(1, live.size)))
        for lo in range(0, xi.shape[0], step):
            violated = rhs - (base + xi[lo:lo + step] @ sens_t) < -ROW_TOL
            # One row per live row, so both reductions run along memory.
            violated = violated.T.copy()
            joint[lo:lo + step] = np.logical_or.reduce(violated, axis=0)
            counts += np.count_nonzero(violated, axis=1)
        rates = np.zeros(cc.n_rows)
        rates[live] = counts / xi.shape[0]
        return joint, rates

    def live_rows(self, base, xi):
        """Indices of the rows some point of the box of the batch xi (2-D)
        might push past their bound: those whose worst-case margin
        rhs - base - sup is not above allowance - ROW_TOL.  base holds the
        rows' values at xi = 0."""
        cc = self.cc
        lo, hi = _box(xi)
        sup = np.maximum(cc.sens * hi, cc.sens * lo).sum(axis=1)
        reach = np.abs(cc.sens) @ np.maximum(-lo, hi)
        # The dense margin rhs - (base + xi @ sens') and the worst-case
        # margin rhs - base - sup each add n_vre + 2 terms bounded by
        # |rhs|, |base| and reach, so each is within about
        # (n_vre + 2) 2**-53 times their sum of its exact value.  The
        # allowance, SCREEN_ALLOWANCE times that sum, exceeds both errors
        # together, and the rounding of the comparison, for any n_vre
        # below 10**6.
        allowance = SCREEN_ALLOWANCE * (1.0 + np.abs(cc.rhs) + np.abs(base)
                                        + reach)
        return np.flatnonzero(~(cc.rhs - base - sup > allowance - ROW_TOL))


def _box(xi):
    """The columnwise minimum and maximum of the 2-D batch xi.

    Reduced along axis 0, a batch of a few columns runs numpy's inner loop
    over a few elements per scenario.  So the leading scenarios are read r
    at a time as rows of about _BOX_FOLD_WIDTH elements (a view of a
    C-contiguous batch), reduced along those rows, and the r partial
    extremes are reduced with the remaining scenarios.  Min and max are
    exact, so the box holds the values xi.min(axis=0) and xi.max(axis=0)
    would.
    """
    s, n = xi.shape
    r = max(1, min(s, _BOX_FOLD_WIDTH // n))
    head = s - s % r
    folded, rest = xi[:head].reshape(-1, r * n), xi[head:]
    return [reduce(np.vstack([reduce(folded, axis=0).reshape(r, n), rest]),
                   axis=0)
            for reduce in (np.minimum.reduce, np.maximum.reduce)]


def violation_frequency(solution, test_set, model):
    """Score a solution on a test set through a model evaluator.

    model is any object with check(solution, xi) -> (joint mask, row rates)
    and row_names; the DC evaluator checks rows exactly, the AC one re-runs
    the nonlinear response per scenario (failures count as violations).
    """
    joint, per_row = model.check(solution, test_set.xi)
    return EvalReport(
        joint_violation_rate=float(np.mean(joint)),
        per_row_rates=per_row,
        row_names=model.row_names,
    )


def solve_dc_selection(case, fleet, training_set, k, *, cc=None,
                       options=None):
    """End-to-end k-of-S dispatch on the linearized model, on cc or, by
    default, the default DC rows of case.

    Returns (solution, cc) so callers can evaluate the same row system
    out of sample.
    """
    if cc is None:
        cc = assemble_cc_system(case, fleet)
    problem = build_selection_from_ccopf(
        cc, training_set.xi, make_cost(case), k,
        equalities=balance_equality(case, fleet))
    return solve_selection(problem, options), cc


def ro_baseline(case, fleet, training_set, *, cc=None):
    """Robust dispatch: every training scenario enforced (k = S).

    Solved as the single QP of the all-enforced node system; infeasibility
    names the scenarios that the Farkas certificate weighs.  Selections
    on the same cc and scenario set share that QP, so x_star and the
    duals are read-only.
    """
    if cc is None:
        cc = assemble_cc_system(case, fleet)
    s = training_set.s
    problem = build_selection_from_ccopf(
        cc, training_set.xi, make_cost(case), s,
        equalities=balance_equality(case, fleet))
    every = np.ones(s, dtype=bool)
    result = problem._all_enforced()
    if result.status == INFEASIBLE:
        detail = ""
        if result.certificate is not None:
            weights = problem.scenario_weights(
                every, result.certificate["y_ineq"])
            detail = (" scenarios driving the conflict: "
                      f"{np.flatnonzero(weights > 0).tolist()}")
        raise ValueError("robust baseline infeasible:" + detail)
    if result.status != OPTIMAL:
        raise RuntimeError(f"robust baseline failed: {result.status} "
                           f"{result.message}")
    return SelectionSolution(
        x_star=result.x, z_star=np.zeros(s, dtype=int),
        objective=result.value, status=OPTIMAL, nodes=0, qp_count=1,
        candidates=s, iterations=result.iterations, gap=0.0,
        duals_ineq=result.duals_ineq, duals_eq=result.duals_eq)


def config_digest(**parts):
    """Stable digest of the inputs that determine a result file."""
    canon = ";".join(f"{k}={parts[k]!r}" for k in sorted(parts))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_csv(path, digest, header, lines):
    """A '# config=' line, the header line(s), then the data lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([f"# config={digest}", header, *lines]) + "\n")


def write_sweep_csv(rows, path, digest):
    write_csv(path, digest, ",".join(CSV_COLUMNS), (",".join([
        str(row["k"]),
        f"{row['epsilon_star']:.17g}",
        f"{row['bound']:.17g}",
        f"{row['cost']:.17g}",
        f"{row['cost_vs_ro']:.17g}",
        f"{row['joint_violation']:.17g}",
        f"{row['time_s']:.6f}",
        row["status"],
    ]) for row in rows))


def read_sweep_csv(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("k,"):
                continue
            cells = line.split(",")
            rows.append({
                "k": int(cells[0]),
                "epsilon_star": float(cells[1]),
                "bound": float(cells[2]),
                "cost": float(cells[3]),
                "cost_vs_ro": float(cells[4]),
                "joint_violation": float(cells[5]),
                "time_s": float(cells[6]),
                "status": cells[7],
            })
    return rows


def write_sweep_svg(rows, path, case_name):
    ok = [r for r in rows if r["status"] == OPTIMAL]
    eps = [r["epsilon_star"] for r in ok]
    Panel = svg_plot.Panel
    p1 = Panel("Joint satisfaction", "epsilon*", "1 - violation rate")
    p1.add("observed", eps, [1.0 - r["joint_violation"] for r in ok])
    p1.add("1 - eps", eps, [1.0 - e for e in eps], dashed=True)
    p2 = Panel("Cost vs robust", "epsilon*", "cost / RO cost")
    p2.add("", eps, [r["cost_vs_ro"] for r in ok])
    p3 = Panel("Solve time", "epsilon*", "seconds")
    p3.add("", eps, [r["time_s"] for r in ok])
    svg_plot.render([p1, p2, p3], path, f"k-sweep on {case_name}")
