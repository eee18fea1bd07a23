"""Exact k-of-S scenario selection by branch-and-bound over convex QPs.

The master problem: minimize a convex quadratic cost subject to a base
linear system A x <= b_base, E x = f that always holds plus at least k
of S scenario blocks A x <= b_j, which share the base's inequality rows A
and differ only in the RHS.  Indicator semantics are handled
combinatorially — each branch-and-bound node partitions scenarios into
(Enforced, Relaxed, Undecided) and bounds the node by the QP over base
plus Enforced blocks, one row set at the row-wise minimum bound — so no
big-M constant is ever materialized.

The continuous engine is one parametric active-set loop, as in qpOASES,
with equalities pinned in the working set.  It starts from a known
optimum of a nearby QP (one with the same rows but another inequality
RHS or linear term) and follows the straight path from that QP to this
one, one working-set change per breakpoint.  Each iteration factors the
working rows once by QR: the trailing columns of Q span their null
space, and the multipliers come from one triangular solve with R.  The
step comes from the Cholesky factor of the reduced Hessian when its
pivots pass a fixed test; a flat one (a linear or rank-deficient cost)
gets a least-squares step, or a ray of linear descent to the first
blocking row, and a ray that no row blocks means UNBOUNDED.  Every
optimum is checked against its KKT residual before it is returned.

The loop has three starts.  A warm start is an earlier optimum: every
warm-started system in the search loosens the system of its start (a
node loosens the all-enforced anchor, a greedy trial the trial before
it), so only the RHS moves, and a node usually needs a few breakpoints.
A cold QP starts free: the cost's own minimizer on the equalities is the
optimum, with an empty working set, of the QP whose RHS is raised until
that point meets it strictly, and the path tightens the RHS back.  Every
point of those paths is feasible when the QP is; when it is not, a
blocking row that depends on the working set, with no working row free
to leave, gives a Farkas certificate, as in qpOASES.  When a path gives
up or fails otherwise, or when the cost has no Cholesky factor on the
equalities' null space, the same call starts from phase 1: the loop
projects the equalities' least-squares point onto the system from that
QP's own free start, and its INFEASIBLE is the answer.  With its tight
rows as the working set and zero multipliers, the projection is the
optimum of the QP whose linear term makes it stationary, and the path
moves that linear term to the cost's.  So one node is one QP, no LP is
solved, and all tie-breaks are by lowest index so results are
reproducible.

The all-enforced QP and the greedy incumbent's path do not depend on k.
Every problem build_selection_from_ccopf makes from one cc object and
one scenario, cost and equality data set shares them, for as long as
that cc lives: a sweep and its robust baseline solve that QP once and
walk the path once.  Shared results are read-only.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import itertools
import time
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import linprog  # noqa: F401  (perfbench traces this site)

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"
NUMERICAL_FAILURE = "NUMERICAL_FAILURE"
GAP_LIMIT = "GAP_LIMIT"

# A row holds when it exceeds its bound by at most ROW_TOL: the one rule
# for the search's satisfied blocks and for out-of-sample scoring.
ROW_TOL = 1e-7
# Reduced-Hessian tests, relative to the largest entry of the normalized H:
_PIVOT_TOL = 1e-10  # smallest Cholesky pivot the Newton step accepts
_ZERO_CURVATURE = 1e-12  # Z'HZ no larger than this is rounding noise
_KKT_TOL = 1e-6  # largest KKT residual of the normalized QP at an optimum


@dataclass(frozen=True, eq=False)
class QuadraticCost:
    """value(x) = 0.5 x'Hx + g'x + c0 with H symmetric PSD."""

    h: np.ndarray
    g: np.ndarray
    c0: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if h.shape != (g.size, g.size):
            raise ValueError("H must be n x n for g of length n")
        if not np.allclose(h, h.T, atol=1e-10):
            raise ValueError("H must be symmetric")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)

    @property
    def n(self):
        return self.g.size

    def value(self, x):
        return float(0.5 * x @ self.h @ x + self.g @ x + self.c0)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Inequalities a_ineq x <= b_ineq plus equalities a_eq x = b_eq."""

    a_ineq: np.ndarray
    b_ineq: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    @classmethod
    def make(cls, a_ineq=None, b_ineq=None, a_eq=None, b_eq=None, n=None):
        def shape2(a, b, what, width):
            if a is None:
                if width is None:
                    raise ValueError(f"need n to build empty {what}")
                return np.zeros((0, width)), np.zeros(0)
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape[0] != b.size:
                raise ValueError(f"{what}: {a.shape[0]} rows vs {b.size} rhs")
            return a, b

        if n is None:
            for a in (a_ineq, a_eq):
                if a is not None:
                    n = np.atleast_2d(np.asarray(a)).shape[1]
                    break
        ai, bi = shape2(a_ineq, b_ineq, "inequalities", n)
        ae, be = shape2(a_eq, b_eq, "equalities", n)
        if ai.shape[1] != ae.shape[1]:
            raise ValueError("inconsistent variable counts")
        return cls(ai, bi, ae, be)

    @property
    def n(self):
        return self.a_ineq.shape[1] if self.a_ineq.size else self.a_eq.shape[1]


@dataclass
class QpSubproblemResult:
    """Certified outcome of one continuous subproblem.

    status OPTIMAL carries x/value/duals and kkt_residual (max over
    stationarity, primal/dual feasibility, complementarity).  status
    INFEASIBLE carries a Farkas certificate (y_ineq >= 0, y_eq) with
    y'A = 0 and y'b < 0, and ||a_i||'y_ineq = 1 unless y_ineq = 0.
    UNBOUNDED and NUMERICAL_FAILURE are reported distinctly; neither
    carries a point.  iterations counts the active-set iterations on every
    path, phase 1's included.  An OPTIMAL result also records its final
    working set (its inequality rows, ascending) and the inequality RHS
    it was solved for: a warm start of qp_solve moves from there.
    """

    status: str
    x: np.ndarray | None = None
    value: float = np.nan
    duals_ineq: np.ndarray | None = None
    duals_eq: np.ndarray | None = None
    kkt_residual: float = np.nan
    certificate: dict | None = None
    message: str = ""
    iterations: int = 0  # active-set iterations taken
    working: tuple = ()  # OPTIMAL: inequality rows of the working set
    rhs: np.ndarray | None = None  # OPTIMAL: the b_ineq it solves


def _kkt_residual(h, g, system, x, lam, mu):
    stat = h @ x + g
    if lam.size:
        stat = stat + system.a_ineq.T @ lam
    if mu.size:
        stat = stat + system.a_eq.T @ mu
    r = float(np.max(np.abs(stat), initial=0.0))
    if system.a_ineq.size:
        resid = system.a_ineq @ x - system.b_ineq
        r = max(r, float(np.max(resid, initial=0.0)))
        r = max(r, float(np.max(np.abs(lam * resid), initial=0.0)))
    if lam.size:
        r = max(r, float(np.max(-lam, initial=0.0)))
    if system.a_eq.size:
        r = max(r, float(np.max(np.abs(system.a_eq @ x - system.b_eq),
                                initial=0.0)))
    return r


def _phase1_point(system, eq_rows, max_iter):
    """Phase 1, as a _homotopy path's (found, iterations).

    The equalities are tested first, by least squares: when f is not in
    the range of E, the residual r = f - E x0 of the least-squares x0 has
    E'r = 0 and f'r = ||r||^2 > 0, so y_ineq = 0, y_eq = -r is the Farkas
    certificate.  Otherwise (x0,) is the point of a system with no
    inequality rows, and any other system projects x0 onto itself, min
    ||x - x0||^2 / 2, on the homotopy from that QP's own free start.
    """
    m, n = system.a_ineq.shape
    x0 = np.zeros(n)
    if system.a_eq.shape[0]:
        x0, *_ = np.linalg.lstsq(system.a_eq, system.b_eq, rcond=None)
        r = system.b_eq - system.a_eq @ x0
        if np.max(np.abs(r)) > 1e-8:
            return {"y_ineq": np.zeros(m), "y_eq": -r,
                    "combined_rhs": float(-r @ system.b_eq)}, 0
    if m == 0:
        return (x0,), 0
    h, g = np.eye(n), -x0
    start = _free_start(h, g, system, eq_rows, 1.0)
    return _homotopy(h, g, system, start, 1.0, eq_rows, 1.0, max_iter)


def _independent_rows(rows, basis):
    """Rows independent of an orthonormal basis and of each other, chosen
    greedily in ascending order (reproducible).

    Returns their indices and the basis grown to span them too.
    """
    n = rows.shape[1]
    picked = []
    for j, row in enumerate(rows):
        if basis.shape[0] >= n:
            break
        row_norm = np.linalg.norm(row)
        if row_norm <= 0.0:
            continue
        rem = row - basis.T @ (basis @ row)
        rem_norm = np.linalg.norm(rem)
        if rem_norm > 1e-8 * row_norm:
            picked.append(j)
            basis = np.vstack([basis, rem / rem_norm])
    return picked, basis


def qp_solve(cost, system, *, warm_start=None):
    """Minimize a convex QP over a linear system with a KKT certificate.

    One parametric active-set loop (_homotopy) does every solve: it moves
    a start to this QP's optimum, with equalities in the working set and
    inequality rows entering on blocking and leaving when their
    multipliers reach zero.  A start is an OPTIMAL result for the same
    rows and the inequality RHS start.rhs, and it keeps the invariant the
    loop needs: its point is feasible for start.rhs, its working rows are
    tight there and its multipliers are >= 0.  A flat reduced Hessian
    gets a least-squares step or a descent ray, so linear costs and
    linear pieces of a cost are fine and an unblocked ray is reported
    UNBOUNDED.  An optimum whose KKT residual on the normalized problem
    exceeds _KKT_TOL is reported as NUMERICAL_FAILURE with that residual
    in the message.  There are three starts:

    - warm_start, an optional OPTIMAL result of an earlier call with the
      same cost and rows for another inequality RHS b0 (its rhs field).
      Its working set, point and multipliers move along b0 + t (b - b0),
      usually in a few working-set changes.  Callers warm-start only
      loosenings, b >= b0, so every QP on that path is feasible (a
      tightening gets the right answer too: the free start is one).
    - Without warm_start, the free start (see _free_start): the
      normalized cost's minimizer x0 on the equalities, with an empty
      working set for b0 = max(b, A x0 + 1), which the path tightens to
      b.  A cost whose reduced Hessian fails the _PIVOT_TOL test has no
      free start, and neither does a system with no inequality rows.
    - Phase 1, when there is no other start, or when the warm or free
      path gives up, ends UNBOUNDED or fails the KKT gate: the projection
      of the equalities' least-squares point onto the system (see
      _phase1_point), with its tight independent rows as the working set,
      zero multipliers and b0 = b, so only the linear term moves.  The
      projection's own INFEASIBLE is the answer.

    A path can prove the QP INFEASIBLE (see _homotopy).  A warm or free
    path may take n + m + 10 iterations, the projection and the run from
    its point 50 (n + m + 10) each, and the result's iterations field
    counts them all.
    """
    if not isinstance(system, LinearSystem):
        raise TypeError("system must be a LinearSystem")
    h, g, c0 = cost.h, cost.g, cost.c0
    n = cost.n

    # Normalize the cost so all tolerances are O(1) regardless of $ scale.
    scale = max(1.0, float(np.max(np.abs(h))), float(np.max(np.abs(g))))
    h = h / scale
    g = g / scale
    h_max = float(np.max(np.abs(h)))

    a_ineq, b_ineq = system.a_ineq, system.b_ineq
    a_eq = system.a_eq
    m = a_ineq.shape[0]
    # Keep the working rows independent, equalities included (a dependent
    # equality gets a zero multiplier), so that Q's trailing columns span
    # their null space.
    eq_rows, basis = _independent_rows(a_eq, np.zeros((0, n)))
    n_eq = len(eq_rows)

    def optimum(x, working, y, iterations):
        """The certified result at x, stationary on the working rows with
        multipliers y (equalities first)."""
        lam = np.zeros(m)
        lam[working] = np.maximum(y[n_eq:], 0.0)
        mu = np.zeros(a_eq.shape[0])
        mu[eq_rows] = y[:n_eq]
        residual = _kkt_residual(h, g, system, x, lam, mu)
        if residual > _KKT_TOL:
            return QpSubproblemResult(
                status=NUMERICAL_FAILURE,
                message=f"KKT residual {residual:.3e} of the "
                        f"normalized problem exceeds {_KKT_TOL:g}",
                iterations=iterations)
        kkt = _kkt_residual(h * scale, g * scale, system, x,
                            lam * scale, mu * scale)
        return QpSubproblemResult(
            status=OPTIMAL, x=x,
            value=float(0.5 * x @ (h * scale) @ x + (g * scale) @ x + c0),
            duals_ineq=lam * scale, duals_eq=mu * scale,
            kkt_residual=kkt, iterations=iterations,
            working=tuple(working), rhs=b_ineq)

    def ended(found, it, max_iter, spent):
        """The result of a path's (found, it), spent iterations later."""
        spent += it
        if isinstance(found, tuple):
            return optimum(*found, spent)
        if found is None:
            return QpSubproblemResult(
                status=NUMERICAL_FAILURE, iterations=spent,
                message=f"active-set iteration cap {max_iter} reached"
                if it == max_iter else "the start does not fit this QP")
        if found == UNBOUNDED:
            return QpSubproblemResult(
                status=UNBOUNDED, message="descent ray never blocked",
                iterations=spent)
        return QpSubproblemResult(
            status=INFEASIBLE, certificate=found, iterations=spent,
            message="constraints are inconsistent")

    def run(start, max_iter, spent):
        return ended(*_homotopy(h, g, system, start, scale, eq_rows, h_max,
                                max_iter), max_iter, spent)

    spent = 0  # iterations before phase 1
    start = warm_start
    if start is None and m:
        start = _free_start(h, g, system, eq_rows, h_max)
    if start is not None:
        result = run(start, n + m + 10, 0)
        if result.status in (OPTIMAL, INFEASIBLE):
            return result
        spent = result.iterations
    cap = 50 * (n + m + 10)
    found, it = _phase1_point(system, eq_rows, cap)
    if not isinstance(found, tuple):
        return ended(found, it, cap, spent)
    # The optimum of the QP whose linear term makes x stationary with zero
    # multipliers: its tight independent rows, ascending, at the RHS b.
    x = found[0]
    active = np.flatnonzero(b_ineq - a_ineq @ x <= 1e-9)
    picked, _ = _independent_rows(a_ineq[active], basis)
    start = QpSubproblemResult(
        status=OPTIMAL, x=x, duals_ineq=np.zeros(m),
        working=tuple(int(j) for j in active[picked]), rhs=b_ineq)
    return run(start, cap, spent + it)


def _free_start(h, g, system, eq_rows, h_max):
    """The start of a cold solve: the minimizer x0 of the normalized cost
    on the independent equality rows, posed as an OPTIMAL result with an
    empty working set for the RHS b0 = max(b, A x0 + 1), which x0 meets
    strictly.  Tightening b0 to b keeps every point of the RHS path
    feasible when b is, so _homotopy reaches the optimum.

    x0 is the null-space Newton step, its reduced Hessian factored by
    _cholesky_step; None when that fails the pivot test (a linear cost,
    or a PSD one that is flat on the equalities' null space).
    """
    n = g.size
    x, z = np.zeros(n), np.eye(n)
    if eq_rows:
        p = len(eq_rows)
        q, r = np.linalg.qr(system.a_eq[eq_rows].T, mode="complete")
        u, _ = lapack.dtrtrs(r[:p], system.b_eq[eq_rows], trans=1)
        x, z = q[:, :p] @ u, q[:, p:]
    if z.shape[1]:
        pz = _cholesky_step(z.T @ h @ z, z.T @ (h @ x + g), h_max)
        if pz is None:
            return None
        x = x + z @ pz
    return QpSubproblemResult(
        status=OPTIMAL, x=x, duals_ineq=np.zeros(system.b_ineq.size),
        rhs=np.maximum(system.b_ineq, system.a_ineq @ x + 1.0))


def _homotopy(h, g, system, start, scale, eq_rows, h_max, max_iter):
    """Move a known optimum to this QP's along a parametric path.

    start is an OPTIMAL result for the same rows and an inequality RHS b0
    = start.rhs: its point is feasible for b0, its working rows are tight
    there and its multipliers duals_ineq are >= 0.  It is then the optimum
    of the QP with this normalized cost's h (times scale), the RHS b0 and
    the linear term g0 that makes it stationary; g0 is never needed.  A
    warm start is an earlier optimum (g0 = g), the free start the cost's
    own minimizer at a raised RHS, and phase 1 a feasible point at b0 = b
    with zero multipliers.  Along g0 + t (g - g0), b0 + t (b - b0) the
    working set W is fixed on each piece, and x(t) and the multipliers
    lam_W(t) are affine in t.  A piece ends at a breakpoint that changes W
    by one row: a multiplier reaches zero and its row leaves, or an outside
    row becomes tight and enters.  Each iteration solves the equality-
    constrained QP on W at the target g and b (the range part from R', the
    null-space part from the Cholesky factor of Z'HZ); the segment from the
    current point to that solution is the rest of the piece, so the two
    ratio tests find its end.  Ties go to the lowest index, and a leaving
    row before an entering one.

    A flat reduced Hessian, one that fails the pivot test, gets the
    least-squares step instead.  When that leaves a residual, the cost
    falls linearly along a ray on W: the point moves along it, with the
    bounds held, to the first blocking row, which enters with multiplier 0.

    A blocking row a_e = A_W' c that depends on W replaces the working
    row whose multiplier lam - tau c zeroes first.  When c is nowhere
    positive on the inequalities, y = e_e - c there and -c on the
    equalities is a Farkas certificate (Best 1996; qpOASES, Ferreau et al.
    2014): y'A = 0, y'b_t = 0 at the breakpoint and y'(b - b_t) < 0, as a_e
    blocks.  When rounding leaves y'b about 0 (see _farkas), the block ends
    the path instead, for the KKT gate to judge: a set that shrinks to a
    point at t = 1 makes one there, as does rounding on a fixed RHS.

    Returns ((x, working, y), iterations) at t = 1, y the multipliers of
    the working rows with the equalities first; (UNBOUNDED, iterations)
    when no row blocks a ray; (certificate, iterations), a dict as
    QpSubproblemResult documents, when the QP is infeasible; or (None,
    iterations) for a start that does not fit the QP or after max_iter
    breakpoints (which also ends any cycle of zero-length steps at a
    degenerate breakpoint).
    """
    a, b = system.a_ineq, system.b_ineq
    m, n = a.shape
    if (start.status != OPTIMAL or start.rhs is None
            or start.rhs.shape != b.shape or start.x.shape != (n,)):
        return None, 0
    a_eq_w = system.a_eq[eq_rows]
    f_w = system.b_eq[eq_rows]
    n_eq = len(eq_rows)
    x = start.x
    working = list(start.working)
    lam = start.duals_ineq[working] / scale
    b_t = start.rhs  # the bounds at the current t
    for it in range(1, max_iter + 1):
        a_w = np.vstack([a_eq_w, a[working]])
        p = a_w.shape[0]
        grad = h @ x + g
        step = np.zeros(n)
        z = np.eye(n)
        if p:
            q, r = np.linalg.qr(a_w.T, mode="complete")
            r, y_basis, z = r[:p], q[:, :p], q[:, p:]
            # Range part: A_W step = target bounds - A_W x.
            u, _ = lapack.dtrtrs(r, np.concatenate([f_w, b[working]])
                                 - a_w @ x, trans=1)
            step = y_basis @ u
        if z.shape[1]:
            hz = z.T @ h @ z
            gz = z.T @ (grad + h @ step)
            pz = _cholesky_step(hz, gz, h_max)
            if pz is None:
                if np.max(np.abs(hz)) <= _ZERO_CURVATURE * h_max:
                    hz = np.zeros_like(hz)  # only rounding noise from Z
                pz, *_ = np.linalg.lstsq(hz, -gz, rcond=None)
                resid = hz @ pz + gz
                if np.max(np.abs(resid)) > 1e-9:
                    # gz has a component in the null space of hz: a ray
                    # of linear descent, along which H x stays the same.
                    ray = z @ -resid
                    alpha, enter = _blocking_step(a, b_t, x, ray, working)
                    if enter is None:
                        return UNBOUNDED, it
                    x = x + alpha * ray
                    at = bisect.bisect(working, enter)
                    working.insert(at, enter)
                    lam = np.insert(lam, at, 0.0)
                    continue
            step = step + z @ pz
        y = (lapack.dtrtrs(r, -(y_basis.T @ (grad + h @ step)))[0] if p
             else np.zeros(0))
        d_lam = y[n_eq:] - lam

        alpha, leave = 1.0, None
        falling = np.flatnonzero(d_lam < -1e-12)
        if falling.size:
            ratios = np.maximum(lam[falling], 0.0) / -d_lam[falling]
            i = int(np.argmin(ratios))
            if ratios[i] < 1.0:
                alpha, leave = float(ratios[i]), int(falling[i])
        block, enter = _blocking_step(a, b_t, x, step, working,
                                      rhs_rate=b - b_t)
        if enter is None or block >= alpha:
            if leave is None:
                return (x + step, working, y), it
            enter = None
        else:
            alpha, leave = block, None
        x = x + alpha * step
        lam = lam + alpha * d_lam
        b_t = b_t + alpha * (b - b_t)
        lam_enter = 0.0
        if enter is not None:
            row = a[enter]
            if np.linalg.norm(z.T @ row) <= 1e-8 * np.linalg.norm(row):
                # row = A_W' c depends on W.  Multipliers lam - tau c on
                # W and tau on row keep stationarity; row takes the place
                # of the working row whose multiplier that zeroes first.
                coef = (lapack.dtrtrs(r, y_basis.T @ row)[0] if p
                        else np.zeros(0))
                c = coef[n_eq:]
                up = np.flatnonzero(c > 1e-9 * np.max(np.abs(c), initial=0.0))
                if not up.size:
                    # No working row can leave: the path proves the QP
                    # infeasible, or, when rounding leaves y'b about 0,
                    # this breakpoint ends it (see the docstring).
                    cert = _farkas(system, eq_rows, working, enter, coef)
                    if cert is not None:
                        return cert, it
                    return (x + (1.0 - alpha) * step, working, y), it
                ratios = np.maximum(lam[up], 0.0) / c[up]
                leave = int(up[np.argmin(ratios)])
                lam_enter = float(ratios.min())
                lam = lam - lam_enter * c
        if leave is not None:
            del working[leave]
            lam = np.delete(lam, leave)
        if enter is not None:
            at = bisect.bisect(working, enter)
            working.insert(at, enter)
            lam = np.insert(lam, at, lam_enter)
    return None, max_iter


def _farkas(system, eq_rows, working, enter, c):
    """y = e_enter - c, c the working rows' coefficients of row enter
    (equalities first), scaled so that ||a_i||'y = 1 (a zero row weighs
    1), as a certificate; None unless y'b < -1e-9."""
    n_eq = len(eq_rows)
    y = np.zeros(system.b_ineq.size)
    y[working] = np.maximum(-c[n_eq:], 0.0)
    y[enter] = 1.0
    y_eq = np.zeros(system.b_eq.size)
    y_eq[eq_rows] = -c[:n_eq]
    w = np.linalg.norm(system.a_ineq, axis=1)
    total = w @ y + np.sum(y[w == 0.0])
    rhs = float(y @ system.b_ineq + y_eq @ system.b_eq) / total
    if not rhs < -1e-9:
        return None
    return {"y_ineq": y / total, "y_eq": y_eq / total, "combined_rhs": rhs}


def _cholesky_step(hz, gz, h_max):
    """Newton step -hz^-1 gz from the Cholesky factor of the reduced
    Hessian, or None when a pivot is at most _PIVOT_TOL times the largest
    Hessian entry h_max: such an hz goes to the least-squares path, which
    finds zero-curvature descent rays."""
    # One LAPACK call factors and solves: at these sizes the checks in
    # the numpy and scipy wrappers cost more than the arithmetic.
    l, pz, info = lapack.dposv(hz, -gz, lower=1)
    if info or not l.diagonal().min() ** 2 > _PIVOT_TOL * h_max:
        return None
    return pz


def _blocking_step(a_ineq, b_ineq, x, direction, working, rhs_rate=None):
    """First inequality row blocking a move along direction.

    Returns (alpha, row) for the smallest step ratio (lowest row index on
    ties), or (inf, None) when no row outside the working set blocks.
    With rhs_rate the bounds move too, b_ineq + alpha * rhs_rate.
    """
    m = a_ineq.shape[0]
    if not m:
        return np.inf, None
    denom = a_ineq @ direction
    if rhs_rate is not None:
        denom -= rhs_rate
    mask = denom > 1e-12
    if working:
        mask[working] = False
    rows = np.flatnonzero(mask)
    if not rows.size:
        return np.inf, None
    resid = b_ineq[rows] - a_ineq[rows] @ x
    ratios = np.maximum(resid, 0.0) / denom[rows]
    alpha = float(ratios.min())
    j_enter = int(rows[np.flatnonzero(ratios <= alpha + 1e-12)[0]])
    return alpha, j_enter


def _read_only(result):
    """result, with its arrays made read-only: the solutions that share a
    result share its arrays, so an in-place write must raise instead of
    changing another solve's answer."""
    for array in (result.x, result.duals_ineq, result.duals_eq, result.rhs):
        if array is not None:
            array.flags.writeable = False
    return result


@dataclass(eq=False)
class _Shared:
    """The k-independent work of one selection data set: the all-enforced
    qp_solve result, the greedy path walked so far as (enforced mask,
    OPTIMAL result) steps, and whether that path stopped at a trial that
    was not OPTIMAL."""

    all_enforced: QpSubproblemResult | None = None
    path: list = field(default_factory=list)
    stopped: bool = False


# cc object -> {digest of the data a selection reads from it: _Shared}.
_SHARED = weakref.WeakKeyDictionary()


def _digest(*arrays):
    """Digest of the shapes and float64 bytes of arrays."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=float)
        digest.update(repr(array.shape).encode())
        digest.update(array)
    return digest.digest()


@dataclass(frozen=True, eq=False)
class SelectionProblem:
    """k-of-S selection instance whose scenarios shift only the RHS.

    base always holds, and its inequality rows a = base.a_ineq are the
    rows of every scenario block: block j is a x <= b[j], b the (S, m)
    RHS matrix, because in the chance-constraint construction a scenario
    only shifts the right-hand side.  Any set of enforced blocks therefore
    collapses, with the base, into the single row set
    a x <= min(base bound, row-wise minimum of their b[j]).

    _shared holds the k-independent work.  build_selection_from_ccopf
    hands one holder to every problem on the same data; a problem
    constructed directly gets a new, empty one and shares nothing.
    """

    cost: QuadraticCost
    base: LinearSystem
    b: np.ndarray
    k: int
    _shared: _Shared = field(default_factory=_Shared, repr=False)

    def __post_init__(self):
        m, n = self.base.a_ineq.shape
        b = np.asarray(self.b, dtype=float)
        if n != self.cost.n:
            raise ValueError(f"base rows must be (m, {self.cost.n}), "
                             f"got {self.base.a_ineq.shape}")
        if b.ndim != 2 or b.shape[1] != m:
            raise ValueError(f"b must be (S, {m}), got {b.shape}")
        if not (1 <= self.k <= b.shape[0]):
            raise ValueError(f"k={self.k} outside [1, {b.shape[0]}]")
        object.__setattr__(self, "b", b)

    @property
    def a(self):
        """The rows every scenario block shares: the base inequalities."""
        return self.base.a_ineq

    @property
    def n_scenarios(self):
        return self.b.shape[0]

    @property
    def blocks(self):
        """The scenario blocks as (A_j, b_j) pairs."""
        return tuple((self.a, b_j) for b_j in self.b)

    def node_system(self, enforced, relaxed=None):
        """Constraint system bounding a branch-and-bound node from below.

        The base rows at the row-wise minimum of the base bound and the
        RHS of the enforced mask's scenarios.  When a relaxed mask is
        supplied too, the rest U are undecided, and each row is also
        capped by the (r+1)-th smallest RHS over U for the remaining
        relaxation budget r = S - k - |relaxed| (if |U| > r): any
        completion discards at most r undecided blocks, so at least one of
        the r+1 tightest per row survives.  The system stays a relaxation
        of every completion while being far tighter than the enforced
        rows alone, and it has the base's rows, whatever the node.
        """
        b_min = self.b[enforced].min(axis=0) if enforced.any() else None
        if relaxed is not None:
            undecided = ~(enforced | relaxed)
            budget = self.n_scenarios - self.k - int(relaxed.sum())
            if undecided.sum() > budget:
                stat = np.partition(self.b[undecided], budget, axis=0)[budget]
                b_min = stat if b_min is None else np.minimum(b_min, stat)
        base = self.base
        if b_min is None:
            return base
        return LinearSystem(base.a_ineq, np.minimum(base.b_ineq, b_min),
                            base.a_eq, base.b_eq)

    def scenario_weights(self, enforced, row_weights):
        """Weight per scenario from nonnegative multipliers on the rows of
        node_system(enforced) (KKT duals or a Farkas certificate).

        enforced is a boolean mask over the scenarios.  Each row's weight
        goes to the enforced scenario attaining that row's minimum RHS
        (lowest index on ties); scenarios that are not enforced get zero.
        The base comes first on ties: a row whose enforced minimum is not
        strictly below the base bound gives its weight to no scenario.
        """
        if not enforced.any():
            return np.zeros(self.n_scenarios)
        lam = np.maximum(np.asarray(row_weights, dtype=float), 0.0)
        rhs = self.b[enforced]
        owner = np.flatnonzero(enforced)[np.argmin(rhs, axis=0)]
        lam = np.where(rhs.min(axis=0) < self.base.b_ineq, lam, 0.0)
        return np.bincount(owner, weights=lam, minlength=self.n_scenarios)

    def _all_enforced(self):
        """The read-only qp_solve result of node_system(all scenarios),
        solved cold once per shared holder."""
        shared = self._shared
        if shared.all_enforced is None:
            every = np.ones(self.n_scenarios, dtype=bool)
            shared.all_enforced = _read_only(
                qp_solve(self.cost, self.node_system(every)))
        return shared.all_enforced


@dataclass
class SolverOptions:
    node_limit: int | None = None
    rel_gap: float = 0.0

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node_limit must be >= 0, got {self.node_limit}")
        if not (np.isfinite(self.rel_gap) and self.rel_gap >= 0.0):
            raise ValueError(f"rel_gap must be finite and >= 0, "
                             f"got {self.rel_gap}")


@dataclass
class SelectionSolution:
    x_star: np.ndarray | None
    z_star: np.ndarray | None  # z_j = 1 iff scenario j is relaxed
    objective: float
    enforced_set: tuple
    status: str
    nodes: int = 0
    qp_count: int = 0
    iterations: int = 0  # active-set iterations of the qp_count QPs
    wall_time: float = 0.0
    gap: float = np.nan
    duals_ineq: np.ndarray | None = None
    duals_eq: np.ndarray | None = None
    message: str = ""  # which node failed, for NUMERICAL_FAILURE


def greedy_incumbent(problem):
    """Feasible warm start: repeatedly relax the enforced scenario with the
    largest aggregate dual weight, S - k times.

    The path starts from the problem's all-enforced QP.  Returns
    (x, z, value), or None when that QP is not OPTIMAL.  k sets only the
    path's length: the steps earlier calls on the problem's shared holder
    walked are replayed, and only the rest is solved.
    """
    all_enforced, shared = problem._all_enforced(), problem._shared
    if all_enforced.status != OPTIMAL:
        return None
    enforced, result = np.ones(problem.n_scenarios, dtype=bool), all_enforced
    for step in range(problem.n_scenarios - problem.k):
        if step == len(shared.path):
            if shared.stopped:
                break
            weights = problem.scenario_weights(enforced, result.duals_ineq)
            trial = enforced.copy()
            # max weight, ties to the lowest scenario index
            trial[np.argmax(np.where(enforced, weights, -np.inf))] = False
            # dropping a block only loosens the system, so the trial moves
            # the current optimum to its RHS
            trial_result = qp_solve(problem.cost, problem.node_system(trial),
                                    warm_start=result)
            if trial_result.status != OPTIMAL:
                shared.stopped = True
                break  # fall back to the last feasible iterate
            trial.flags.writeable = False
            shared.path.append((trial, _read_only(trial_result)))
        enforced, result = shared.path[step]
    return result.x, (~enforced).astype(int), result.value


def solve_selection(problem, options=None):
    """Globally optimal k-of-S selection by best-bound branch-and-bound.

    A node is a pair of boolean masks over the scenarios, Enforced and
    Relaxed; the rest are Undecided.  It is bounded by the QP of
    SelectionProblem.node_system: the base rows at the row-wise minimum
    of the base and enforced RHS, capped per row by the (r+1)-th smallest
    undecided RHS for the remaining relaxation budget r — a valid
    relaxation of every completion that tightens monotonically down the
    tree.  Children inherit the parent bound as a placeholder and are
    solved lazily when popped, re-queued if the refined bound is no longer
    best.  A node whose relaxation already satisfies enough Undecided
    blocks to reach k yields an incumbent and is fathomed by optimality.
    Branching takes the Undecided scenario with the largest violation at
    the node solution (lowest index on ties); children enforce or relax
    it.  Every node system loosens the all-enforced one, so every node QP
    warm-starts from the all-enforced optimum and moves it to the node's
    RHS; qp_solve alone recovers when that path gives up, and one node is
    one QP.  A node QP that ends in NUMERICAL_FAILURE ends the search,
    with a message naming the node (its count, |E|, |R|) and the QP's
    own message; at k = S the one QP is the all-enforced one, and its
    failure is named that way.  options.rel_gap closes a node whose bound
    is within that fraction of the incumbent, and the solution's gap is
    then the gap the search proved (zero for the exact search).  The
    solution's iterations sums the active-set iterations of the qp_count
    QPs (the greedy incumbent's trials count in neither).

    The all-enforced QP and the greedy path come from the problem's
    shared holder.  qp_count and iterations count that QP in every
    search, but wall_time includes the shared work only in the first
    solve on the data.  Arrays from the holder are read-only.
    """
    options = options or SolverOptions()
    t0 = time.perf_counter()
    s, k = problem.n_scenarios, problem.k
    nodes = 0
    anchor = None  # all-enforced optimum: every node system loosens it

    def finish(status, best=None, gap=np.nan, duals=(None, None),
               message=""):
        """The solution of the search; best is the (value, x, kept mask)
        it returns, None when it returns no dispatch."""
        value, x, kept = best or (np.nan, None, None)
        return SelectionSolution(
            x_star=x, z_star=None if kept is None else (~kept).astype(int),
            objective=value,
            enforced_set=() if kept is None else tuple(
                np.flatnonzero(kept).tolist()),
            status=status, nodes=nodes, qp_count=qp_count,
            iterations=iterations, wall_time=time.perf_counter() - t0,
            gap=gap, duals_ineq=duals[0], duals_eq=duals[1], message=message)

    def solve_node(enforced, relaxed=None):
        nonlocal qp_count, iterations
        qp_count += 1
        result = qp_solve(problem.cost,
                          problem.node_system(enforced, relaxed),
                          warm_start=anchor)
        iterations += result.iterations
        return result

    every = np.ones(s, dtype=bool)
    all_enforced = problem._all_enforced()
    # shared or not, the all-enforced QP is this search's first QP
    qp_count, iterations = 1, all_enforced.iterations
    if k == s:
        if all_enforced.status != OPTIMAL:
            return finish(all_enforced.status, message=(
                f"all-enforced QP (|E| = {s}, |R| = 0): "
                f"{all_enforced.message}"))
        return finish(OPTIMAL, (all_enforced.value, all_enforced.x, every),
                      0.0, (all_enforced.duals_ineq, all_enforced.duals_eq))
    if all_enforced.status == OPTIMAL:
        anchor = all_enforced
    incumbent = None  # (value, x, kept mask)
    warm = greedy_incumbent(problem)
    if warm is not None:
        x_w, z_w, v_w = warm
        incumbent = (v_w, x_w, z_w == 0)

    heap, tick = [], itertools.count()

    def push(bound, enforced, relaxed, result):
        heapq.heappush(heap, (bound, next(tick), enforced, relaxed, result))

    push(-np.inf, ~every, ~every, None)

    def prune_eps(v):
        return 1e-9 * max(1.0, abs(v)) + options.rel_gap * abs(v)

    limit_hit = False
    fathomed = np.inf  # least bound of a node closed by prune_eps
    while heap:
        bound, _, enforced, relaxed, result = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent[0] - prune_eps(incumbent[0]):
            # Best-bound order: every remaining node is at least as bad.
            fathomed = min(fathomed, bound)
            break
        if options.node_limit is not None and nodes >= options.node_limit:
            push(bound, enforced, relaxed, result)  # keep it in the gap
            limit_hit = True
            break

        undecided = ~(enforced | relaxed)
        if result is None:
            nodes += 1
            result = solve_node(enforced, relaxed)
            if result.status == INFEASIBLE:
                # The aggregation relaxes every completion of this node, so
                # all of them are infeasible too.
                continue
            if result.status == NUMERICAL_FAILURE:
                return finish(NUMERICAL_FAILURE, message=(
                    f"node {nodes} (|E| = {enforced.sum()}, "
                    f"|R| = {relaxed.sum()}): {result.message}"))
            if result.status == OPTIMAL:
                bound = result.value
                if incumbent is not None and \
                        bound >= incumbent[0] - prune_eps(incumbent[0]):
                    fathomed = min(fathomed, bound)
                    continue
                if heap and bound > heap[0][0] + 1e-12:
                    # No longer the best bound: re-queue, solved.
                    push(bound, enforced, relaxed, result)
                    continue
            else:  # UNBOUNDED relaxation: keep exploring below
                bound = -np.inf

        if result.status == OPTIMAL:
            # Largest row violation per scenario, -inf outside Undecided.
            worst = (problem.a @ result.x - problem.b).max(axis=1,
                                                           initial=-np.inf)
            viol = np.where(undecided, worst, -np.inf)
            satisfied = undecided & (viol <= ROW_TOL)
            if enforced.sum() + satisfied.sum() >= k:
                if incumbent is None or result.value < incumbent[0] - 1e-12 * max(
                        1.0, abs(incumbent[0])):
                    incumbent = (result.value, result.x, enforced | satisfied)
                continue  # fathomed by optimality at this node
            branch = np.argmax(viol)  # ties: argmax takes the first
        elif undecided.any():
            # Unbounded node relaxation: no point to branch on; take the
            # lowest-index undecided scenario.
            branch = np.argmax(undecided)
        else:
            # Fully decided node (>= k enforced) whose QP had no finite
            # optimum: the master itself is unbounded on this selection.
            return finish(result.status)

        # Children inherit this node's bound and are solved at pop.
        pick = np.arange(s) == branch
        push(bound, enforced | pick, relaxed, None)
        if relaxed.sum() < s - k:
            push(bound, enforced, relaxed | pick, None)

    if incumbent is None:
        return finish(GAP_LIMIT if limit_hit else INFEASIBLE)
    # The proved gap: the incumbent over the least bound of a node left
    # open or closed by prune_eps; within the exact 1e-9 it counts as none.
    value = incumbent[0]
    lower = min([fathomed] + [entry[0] for entry in heap])
    gap = 0.0
    if lower < value - 1e-9 * max(1.0, abs(value)):
        gap = (value - lower) / max(1.0, abs(value))
    status = (GAP_LIMIT if limit_hit and gap > options.rel_gap + 1e-15
              else OPTIMAL)
    return finish(status, incumbent, gap)


def build_selection_from_ccopf(cc, xi, cost, k, *, equalities):
    """Selection instance from chance-constraint rows and scenario errors.

    cc is a dc_model.CcSystem: affine row values base_lin @ x + base_const
    with error sensitivity sens and bounds rhs.  Scenario block j is
    base_lin @ x <= rhs - base_const - sens @ xi_j, so base_lin is the
    shared LHS and row j of the RHS matrix is the shifted bound.  The base
    system is cc.nominal_system(equalities): the deterministic block
    (xi = 0) plus the equalities (power balance).

    Problems on the same cc object, xi, cost and equalities share one
    holder of the k-independent work, found by a digest of every array
    read here but k (so never stale) and kept as long as cc lives.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    base = cc.nominal_system(equalities)
    b = base.b_ineq - (cc.sens @ xi[:, :, None])[..., 0]
    key = _digest(cc.base_lin, cc.base_const, cc.sens, cc.rhs, xi,
                  cost.h, cost.g, cost.c0, *equalities)
    shared = _SHARED.setdefault(cc, {}).setdefault(key, _Shared())
    return SelectionProblem(cost=cost, base=base, b=b, k=k, _shared=shared)
