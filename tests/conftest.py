"""Shared fixtures: the packaged 14-bus case and the tutorial VRE fleet;
and the reference helpers that only tests call."""

import dataclasses
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ccopf.ac_model import _response_setpoints, pf_solve
from ccopf.case_io import (
    build_fleet,
    packaged_case_path,
    parse_matpower,
    to_network,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Property tests draw the same fixed number of examples on every run, so
# the suite stays deterministic and its run time bounded.  Setting
# HYPOTHESIS_PROFILE=deep draws 1500 instead, still derandomized.
settings.register_profile("ccopf", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.register_profile("deep", settings.get_profile("ccopf"),
                          max_examples=1500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ccopf"))


def subprocess_env():
    """os.environ with the absolute src directory first on PYTHONPATH, so
    ``python -m ccopf.cli`` imports this checkout from any working
    directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return env


def respond(case, fleet, state, xi):
    """Re-solve the network with one forecast-error vector applied: the
    one-scenario reference for the Newton scoring kernel.

    The targets are ac_model's response set points.  Magnitudes stay
    pinned at PV and slack; Newton starts from the given state.  Failures
    are reported on the returned state.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (fleet.n_vre,):
        raise ValueError("error vector length must match the fleet")
    (p_set,), (q_set,) = _response_setpoints(case, fleet, state, xi[None])
    return pf_solve(case, p_set, q_set, v_set2=state.v,
                    theta0=state.theta, vmag0=np.sqrt(state.v))


def variable_count(system):
    """The number of variables of a scenario_mip.LinearSystem."""
    a = system.a_ineq if system.a_ineq.size else system.a_eq
    return a.shape[1]


def row_values(cc, x, xi):
    """The row left-hand sides of a CcSystem at a dispatch and an error
    vector (or a batch of error vectors, one per row of xi)."""
    base = cc.base_lin @ x + cc.base_const
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        return base + cc.sens @ xi
    return base[None, :] + xi @ cc.sens.T


def without_clipping(spec):
    """The GaussianSpec's distribution with the clip step disabled (bounds
    at inf)."""
    inf = np.full(spec.n_vre, np.inf)
    return dataclasses.replace(spec, clip_low=-inf, clip_high=inf)


# Tutorial cost override: stock coefficients except generator 1's quadratic
# term is zeroed, making all-load-on-gen-1 the unique deterministic optimum
# (rows are (c2, c1, c0) in MW units, generator order of the case file).
TUTORIAL_COSTS = [
    (0.0, 20.0, 0.0),
    (0.25, 20.0, 0.0),
    (0.01, 40.0, 0.0),
    (0.01, 40.0, 0.0),
    (0.01, 40.0, 0.0),
]


@pytest.fixture(scope="session")
def case14_text():
    with open(packaged_case_path("case14"), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def case14_raw(case14_text):
    return parse_matpower(case14_text)


@pytest.fixture(scope="session")
def case14(case14_raw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return to_network(case14_raw)


@pytest.fixture(scope="session")
def case14_tutorial(case14_raw):
    """14-bus case with the tutorial cost override."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return to_network(case14_raw, cost_override=TUTORIAL_COSTS)


@pytest.fixture(scope="session")
def fleet14(case14):
    """VRE at buses 2 and 3 (20 MW forecasts each), gamma = 0.1."""
    buses = [case14.bus_index(2), case14.bus_index(3)]
    return build_fleet(case14, buses, np.array([20.0, 20.0]), 0.1,
                       forecasts_in_mw=True)


@pytest.fixture(scope="session")
def case14_ac(case14):
    """14-bus case with machine reactive ranges widened by 0.4 p.u.

    The series-impedance branch model drops the stock network's
    line-charging and shunt reactive support, so the machines must cover
    roughly 0.2 p.u. more reactive demand than the stock limits allow;
    widening the non-slack ranges keeps the simplified network
    self-consistent while leaving the rows live.
    """
    q_min = case14.q_min.copy()
    q_max = case14.q_max.copy()
    mask = ~case14.slack_gen_mask()
    q_min[mask] -= 0.4
    q_max[mask] += 0.4
    case = dataclasses.replace(case14, q_min=q_min, q_max=q_max)
    for arr in vars(case).values():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return case


@pytest.fixture(scope="session")
def fleet14_ac(case14_ac):
    buses = [case14_ac.bus_index(2), case14_ac.bus_index(3)]
    return build_fleet(case14_ac, buses, np.array([20.0, 20.0]), 0.1,
                       forecasts_in_mw=True)


@pytest.fixture(scope="session")
def fleet14_tutorial(case14_tutorial):
    buses = [case14_tutorial.bus_index(2), case14_tutorial.bus_index(3)]
    return build_fleet(case14_tutorial, buses, np.array([20.0, 20.0]), 0.1,
                       forecasts_in_mw=True)
