"""Tests for MATPOWER parsing and per-unit conversion."""

import importlib.util
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccopf.case_io import (
    PQ,
    PV,
    SLACK,
    CaseFormatError,
    build_fleet,
    packaged_case_path,
    parse_matpower,
    to_network,
)

TWO_BUS = """\
function mpc = twobus
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;
\t2\t1\t50\t10\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t0\t0\t100\t-100\t1\t100\t1\t200\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;
];
mpc.branch = [
\t1\t2\t0.01\t0.1\t0\t120\t0\t0\t0\t0\t1\t-360\t360;
];
mpc.gencost = [
\t2\t0\t0\t3\t0.02\t15\t5;
];
"""


class TestParse:
    def test_two_bus_fixture(self):
        raw = parse_matpower(TWO_BUS)
        assert raw.name == "twobus"
        assert raw.base_mva == 100.0
        assert raw.bus.shape == (2, 13)
        assert raw.gen.shape == (1, 21)
        assert raw.branch.shape == (1, 13)

    def test_case14_counts(self, case14_raw):
        """The stock 14-bus file: 14 buses, 5 generators, 20 branches."""
        assert case14_raw.bus.shape[0] == 14
        assert case14_raw.gen.shape[0] == 5
        assert case14_raw.branch.shape[0] == 20

    def test_missing_bus_matrix(self):
        text = TWO_BUS.replace("mpc.bus", "mpc.busx")
        with pytest.raises(CaseFormatError, match="missing mandatory matrix"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parse_matpower(text)

    def test_ragged_rows(self):
        text = TWO_BUS.replace(
            "\t2\t1\t50\t10\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;",
            "\t2\t1\t50\t10;",
        )
        with pytest.raises(CaseFormatError, match="ragged"):
            parse_matpower(text)

    def test_bad_token_names_line(self):
        text = TWO_BUS.replace("0.01\t0.1", "0.01\tabc")
        with pytest.raises(CaseFormatError, match="line"):
            parse_matpower(text)

    @pytest.mark.parametrize("old, new, line, matrix", [
        ("\t2\t1\t50\t", "\t2\t1\tnan\t", 6, "bus"),
        ("\t1\t100\t1\t200\t", "\t1\t100\t1\tinf\t", 9, "gen"),
        ("0.01\t0.1", "0.01\t-Infinity", 12, "branch"),
        ("0.02\t15\t5", "NaN\t15\t5", 15, "gencost"),
    ], ids=["bus", "gen", "branch", "gencost"])
    def test_non_finite_entry_names_line_and_matrix(self, old, new, line,
                                                    matrix):
        # float() takes these tokens, and NaN passes every range check
        # after parsing, so the parser rejects them by name.
        assert TWO_BUS.count(old) == 1
        with pytest.raises(CaseFormatError,
                           match=rf"^line {line}: non-finite entry in "
                                 rf"matrix '{matrix}'$"):
            parse_matpower(TWO_BUS.replace(old, new))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_base_mva_names_line(self, value):
        text = TWO_BUS.replace("mpc.baseMVA = 100;",
                               f"mpc.baseMVA = {value};")
        with pytest.raises(CaseFormatError,
                           match=r"^line 3: baseMVA is not finite"):
            parse_matpower(text)

    def test_unknown_bus_reference(self):
        text = TWO_BUS.replace(
            "\t1\t2\t0.01", "\t1\t7\t0.01"
        )
        with pytest.raises(CaseFormatError, match="unknown bus id"):
            parse_matpower(text)

    def test_scientific_notation_and_comments(self):
        text = TWO_BUS.replace("50\t10", "5e1\t1.0e+1")
        text = text.replace("1\t1.1\t0.9;\n];", "1\t1.1\t0.9; % trailing\n];")
        raw = parse_matpower(text)
        assert raw.bus[1, 2] == 50.0 and raw.bus[1, 3] == 10.0


class TestToNetwork:
    def test_per_unit_load(self):
        case = to_network(parse_matpower(TWO_BUS))
        assert case.p_load[1] == 0.5
        assert case.q_load[1] == 0.1

    def test_per_unit_round_trip(self):
        """Multiplying back by baseMVA reproduces the raw numbers."""
        raw = parse_matpower(TWO_BUS)
        case = to_network(raw)
        assert abs(case.p_max[0] * case.base_mva - raw.gen[0, 8]) < 1e-12
        assert abs(case.br_limit[0] * case.base_mva - raw.branch[0, 5]) < 1e-12
        # cost invariance: value at P MW equals converted value at P p.u.
        p_mw = 37.0
        mw_cost = 0.02 * p_mw**2 + 15 * p_mw + 5
        pu = p_mw / case.base_mva
        pu_cost = (case.cost_c2[0] * pu**2 + case.cost_c1[0] * pu
                   + case.cost_c0[0])
        assert abs(mw_cost - pu_cost) < 1e-9

    @pytest.mark.parametrize("base", [0.0, math.nan, math.inf])
    def test_bad_base_mva_rejected(self, base):
        raw = replace(parse_matpower(TWO_BUS), base_mva=base)
        with pytest.raises(CaseFormatError, match="baseMVA must be positive"):
            to_network(raw)

    def test_two_slack_buses_rejected(self):
        text = TWO_BUS.replace("\t2\t1\t50", "\t2\t3\t50")
        with pytest.raises(CaseFormatError, match="one slack"):
            to_network(parse_matpower(text))

    def test_case14_slack_is_bus_1(self, case14):
        assert case14.slack == case14.bus_index(1)
        assert case14.bus_ids[case14.slack] == 1

    def test_case14_kinds_and_limits(self, case14):
        assert int(np.sum(case14.bus_kind == SLACK)) == 1
        assert int(np.sum(case14.bus_kind == PV)) == 4
        assert int(np.sum(case14.bus_kind == PQ)) == 9
        # stock 14-bus branches carry no ratings -> unlimited
        assert np.all(np.isinf(case14.br_limit))
        assert abs(np.sum(case14.p_load) - 2.59) < 1e-9

    def test_default_line_limit_applied(self):
        text = TWO_BUS.replace("0.1\t0\t120", "0.1\t0\t0")
        case = to_network(parse_matpower(text), default_line_limit=2.5)
        assert case.br_limit[0] == 2.5

    def test_nonpositive_reactance_rejected(self):
        text = TWO_BUS.replace("0.01\t0.1", "0.01\t0.0")
        with pytest.raises(CaseFormatError, match="reactance"):
            to_network(parse_matpower(text))

    def test_negative_quadratic_cost_rejected(self):
        text = TWO_BUS.replace("2\t0\t0\t3\t0.02", "2\t0\t0\t3\t-0.02")
        with pytest.raises(CaseFormatError, match="quadratic"):
            to_network(parse_matpower(text))

    def test_out_of_service_branch_dropped(self):
        text = TWO_BUS.replace("0\t0\t1\t-360\t360", "0\t0\t0\t-360\t360")
        # dropping the only branch leaves the network disconnected but
        # to_network itself only drops the row
        case = to_network(parse_matpower(text))
        assert case.n_branch == 0

    def test_cost_override(self, case14_raw):
        override = [(0.0, 20.0, 0.0), (0.25, 20.0, 0.0), (0.01, 40.0, 0.0),
                    (0.01, 40.0, 0.0), (0.01, 40.0, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            case = to_network(case14_raw, cost_override=override)
        assert case.cost_c2[0] == 0.0
        assert abs(case.cost_c1[1] - 20.0 * 100) < 1e-12
        assert abs(case.cost_c1[2] - 40.0 * 100) < 1e-12


class TestBuildFleet:
    def test_proportional_participation(self, case14):
        fleet = build_fleet(case14, [1], [0.2], 0.1)
        # capacities 332.4, 140, 100, 100, 100 MW
        total = 772.4
        expect = np.array([332.4, 140, 100, 100, 100]) / total
        assert np.allclose(fleet.gen_participation, expect, atol=1e-12)
        assert abs(fleet.participation.sum() - 1.0) < 1e-12

    def test_single_gen_gets_all(self):
        case = to_network(parse_matpower(TWO_BUS))
        fleet = build_fleet(case, [1], [0.3], 0.1)
        assert fleet.gen_participation.tolist() == [1.0]
        assert fleet.participation[0] == 1.0 and fleet.participation[1] == 0.0

    def test_tutorial_forecasts(self, case14, fleet14):
        """VRE at buses 2 and 3 at 20 MW each -> 0.2 p.u. forecasts."""
        assert np.allclose(fleet14.forecasts, [0.2, 0.2])
        assert fleet14.vre_buses.tolist() == [case14.bus_index(2),
                                              case14.bus_index(3)]
        assert fleet14.gamma == 0.1

    def test_no_capacity_rejected(self):
        text = TWO_BUS.replace("1\t200\t0\t0", "1\t0\t0\t0")
        case = to_network(parse_matpower(text))
        with pytest.raises(ValueError, match="positive capacity"):
            build_fleet(case, [1], [0.2], 0.1)

    def test_bad_inputs(self, case14):
        with pytest.raises(ValueError, match="out of range"):
            build_fleet(case14, [99], [0.2], 0.1)
        with pytest.raises(ValueError, match="positive"):
            build_fleet(case14, [1], [-0.2], 0.1)
        with pytest.raises(ValueError, match="equal length"):
            build_fleet(case14, [1, 2], [0.2], 0.1)


def test_case300_generator_reproduces_the_bundled_file():
    """tools/gen_case300.py renders data/case300s.m byte for byte."""
    tool_path = Path(__file__).resolve().parents[1] / "tools/gen_case300.py"
    spec = importlib.util.spec_from_file_location("gen_case300", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    text = tool.render(*tool.build())
    bundled = Path(packaged_case_path("case300s")).read_bytes()
    assert text.encode("utf-8") == bundled
