"""MATPOWER case parsing and the per-unit network model.

Reads the matrix subset needed downstream (baseMVA, bus, gen, branch,
gencost) from MATPOWER v2 `.m` text, converts to a validated per-unit
NetworkCase with contiguous internal bus indices, and overlays the VRE
fleet (forecast buses, forecast outputs, reactive ratio gamma, AGC
participation factors).

Branches are modeled by series impedance r + jx only: tap ratios, phase
shifts, line charging, and bus shunts are parsed but dropped with a
warning.  All AC consumers downstream are internal-consistency checks, so
they see the same simplified network the solver uses.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

# Bus-kind codes (MATPOWER convention kept for the internal labels too).
PQ = 1
PV = 2
SLACK = 3

_MANDATORY = ("bus", "gen", "branch")
_MIN_COLS = {"bus": 13, "gen": 21, "branch": 13, "gencost": 4}


class CaseFormatError(ValueError):
    """Malformed case text or a violated case invariant."""


class CostOverrideError(CaseFormatError):
    """A cost_override that is not one row of three per in-service
    generator."""


@dataclass(frozen=True, eq=False)
class RawCase:
    """Verbatim MATPOWER matrices, still in mixed MW / per-unit units."""

    name: str
    base_mva: float
    bus: np.ndarray
    gen: np.ndarray
    branch: np.ndarray
    gencost: np.ndarray  # zero rows when the file has no cost block


@dataclass(frozen=True, eq=False)
class NetworkCase:
    """Per-unit network with contiguous 0-based bus indices.

    Cost coefficients are converted so that
    cost($) = c0 + c1 * P + c2 * P**2 with P in per-unit.
    Voltage bounds are squared magnitudes.
    """

    name: str
    base_mva: float
    bus_ids: np.ndarray  # internal index -> original MATPOWER bus id
    bus_kind: np.ndarray
    p_load: np.ndarray
    q_load: np.ndarray
    v_min2: np.ndarray
    v_max2: np.ndarray
    v_set2: np.ndarray  # squared setpoints: bus profile, gen-bus overrides
    gen_bus: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    cost_c0: np.ndarray
    cost_c1: np.ndarray
    cost_c2: np.ndarray
    br_from: np.ndarray
    br_to: np.ndarray
    br_r: np.ndarray
    br_x: np.ndarray
    br_limit: np.ndarray  # +inf where the file gave no rating

    @property
    def n_bus(self):
        return self.bus_ids.size

    @property
    def n_gen(self):
        return self.gen_bus.size

    @property
    def n_branch(self):
        return self.br_from.size

    @property
    def slack(self):
        """Internal index of the single slack bus."""
        return int(np.flatnonzero(self.bus_kind == SLACK)[0])

    def bus_index(self, external_id):
        """Map an original MATPOWER bus id to the internal index."""
        hits = np.flatnonzero(self.bus_ids == external_id)
        if hits.size != 1:
            raise KeyError(f"unknown bus id {external_id}")
        return int(hits[0])

    def slack_gen_mask(self):
        """Boolean mask over generators located at the slack bus."""
        return self.gen_bus == self.slack


@dataclass(frozen=True, eq=False)
class VreFleet:
    """Forecast buses, forecast outputs, and AGC participation factors.

    participation is per bus (zero where no generator sits);
    gen_participation is the same mass split per generator.  Both sum to 1.
    """

    vre_buses: np.ndarray
    forecasts: np.ndarray  # p.u., > 0
    gamma: float
    participation: np.ndarray
    gen_participation: np.ndarray

    @property
    def n_vre(self):
        return self.vre_buses.size


def _strip_comments(text):
    lines = []
    for line in text.splitlines():
        cut = line.find("%")
        lines.append(line if cut < 0 else line[:cut])
    return lines


def _parse_matrix(lines, start_idx, name):
    """Parse rows between '[' and '];' starting at lines[start_idx]."""
    rows = []
    buf = []
    line_no = start_idx
    # Drop everything up to and including the opening bracket.
    head = lines[start_idx]
    head = head[head.index("[") + 1:]
    pending = head
    closed = False
    while line_no < len(lines):
        chunk = pending if pending is not None else lines[line_no]
        pending = None
        if "]" in chunk:
            chunk = chunk[: chunk.index("]")]
            closed = True
        for piece in chunk.split(";"):
            piece = piece.strip().replace(",", " ")
            if piece:
                buf.append((piece, line_no + 1))
        if closed:
            break
        line_no += 1
    if not closed:
        raise CaseFormatError(
            f"line {start_idx + 1}: matrix '{name}' is never closed with ']'"
        )
    for piece, no in buf:
        try:
            row = [float(tok) for tok in piece.split()]
        except ValueError as exc:
            raise CaseFormatError(
                f"line {no}: bad numeric token in matrix '{name}': {exc}"
            ) from None
        if not all(map(math.isfinite, row)):
            raise CaseFormatError(
                f"line {no}: non-finite entry in matrix '{name}'")
        rows.append(row)
    if not rows:
        raise CaseFormatError(f"matrix '{name}' is empty")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CaseFormatError(
                f"matrix '{name}' row {i + 1} has {len(row)} entries, "
                f"expected {width} (ragged rows)"
            )
    return np.array(rows, dtype=float), line_no


def parse_matpower(text):
    """Parse MATPOWER v2 case text into a RawCase.

    Captures baseMVA and the bus/gen/branch/gencost matrices verbatim;
    % comments and blank lines are ignored; unrecognized assignments are
    skipped with a warning.  Errors carry 1-based line numbers.
    """
    lines = _strip_comments(text)
    name = "case"
    base_mva = None
    matrices = {}
    scalar_re = re.compile(r"^\s*mpc\.(\w+)\s*=\s*([^\[';]+);")
    matrix_re = re.compile(r"^\s*mpc\.(\w+)\s*=\s*\[")
    func_re = re.compile(r"^\s*function\s+\w+\s*=\s*(\w+)")
    i = 0
    while i < len(lines):
        line = lines[i]
        m = func_re.match(line)
        if m:
            name = m.group(1)
            i += 1
            continue
        m = matrix_re.match(line)
        if m:
            field = m.group(1)
            mat, end = _parse_matrix(lines, i, field)
            if field in _MIN_COLS:
                matrices[field] = mat
            else:
                warnings.warn(f"ignoring unused case matrix '{field}'")
            i = end + 1
            continue
        m = scalar_re.match(line)
        if m:
            field, value = m.group(1), m.group(2).strip()
            if field == "baseMVA":
                try:
                    base_mva = float(value)
                except ValueError:
                    raise CaseFormatError(
                        f"line {i + 1}: baseMVA is not numeric: {value!r}"
                    ) from None
                if not math.isfinite(base_mva):
                    raise CaseFormatError(
                        f"line {i + 1}: baseMVA is not finite: {value!r}")
            elif field != "version":
                warnings.warn(f"ignoring unused case field '{field}'")
            i += 1
            continue
        if line.strip() and "mpc." in line and "=" not in line:
            raise CaseFormatError(f"line {i + 1}: unparsable statement")
        i += 1

    if base_mva is None:
        raise CaseFormatError("missing mandatory scalar 'baseMVA'")
    for field in _MANDATORY:
        if field not in matrices:
            raise CaseFormatError(f"missing mandatory matrix '{field}'")
    for field, mat in matrices.items():
        if mat.shape[1] < _MIN_COLS[field]:
            raise CaseFormatError(
                f"matrix '{field}' has {mat.shape[1]} columns, "
                f"needs at least {_MIN_COLS[field]}"
            )
    n_gen = matrices["gen"].shape[0]
    gencost = matrices.get("gencost")
    if gencost is None:
        # Default: free generation (all-zero quadratic cost).
        gencost = np.zeros((n_gen, 7))
        gencost[:, 0] = 2
        gencost[:, 3] = 3
    if gencost.shape[0] == 2 * n_gen:
        warnings.warn("gencost has reactive-cost rows; keeping active rows")
        gencost = gencost[:n_gen]
    elif gencost.shape[0] != n_gen:
        raise CaseFormatError(
            f"gencost has {gencost.shape[0]} rows for {n_gen} generators"
        )
    bus_ids = matrices["bus"][:, 0]
    if np.unique(bus_ids).size != bus_ids.size:
        raise CaseFormatError("duplicate bus ids in bus matrix")
    id_set = set(bus_ids.tolist())
    for field, col in (("gen", 0), ("branch", 0), ("branch", 1)):
        for value in matrices[field][:, col]:
            if value not in id_set:
                raise CaseFormatError(
                    f"matrix '{field}' references unknown bus id {value:g}"
                )
    return RawCase(
        name=name,
        base_mva=base_mva,
        bus=matrices["bus"],
        gen=matrices["gen"],
        branch=matrices["branch"],
        gencost=gencost,
    )


def to_network(raw, *, default_line_limit=math.inf, cost_override=None):
    """Convert a RawCase to a validated per-unit NetworkCase.

    Out-of-service generators and branches (status 0) are dropped.  Branch
    ratings of 0 (MATPOWER's "unlimited") become default_line_limit, given
    in per-unit.  cost_override, when supplied, replaces the polynomial
    cost coefficients before conversion; rows are (c2, c1, c0) in
    $/MW^2, $/MW, $ for each in-service generator.
    """
    base = raw.base_mva
    if not 0 < base < math.inf:
        raise CaseFormatError(
            f"baseMVA must be positive and finite, got {base}")

    bus = raw.bus
    kinds = bus[:, 1].astype(int)
    if not np.all(np.isin(kinds, (PQ, PV, SLACK))):
        bad = kinds[~np.isin(kinds, (PQ, PV, SLACK))][0]
        raise CaseFormatError(f"unsupported bus type {bad}")
    n_slack = int(np.sum(kinds == SLACK))
    if n_slack != 1:
        raise CaseFormatError(f"expected exactly one slack bus, found {n_slack}")

    bus_ids = bus[:, 0].astype(int)
    index_of = {int(b): i for i, b in enumerate(bus_ids)}

    gen_on = raw.gen[:, 7] != 0
    gen = raw.gen[gen_on]
    gencost = raw.gencost[gen_on]
    if gen.shape[0] == 0:
        raise CaseFormatError("no in-service generator")

    if cost_override is not None:
        cost_override = np.asarray(cost_override, dtype=float)
        if cost_override.shape != (gen.shape[0], 3):
            raise CostOverrideError(
                f"cost_override shape {cost_override.shape} does not match "
                f"{gen.shape[0]} in-service generators x 3 coefficients"
            )
        c2_mw, c1_mw, c0_mw = (cost_override[:, 0], cost_override[:, 1],
                               cost_override[:, 2])
    else:
        c2_mw, c1_mw, c0_mw = _polynomial_costs(gencost)
    if np.any(c2_mw < 0):
        raise CaseFormatError("negative quadratic cost coefficient")

    br_on = raw.branch[:, 10] != 0
    branch = raw.branch[br_on]
    if np.any(branch[:, 3] <= 0):
        raise CaseFormatError("nonpositive branch reactance")
    if np.any(branch[:, 8] != 0) or np.any(branch[:, 9] != 0) \
            or np.any(branch[:, 4] != 0) or np.any(bus[:, 4:6] != 0):
        warnings.warn(
            "tap ratios / phase shifts / line charging / bus shunts present; "
            "dropped (series-impedance branch model)"
        )

    p_min = gen[:, 9] / base
    p_max = gen[:, 8] / base
    q_min = gen[:, 4] / base
    q_max = gen[:, 3] / base
    if np.any(p_min > p_max) or np.any(q_min > q_max):
        raise CaseFormatError("generator limits violate min <= max")

    rate = branch[:, 5] / base
    limit = np.where(branch[:, 5] > 0, rate, default_line_limit)

    gen_bus_idx = np.array([index_of[int(b)] for b in gen[:, 0]])
    v_set2 = bus[:, 7] ** 2
    v_set2[gen_bus_idx] = gen[:, 5] ** 2  # machine setpoint wins

    case = NetworkCase(
        name=raw.name,
        base_mva=base,
        bus_ids=bus_ids,
        bus_kind=kinds,
        p_load=bus[:, 2] / base,
        q_load=bus[:, 3] / base,
        v_min2=bus[:, 12] ** 2,
        v_max2=bus[:, 11] ** 2,
        v_set2=v_set2,
        gen_bus=gen_bus_idx,
        p_min=p_min,
        p_max=p_max,
        q_min=q_min,
        q_max=q_max,
        cost_c0=c0_mw.copy(),
        cost_c1=c1_mw * base,
        cost_c2=c2_mw * base * base,
        br_from=np.array([index_of[int(b)] for b in branch[:, 0]], dtype=int),
        br_to=np.array([index_of[int(b)] for b in branch[:, 1]], dtype=int),
        br_r=branch[:, 2].copy(),
        br_x=branch[:, 3].copy(),
        br_limit=limit,
    )
    for arr in vars(case).values():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return case


def _polynomial_costs(gencost):
    """Extract (c2, c1, c0) in MW units from polynomial gencost rows."""
    if np.any(gencost[:, 0] != 2):
        raise CaseFormatError(
            "only polynomial cost model rows (model = 2) are supported"
        )
    n = gencost.shape[0]
    c2 = np.zeros(n)
    c1 = np.zeros(n)
    c0 = np.zeros(n)
    for i, row in enumerate(gencost):
        ncost = int(row[3])
        if ncost > 3:
            raise CaseFormatError(
                f"gencost row {i + 1}: degree {ncost - 1} polynomial; "
                "at most quadratic cost is supported"
            )
        if ncost < 1 or 4 + ncost > row.size + 1:
            raise CaseFormatError(f"gencost row {i + 1}: bad NCOST {ncost}")
        coeffs = row[4:4 + ncost]  # highest degree first
        padded = np.zeros(3)
        padded[3 - ncost:] = coeffs
        c2[i], c1[i], c0[i] = padded
    return c2, c1, c0


def build_fleet(case, vre_buses, forecasts, gamma, *, forecasts_in_mw=False):
    """Build the VRE overlay with capacity-proportional participation.

    vre_buses are internal bus indices; forecasts are per-unit unless
    forecasts_in_mw is set.  Participation of each generator is
    p_max / sum(p_max) over all (conventional) generators; buses without
    generators get zero.
    """
    vre_buses = np.asarray(vre_buses, dtype=int)
    forecasts = np.asarray(forecasts, dtype=float)
    if forecasts_in_mw:
        forecasts = forecasts / case.base_mva
    if vre_buses.ndim != 1 or vre_buses.size == 0:
        raise ValueError("vre_buses must be a nonempty index list")
    if np.unique(vre_buses).size != vre_buses.size:
        raise ValueError("duplicate VRE bus")
    if np.any(vre_buses < 0) or np.any(vre_buses >= case.n_bus):
        raise ValueError("VRE bus index out of range")
    if forecasts.shape != vre_buses.shape:
        raise ValueError("forecasts and vre_buses must have equal length")
    if np.any(forecasts <= 0):
        raise ValueError("forecast outputs must be positive")

    if np.any(case.p_max < 0):
        raise ValueError("negative generator capacity")
    total = float(np.sum(case.p_max))
    if total <= 0:
        raise ValueError("no conventional generator with positive capacity")
    gen_part = case.p_max / total
    bus_part = np.zeros(case.n_bus)
    np.add.at(bus_part, case.gen_bus, gen_part)

    fleet = VreFleet(
        vre_buses=vre_buses,
        forecasts=forecasts,
        gamma=float(gamma),
        participation=bus_part,
        gen_participation=gen_part,
    )
    for arr in (fleet.vre_buses, fleet.forecasts, fleet.participation,
                fleet.gen_participation):
        arr.setflags(write=False)
    assert abs(fleet.participation.sum() - 1.0) < 1e-12
    return fleet


def load_case(path, **to_network_kwargs):
    """Read a case file from disk and convert it in one step."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return to_network(parse_matpower(text), **to_network_kwargs)


def packaged_case_path(name):
    """Path of a case file shipped with the package (e.g. 'case14')."""
    candidate = files("ccopf.data").joinpath(f"{name}.m")
    if not candidate.is_file():
        raise FileNotFoundError(f"no packaged case named {name!r}")
    return str(candidate)
