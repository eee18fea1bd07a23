"""Forecast-error scenario sets: correlated Gaussian draws with clipping.

Errors are zero-mean multivariate normal with variance proportional to each
forecast (Sigma_ii = zeta * p_i) and uniform correlation rho, then clipped
componentwise to [-p_i, 2 p_i] so a unit forecasting one third of its
capacity stays inside [0, capacity].

Reproducibility contract: draws come from the counter-based Philox 4x64
generator seeded explicitly, turned into normals by inverse CDF (so each
variate depends only on its stream index, never on draw order), and mixed
by the Cholesky factor of Sigma.  Identical (spec, s, seed) gives
bit-identical output on any platform or worker count; the generator
identity is recorded in the provenance digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_GENERATOR_ID = "philox4x64/inverse-cdf/cholesky"


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Distribution recipe for the forecast-error vector."""

    forecasts: np.ndarray  # per-VRE forecast outputs, p.u.
    zeta: float
    rho: float
    clip_low: np.ndarray = None
    clip_high: np.ndarray = None

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.forecasts, dtype=float))
        if p.ndim != 1 or p.size == 0 or not np.all((p > 0) & (p < np.inf)):
            raise ValueError(
                "forecasts must be a nonempty positive finite vector")
        if not 0 < self.zeta < np.inf:
            raise ValueError("zeta must be positive and finite")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        low = (-p if self.clip_low is None
               else np.asarray(self.clip_low, dtype=float))
        high = (2.0 * p if self.clip_high is None
                else np.asarray(self.clip_high, dtype=float))
        if low.shape != p.shape or high.shape != p.shape:
            raise ValueError("clip bounds must match the forecast vector")
        if np.any(low >= high):
            raise ValueError("clip_low must be below clip_high")
        for arr in (p, low, high):
            arr.setflags(write=False)
        object.__setattr__(self, "forecasts", p)
        object.__setattr__(self, "clip_low", low)
        object.__setattr__(self, "clip_high", high)

    @property
    def n_vre(self):
        return self.forecasts.size

    def digest_material(self, s, seed):
        return (f"generator={_GENERATOR_ID};seed={int(seed)};s={int(s)};"
                f"zeta={self.zeta!r};rho={self.rho!r};"
                f"p={self.forecasts.tobytes().hex()};"
                f"lo={self.clip_low.tobytes().hex()};"
                f"hi={self.clip_high.tobytes().hex()}")


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """S forecast-error rows plus the provenance needed to regenerate them."""

    xi: np.ndarray  # (S, n_vre)
    seed: int
    spec_digest: str

    def __post_init__(self):
        xi = np.atleast_2d(np.asarray(self.xi, dtype=float))
        if xi.shape[0] < 1:
            raise ValueError("a scenario set needs at least one row")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    @property
    def s(self):
        return self.xi.shape[0]

    @property
    def n_vre(self):
        return self.xi.shape[1]


def build_covariance(spec):
    """Sigma_ii = zeta p_i, Sigma_ij = rho sqrt(Sigma_ii Sigma_jj)."""
    std = np.sqrt(spec.zeta * spec.forecasts)
    sigma = spec.rho * np.outer(std, std)
    np.fill_diagonal(sigma, std * std)
    eigs = np.linalg.eigvalsh(sigma)
    assert eigs[0] >= -1e-12 * max(1.0, eigs[-1]), "covariance not PSD"
    return sigma


def sample(spec, s, seed):
    """Draw s i.i.d. clipped-Gaussian error vectors, reproducibly."""
    if s < 1:
        raise ValueError("sample count must be at least 1")
    sigma = build_covariance(spec)
    chol = np.linalg.cholesky(sigma)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    u = rng.random((int(s), spec.n_vre))
    # Guard the open ends so the inverse CDF never returns an infinity.
    np.clip(u, 2.0 ** -54, float(np.nextafter(1.0, 0.0)), out=u)
    xi = ndtri(u) @ chol.T
    np.clip(xi, spec.clip_low, spec.clip_high, out=xi)
    digest = hashlib.sha256(
        spec.digest_material(s, seed).encode()).hexdigest()
    return ScenarioSet(xi=xi, seed=int(seed), spec_digest=digest)


def summarize(sset):
    """Per-component and aggregate statistics for reporting."""
    xi = sset.xi
    total = xi.sum(axis=1)
    out = {
        "s": sset.s,
        "n_vre": sset.n_vre,
        "mean": xi.mean(axis=0),
        "std": xi.std(axis=0, ddof=1) if sset.s > 1 else np.zeros(sset.n_vre),
        "min": xi.min(axis=0),
        "max": xi.max(axis=0),
        "total_mean": float(total.mean()),
        "total_std": float(total.std(ddof=1)) if sset.s > 1 else 0.0,
    }
    if sset.s > 1 and sset.n_vre > 1:
        out["correlation"] = np.corrcoef(xi, rowvar=False)
    return out


def save_csv(sset, path, labels=None):
    """One scenario per row, 17 significant digits, provenance up top."""
    labels = (list(labels) if labels is not None
              else [f"xi_{i}" for i in range(sset.n_vre)])
    if len(labels) != sset.n_vre:
        raise ValueError("one label per VRE column required")
    lines = [f"# seed={sset.seed} digest={sset.spec_digest} "
             f"generator={_GENERATOR_ID}",
             ",".join(labels)]
    for row in sset.xi:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path, spec=None):
    """Read a scenario CSV back; validate clip bounds when a spec is given.

    Lines starting with # are comments; the first other line holds the
    column labels, and every line after it is one scenario.
    """
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    seed = 0
    digest = ""
    rows = []
    header_seen = False
    for line_no, line in enumerate(raw, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            for token in text[1:].split():
                if token.startswith("seed="):
                    seed = int(token[5:])
                elif token.startswith("digest="):
                    digest = token[7:]
            continue
        cells = text.split(",")
        if not header_seen:
            header_seen = True  # column-label row
            try:
                list(map(float, cells))
            except ValueError:
                continue
            raise ValueError(
                f"{path}: row {line_no} holds numbers, not column labels; "
                "a scenario CSV starts with a label row")
        parsed = []
        for col, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {line_no}, "
                    f"column {col + 1}: {cell!r}") from None
            if not np.isfinite(value):
                raise ValueError(
                    f"{path}: non-finite cell at row {line_no}, "
                    f"column {col + 1}: {cell!r}")
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no scenarios")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: rows have inconsistent column counts")
    xi = np.array(rows)
    if spec is not None:
        if xi.shape[1] != spec.n_vre:
            raise ValueError(
                f"{path}: {xi.shape[1]} columns but the spec has "
                f"{spec.n_vre} VRE components")
        if np.any(xi < spec.clip_low - 1e-12) or \
                np.any(xi > spec.clip_high + 1e-12):
            raise ValueError(f"{path}: entries violate the clip bounds")
    return ScenarioSet(xi=xi, seed=seed, spec_digest=digest)
