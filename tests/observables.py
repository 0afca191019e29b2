"""Observables only the tests read: feature velocities and populations.

measure_velocity tracks a groove, a peak or a population ridge (the real
part of a diagonal row rho[k, k] of the grid's state) across a solution
grid with sub-cell (parabolic) refinement and fits its lab-frame speed; slow_group_velocity is the slow soliton's leading-order speed it is
compared with; intensities_and_populations reads |O_a|^2, |O_b|^2 and the
level populations off fields and a state.  The CLI writes the same
intensities and populations through cli.write_grid_csv.
"""

from __future__ import annotations

import numpy as np

from lambda_mb.errors import LambdaMBError, ParameterGuard
from lambda_mb.mbsolver import SolutionGrid
from lambda_mb.model import LambdaParams, SpectralData


class FeatureLost(LambdaMBError):
    """Tracked extremum is absent, non-unique or not prominent enough."""


def slow_group_velocity(p: LambdaParams, s: SpectralData) -> float:
    """Leading-order group velocity of the slow soliton, in units of c."""
    if not (s.eps0 > 0 and p.nu0 > 0):
        raise ParameterGuard("requires eps0 > 0 and nu0 > 0")
    return p.omega0**2 * (p.delta**2 + s.eps0**2) / (2.0 * s.eps0**2 * p.nu0)


def intensities_and_populations(fields, state):
    """Observables plotted for every scenario: |O_a|^2, |O_b|^2 and level populations."""
    oa, ob = fields
    ia = np.abs(np.asarray(oa)) ** 2
    ib = np.abs(np.asarray(ob)) ** 2
    arr = np.asarray(state)
    if arr.shape[-2:] == (3, 3):
        pops = np.real(np.stack([arr[..., i, i] for i in range(3)], axis=-1))
    else:
        pops = np.abs(arr) ** 2
    return ia, ib, pops[..., 0], pops[..., 1], pops[..., 2]


# ---------------------------------------------------------------------------
# feature tracking
# ---------------------------------------------------------------------------

def _refine_parabolic(y, idx, x0, hx):
    """Sub-cell extremum location by parabola through three points."""
    ym, y0, yp = y[idx - 1], y[idx], y[idx + 1]
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        return x0 + idx * hx
    shift = 0.5 * (ym - yp) / denom
    return x0 + (idx + shift) * hx


def _track_rows(values, minimize, axis_coords, cross_coords, prominence_floor):
    """Extremum position along axis 1 for every row; returns per-row coordinate."""
    positions = []
    kept = []
    for i in range(values.shape[0]):
        row = values[i]
        idx = int(np.argmin(row) if minimize else np.argmax(row))
        if idx == 0 or idx == len(row) - 1:
            continue  # feature not interior for this row
        prominence = (np.max(row) - row[idx]) if minimize else (row[idx] - np.min(row))
        if prominence < prominence_floor:
            continue
        near = np.flatnonzero(np.abs(row - row[idx]) <= 1e-9 * max(prominence, 1e-300))
        if near.size > 1 and (near.max() - near.min()) > 2:
            raise FeatureLost("tracked extremum is not unique within a row")
        positions.append(_refine_parabolic(row, idx, axis_coords[0],
                                           axis_coords[1] - axis_coords[0]))
        kept.append(cross_coords[i])
    if len(kept) < 3:
        raise FeatureLost("tracked extremum present in fewer than 3 slices")
    return np.asarray(kept), np.asarray(positions)


def measure_velocity(solution: SolutionGrid, tracker: str) -> float:
    """Lab-frame speed of a tracked feature, in units of c.

    tracker: "ia_min" (groove of the a-channel intensity), "ia_max"
    (a-channel intensity peak), "ib_max" (b-channel peak), or "p1_max"
    (population ridge of level 1; tracked across zeta per tau slice, which
    stays well-posed for arrested features).  A feature at fixed lab speed
    v obeys tau = (1/v - 1) zeta, so the fitted slope m of tau*(zeta)
    gives v = 1/(1 + m); for the zeta-per-tau tracking the slope q of
    zeta*(tau) gives v = q/(1 + q).
    """
    grid = solution.grid
    taus, zetas = grid.taus(), grid.zetas()
    if tracker in ("ia_min", "ia_max", "ib_max", "p3_max"):
        ia = np.abs(solution.omega_a) ** 2
        if tracker == "ib_max":
            values = np.abs(solution.omega_b) ** 2
        elif tracker == "p3_max":
            values = solution.rho[2, 2].real
        else:
            values = ia
        background = float(np.median(np.concatenate([ia[:, 0], ia[:, -1]])))
        floor = 1e-3 * max(background, float(np.max(values)) * 1e-3)
        zs, ts = _track_rows(values, tracker == "ia_min", taus, zetas, floor)
        m = np.polyfit(zs, ts, 1)[0]
        return 1.0 / (1.0 + m)
    if tracker == "p1_max":
        values = solution.rho[0, 0].real.T  # rows = tau slices, cols = zeta
        floor = 1e-3 * float(np.max(values))
        ts, zs = _track_rows(values, False, zetas, taus, floor)
        q = np.polyfit(ts, zs, 1)[0]
        return q / (1.0 + q)
    raise ValueError(f"unknown tracker {tracker!r}")
