"""Radial Dirichlet solver for -(r^{N-1}|u'|^{p-2}u')' = r^{N-1} f(r) on an
annulus, plus the comparison-principle check against p-harmonic profiles.

Discretization: uniform mesh, conservative midpoint fluxes

    F_{i+1/2} = rm^{N-1} (D^2 + eps^2)^{(p-2)/2} D,   D = (u_{i+1}-u_i)/dr,

with the degenerate |u'|^{p-2} regularized through eps.  The Jacobian is the
symmetric tridiagonal with off-diagonals c_{i+1/2} = rm^{N-1} phi'(D)/dr,
phi'(D) = (D^2+eps^2)^{(p-4)/2}((p-1)D^2+eps^2) > 0, so each Newton system is
an M-matrix solved by banded elimination.  eps continues geometrically
1e-2 -> 1e-10 (a single exact level for p = 2, where eps drops out of the
flux); each level warm-starts from the previous one.  If Newton stops
converging at some level the last converged solution is returned and the
achieved eps is reported -- for p > 2 the Jacobian degenerates wherever the
discrete gradient vanishes, and chasing eps below that point buys no accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import BoundaryDominanceViolated, NewtonDivergence
from .exponents import ProblemParams
from .radial_ops import GridProfile, check_p_harmonic, eval_profile
from .reports import IdentityReport

_EPS_LEVELS = tuple(10.0 ** -k for k in range(2, 11))  # 1e-2 ... 1e-10
_NEWTON_TOL = 1e-11
_MAX_NEWTON_ITER = 100
_MAX_HALVINGS = 40
_EPS_MACH = float(np.finfo(float).eps)

RhsSpec = Union[None, Callable[[float], float], GridProfile]


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded``, imported on first call: scipy.linalg
    costs a cold start about 0.3 s that only this solver needs."""
    from scipy.linalg import solve_banded as scipy_solve_banded

    return scipy_solve_banded(l_and_u, ab, b)


@dataclass(frozen=True)
class AnnulusProblem:
    """Dirichlet data for -Delta_p u = f on r_inner < r < r_outer (f >= 0)."""

    params: ProblemParams  # q unused here
    r_inner: float
    r_outer: float
    boundary_inner: float
    boundary_outer: float
    rhs: RhsSpec = None
    mesh_size: int = 256

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer < math.inf:
            raise ValueError("need 0 < r_inner < r_outer < inf")
        if not (math.isfinite(self.boundary_inner) and math.isfinite(self.boundary_outer)):
            raise ValueError("boundary values must be finite")
        if not isinstance(self.mesh_size, int) or self.mesh_size < 16:
            raise ValueError(f"mesh_size must be an integer >= 16, got {self.mesh_size!r}")
        f = self.rhs_values(self.mesh_nodes())
        if not np.all((f >= 0) & (f < math.inf)):
            raise ValueError(f"rhs must be finite and >= 0 where sampled: [{f.min()}, {f.max()}]")

    def mesh_nodes(self) -> np.ndarray:
        return np.linspace(self.r_inner, self.r_outer, self.mesh_size + 1)

    def rhs_values(self, r: np.ndarray) -> np.ndarray:
        if self.rhs is None:
            return np.zeros_like(r)
        if isinstance(self.rhs, GridProfile):
            return np.interp(r, self.rhs.r, self.rhs.u)
        return np.array([float(self.rhs(ri)) for ri in r])


@dataclass(frozen=True)
class NewtonInfo:
    flux_eps: float        # achieved continuation level
    iterations: int        # Newton iterations across all levels
    residual: float        # final scaled RMS residual
    levels_done: int


class _LevelStalled(Exception):
    def __init__(self, residual: float):
        self.residual = residual


def _flux_and_dflux(D: np.ndarray, p: float, eps: float):
    if p == 2.0:
        return D, np.ones_like(D)
    m2 = D * D + eps * eps
    flux = m2 ** ((p - 2.0) / 2.0) * D
    dflux = m2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * D * D + eps * eps)
    return flux, dflux


def _newton_level(u, r_mid_pow, rhs_term, dr, p, eps, scale):
    """Damped Newton at one eps level; mutates and returns u.

    Progress is measured in the scaled RMS norm: the Jacobian is symmetric
    positive definite, so the Newton step is a guaranteed descent direction
    for the 2-norm of the residual (not for the max-norm, which can refuse
    to decrease across a gradient-degenerate region and fake a stall).
    The residual of one evaluation also cannot drop below its own roundoff
    (flux magnitudes and c * u per node), so the tolerance is floored there.
    """
    n = len(u) - 2
    rms = math.sqrt(n)

    def residual(uu):
        D = np.diff(uu) / dr
        flux, dflux = _flux_and_dflux(D, p, eps)
        fl = r_mid_pow * flux
        c = r_mid_pow * dflux / dr
        floor = 8.0 * _EPS_MACH * (
            float(np.max(np.abs(fl))) + float(np.max(c)) * float(np.max(np.abs(uu)))
        )
        return fl[1:] - fl[:-1] + rhs_term, c, floor

    res, c, floor = residual(u)
    norm = float(np.linalg.norm(res)) / (scale * rms)
    for it in range(_MAX_NEWTON_ITER):
        if norm <= max(_NEWTON_TOL, floor / scale):
            return u, it, norm
        ab = np.zeros((3, n))
        ab[0, 1:] = c[1:n]
        ab[1, :] = -(c[:n] + c[1 : n + 1])
        ab[2, :-1] = c[1:n]
        try:
            delta = solve_banded((1, 1), ab, -res)
        except Exception:
            raise _LevelStalled(norm)
        if not np.all(np.isfinite(delta)):
            raise _LevelStalled(norm)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = u.copy()
            trial[1:-1] += t * delta
            res_t, c_t, floor_t = residual(trial)
            norm_t = float(np.linalg.norm(res_t)) / (scale * rms)
            if norm_t < (1.0 - 1e-4 * t) * norm or norm_t <= _NEWTON_TOL:
                u, res, c, norm, floor = trial, res_t, c_t, norm_t, floor_t
                break
            t *= 0.5
        else:
            raise _LevelStalled(norm)
    if norm <= max(_NEWTON_TOL, floor / scale):
        return u, _MAX_NEWTON_ITER, norm
    raise _LevelStalled(norm)


def solve_annulus_dirichlet_detailed(prob: AnnulusProblem) -> tuple[GridProfile, NewtonInfo]:
    """Solve and report the continuation/Newton diagnostics."""
    p = prob.params.p
    n_dim = prob.params.n_dim
    r = prob.mesh_nodes()
    dr = float(r[1] - r[0])
    r_mid_pow = (0.5 * (r[:-1] + r[1:])) ** (n_dim - 1.0)
    rhs_term = dr * r[1:-1] ** (n_dim - 1.0) * prob.rhs_values(r)[1:-1]

    u = np.linspace(prob.boundary_inner, prob.boundary_outer, len(r))
    levels = (0.0,) if p == 2.0 else _EPS_LEVELS
    # residual scale: the magnitude of what the residual differences (fluxes
    # at the initial slope) and of the load, never below 1
    flux0, _ = _flux_and_dflux(np.diff(u) / dr, p, levels[0])
    scale = max(
        1.0,
        float(np.max(np.abs(rhs_term))),
        float(np.max(np.abs(r_mid_pow * flux0))),
    )

    total_it = 0
    done = 0
    best = None
    for eps in levels:
        try:
            u, it, norm = _newton_level(u.copy(), r_mid_pow, rhs_term, dr, p, eps, scale)
        except _LevelStalled as stall:
            if best is None:
                raise NewtonDivergence(
                    f"Newton stalled at first continuation level eps={eps:g}",
                    last_residual=stall.residual,
                    flux_eps=eps,
                ) from None
            break
        total_it += it
        done += 1
        best = (u.copy(), eps, norm)
    u_final, eps_final, norm_final = best
    info = NewtonInfo(
        flux_eps=eps_final,
        iterations=total_it,
        residual=norm_final,
        levels_done=done,
    )
    return GridProfile(r=r, u=u_final), info


def solve_annulus_dirichlet(prob: AnnulusProblem) -> GridProfile:
    """Discrete solution on the uniform mesh (nodes = mesh_size + 1)."""
    profile, _ = solve_annulus_dirichlet_detailed(prob)
    return profile


# ---------------------------------------------------------------------------
# Comparison principle
# ---------------------------------------------------------------------------

def comparison_check(prob: AnnulusProblem, phi, comparison_tol: float = 1e-8) -> IdentityReport:
    """min over the mesh of (u - phi) for -Delta_p u = f >= 0 = -Delta_p phi.

    phi must be p-harmonic on the annulus and dominated by the boundary data;
    then u >= phi throughout.
    """
    check_p_harmonic(phi, prob.params, prob.r_inner, prob.r_outer)
    phi_in = eval_profile(phi, prob.r_inner).value
    phi_out = eval_profile(phi, prob.r_outer).value
    slack = 1e-12
    if prob.boundary_inner < phi_in - slack * max(1.0, abs(phi_in)) or (
        prob.boundary_outer < phi_out - slack * max(1.0, abs(phi_out))
    ):
        raise BoundaryDominanceViolated(
            f"boundary data ({prob.boundary_inner}, {prob.boundary_outer}) does not "
            f"dominate phi's boundary values ({phi_in}, {phi_out})"
        )
    sol, info = solve_annulus_dirichlet_detailed(prob)
    phi_mesh = np.array([eval_profile(phi, float(ri)).value for ri in sol.r])
    diff = sol.u - phi_mesh
    i_min = int(np.argmin(diff))
    residual = float(diff[i_min])
    return IdentityReport(
        label="comparison_principle",
        lhs=float(sol.u[i_min]),
        rhs=float(phi_mesh[i_min]),
        residual=residual,
        scale=1.0,
        tol=comparison_tol,
        passed=residual >= -comparison_tol,
        note=f"min(u - phi) at r={sol.r[i_min]:.6g}; flux_eps={info.flux_eps:g}",
    )
