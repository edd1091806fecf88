"""Radial Dirichlet solver for -(r^{N-1}|u'|^{p-2}u')' = r^{N-1} f(r) on an
annulus, plus the comparison-principle check against p-harmonic profiles.

Discretization: uniform mesh, conservative midpoint fluxes

    F_{i+1/2} = rm^{N-1} (D^2 + eps^2)^{(p-2)/2} D,   D = (u_{i+1}-u_i)/dr,

with the degenerate |u'|^{p-2} regularized through eps.  The residual
F_{i+1/2} - F_{i-1/2} + dr r_i^{N-1} f_i is minus the gradient of the convex
discrete energy

    E(u) = dr sum rm^{N-1} Phi(D) - sum dr r_i^{N-1} f_i u_i,
    Phi(D) = (D^2 + eps^2)^{p/2} / p   (D^2 / 2 at p = 2),

and its Jacobian is the symmetric tridiagonal with off-diagonals
c_{i+1/2} = rm^{N-1} phi'(D)/dr, phi'(D) = (D^2+eps^2)^{(p-4)/2}((p-1)D^2+eps^2)
> 0, so the Newton step descends E and each step length backtracks (Armijo)
on E.  Each Newton system J x = b is solved exactly by two prefix sums: the
fluxes G_i = c_i (x_{i+1} - x_i) satisfy G_i - G_{i-1} = b_i, so G is the
running sum of b shifted until the increments G_i / c_i add up to zero (the
Dirichlet ends), and x is their running sum.

eps continues geometrically 1e-2 -> 1e-10 (a single exact level for p = 2,
where eps drops out of the flux); each level warm-starts from the previous
one.  Mesh sequencing gives the first level its start: from mesh 256 up the
same problem is first solved at eps = 1e-2 on a mesh four times coarser (the
same rule applied again below it) and interpolated, so the Newton count per
level does not grow with the mesh; a coarser mesh starts from the straight
line between the boundary values.  A solve finishes every level or raises
NewtonDivergence naming the eps at which Newton stalled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NewtonDivergence, PlapError
from .exponents import ProblemParams
from .radial_ops import check_p_harmonic, eval_profile
from .reports import IdentityReport

_EPS_LEVELS = tuple(10.0 ** -k for k in range(2, 11))  # 1e-2 ... 1e-10
_NEWTON_TOL = 1e-11
_MAX_NEWTON_ITER = 100
_MAX_HALVINGS = 40
_ARMIJO = 0.25  # sufficient energy decrease, as a fraction of the slope (< 1/2)
_COARSEN = 4
_SEQUENCE_MIN_MESH = 256  # coarser meshes start from the straight line
_EPS_MACH = float(np.finfo(float).eps)
_COMPARISON_TOL = 1e-8

RhsSpec = Callable[[float], float] | None


def solve_banded(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x_1..x_n with c_{i-1} x_{i-1} - (c_{i-1} + c_i) x_i + c_i x_{i+1} = b_i and
    x_0 = x_{n+1} = 0, for the n + 1 weights c_0..c_n, by the two prefix sums
    of the module docstring.  A zero or NaN weight gives a non-finite x,
    without a warning."""
    with np.errstate(all="ignore"):
        inv_c = 1.0 / c
        flux = np.concatenate(([0.0], np.cumsum(b)))
        flux -= (flux @ inv_c) / np.sum(inv_c)
        w = flux * inv_c
        # x_i sums w from either end (the whole sum is zero); take the end with
        # the smaller accumulated |w|, so where c spans many decades the
        # roundoff of the large increments never reaches the small ones
        from_inner = np.cumsum(w)[:-1]
        from_outer = -np.cumsum(w[::-1])[::-1][1:]
        acc = np.cumsum(np.abs(w))[:-1]
        return np.where(acc <= np.sum(np.abs(w)) - acc, from_inner, from_outer)


@dataclass(frozen=True)
class AnnulusProblem:
    """Dirichlet data for -Delta_p u = f on r_inner < r < r_outer (f >= 0).

    The load is sampled, and checked, once per solve: a callable rhs is a
    scalar function of r, evaluated at every mesh node.
    """

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

    def mesh_nodes(self) -> np.ndarray:
        return np.linspace(self.r_inner, self.r_outer, self.mesh_size + 1)

    def rhs_values(self, r: np.ndarray) -> np.ndarray:
        if self.rhs is None:
            return np.zeros_like(r)
        return np.array([float(self.rhs(ri)) for ri in r])


@dataclass(frozen=True)
class GridProfile:
    """The discrete solution: u at the mesh nodes r."""

    r: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class NewtonInfo:
    flux_eps: float        # the last continuation level, 0.0 at p = 2
    iterations: int        # Newton iterations across all levels and meshes
    residual: float        # final scaled RMS residual
    levels_done: int       # every level: 9, or 1 at p = 2


def _flux_and_dflux(D: np.ndarray, p: float, eps: float):
    if p == 2.0:
        return D, np.ones_like(D)
    m2 = D * D + eps * eps
    flux = m2 ** ((p - 2.0) / 2.0) * D
    dflux = m2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * D * D + eps * eps)
    return flux, dflux


def _phi_increment(D: np.ndarray, h: np.ndarray, p: float, eps: float) -> np.ndarray:
    """Phi(D + h) - Phi(D) per midpoint, for Phi(D) = (D^2 + eps^2)^{p/2} / p
    (D^2 / 2 at p = 2), computed without subtracting two nearly equal
    energies, so a short step still has an accurate energy change."""
    if p == 2.0:
        return h * (D + 0.5 * h)
    m2 = D * D + eps * eps
    return m2 ** (p / 2.0) / p * np.expm1(p / 2.0 * np.log1p(h * (2.0 * D + h) / m2))


def _newton_level(u, r_mid_pow, rhs_term, dr, p, eps):
    """Damped Newton at one eps level; mutates u and returns (iterations,
    scaled RMS residual), or raises NewtonDivergence naming eps.

    The step delta = J^{-1}(-res) descends the energy E of the module
    docstring with slope -res . delta < 0.  Its length t halves until E falls
    by at least _ARMIJO * t * (res . delta); near the solution E is quadratic
    and t = 1 passes.  The fraction is large enough to reject the full step
    where it overshoots, as it does by about a factor 2 where Phi grows like
    |D|^p with p < 2, and E barely moves.  E's change is summed from per-
    midpoint increments (_phi_increment), never as a difference of two
    energies, so it stays resolved down to the stopping test.

    Newton stops when the residual at every node is _NEWTON_TOL times the
    largest flux or load term, or the roundoff of evaluating that node's
    residual if that is larger: 8 eps_mach times the sum of what it is formed
    from -- its two fluxes, its load term, and c * u at its two midpoints,
    each with the larger |u| of the midpoint's two nodes.  The floor is per
    node because c can span tens of decades (p < 2 with a steep profile): one
    floor for the whole mesh then exceeds every far-field flux, and Newton
    stops far from the solution.  The reported residual is the RMS over the
    flux-or-load scale; where far-field nodes sit at their own floor it need
    not be small.  Constant data with no load has no flux, a zero residual,
    and stops at once.
    """
    rms = math.sqrt(len(u) - 2)

    def residual(uu):
        D = np.diff(uu) / dr
        flux, dflux = _flux_and_dflux(D, p, eps)
        fl = r_mid_pow * flux
        c = r_mid_pow * dflux / dr
        scale = max(float(np.max(np.abs(fl))), float(np.max(np.abs(rhs_term))))
        au = np.abs(uu)
        terms = np.abs(fl) + c * np.maximum(au[:-1], au[1:])
        floor = 8.0 * _EPS_MACH * (terms[:-1] + terms[1:] + np.abs(rhs_term))
        res = fl[1:] - fl[:-1] + rhs_term
        done = bool(np.all(np.abs(res) <= np.maximum(_NEWTON_TOL * scale, floor)))
        norm = float(np.linalg.norm(res)) / rms
        return D, res, c, done, norm / scale if norm else 0.0

    for it in range(_MAX_NEWTON_ITER + 1):
        D, res, c, done, norm = residual(u)
        if done:
            return it, norm
        if it == _MAX_NEWTON_ITER:
            break
        delta = solve_banded(c, -res)
        slope = float(res @ delta)
        if not (np.all(np.isfinite(delta)) and slope > 0.0):
            break
        dD = np.diff(delta, prepend=0.0, append=0.0) / dr
        load = float(rhs_term @ delta)
        t = 1.0
        with np.errstate(all="ignore"):  # an overflowing trial has dE = nan: rejected
            for _ in range(_MAX_HALVINGS):
                dE = dr * float(r_mid_pow @ _phi_increment(D, t * dD, p, eps)) - t * load
                if dE <= -_ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                break
        u[1:-1] += t * delta
    raise NewtonDivergence(f"Newton stalled at continuation level eps={eps:g}",
                           last_residual=norm, flux_eps=eps)


def _continuation(prob: AnnulusProblem, r, f, levels) -> tuple[np.ndarray, NewtonInfo]:
    """u on the nodes r, for the load samples f, continued through every eps
    level; NewtonInfo.iterations includes those of every coarser mesh."""
    p = prob.params.p
    mesh = len(r) - 1
    iterations = 0
    if p != 2.0 and mesh >= _SEQUENCE_MIN_MESH:
        r_c = np.linspace(r[0], r[-1], mesh // _COARSEN + 1)
        u_c, coarse = _continuation(prob, r_c, np.interp(r_c, r, f), levels[:1])
        u = np.interp(r, r_c, u_c)
        iterations = coarse.iterations
    else:
        u = np.linspace(prob.boundary_inner, prob.boundary_outer, mesh + 1)
    dr = float(r[1] - r[0])
    r_mid_pow = (0.5 * (r[:-1] + r[1:])) ** (prob.params.n_dim - 1.0)
    rhs_term = dr * r[1:-1] ** (prob.params.n_dim - 1.0) * f[1:-1]
    for eps in levels:
        it, norm = _newton_level(u, r_mid_pow, rhs_term, dr, p, eps)
        iterations += it
    return u, NewtonInfo(
        flux_eps=levels[-1], iterations=iterations, residual=norm, levels_done=len(levels),
    )


def solve_annulus_dirichlet_detailed(prob: AnnulusProblem) -> tuple[GridProfile, NewtonInfo]:
    """Solve and report the continuation/Newton diagnostics; ValueError if the
    load is negative or not finite at a mesh node."""
    r = prob.mesh_nodes()
    f = prob.rhs_values(r)
    if not np.all((f >= 0) & (f < math.inf)):
        raise ValueError(f"rhs must be finite and >= 0 where sampled: [{f.min()}, {f.max()}]")
    levels = (0.0,) if prob.params.p == 2.0 else _EPS_LEVELS
    u, info = _continuation(prob, r, f, levels)
    return GridProfile(r=r, u=u), info


def solve_annulus_dirichlet(prob: AnnulusProblem) -> GridProfile:
    """Discrete solution on the uniform mesh (nodes = mesh_size + 1)."""
    profile, _ = solve_annulus_dirichlet_detailed(prob)
    return profile


# ---------------------------------------------------------------------------
# Comparison principle
# ---------------------------------------------------------------------------

def comparison_check(prob: AnnulusProblem, phi) -> IdentityReport:
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
        raise PlapError(
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
        tol=_COMPARISON_TOL,
        passed=residual >= -_COMPARISON_TOL,
        note=f"min(u - phi) at r={sol.r[i_min]:.6g}; flux_eps={info.flux_eps:g}",
    )
