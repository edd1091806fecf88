"""Radial Dirichlet solver for -(r^{N-1}|u'|^{p-2}u')' = r^{N-1} f(r) on an
annulus, plus the comparison-principle check against p-harmonic profiles.

Discretization: uniform mesh, conservative midpoint fluxes

    F_{i+1/2} = rm^{N-1} (D^2 + eps^2)^{(p-2)/2} D,   D = (u_{i+1}-u_i)/dr,

with the degenerate |u'|^{p-2} regularized through eps.  The residual
F_{i+1/2} - F_{i-1/2} + dr r_i^{N-1} f_i is minus the gradient of the convex
discrete energy

    E(u) = dr sum rm^{N-1} Phi(D) - sum dr r_i^{N-1} f_i u_i,
    Phi(D) = (D^2 + eps^2)^{p/2} / p,

and its Jacobian is the symmetric tridiagonal with off-diagonals
c_{i+1/2} = rm^{N-1} phi'(D)/dr, phi'(D) = (D^2+eps^2)^{(p-4)/2}((p-1)D^2+eps^2)
> 0, so the Newton step descends E and each step length backtracks (Armijo)
on E.  Each Newton system J x = b is solved exactly by two prefix sums: the
fluxes G_i = c_i (x_{i+1} - x_i) satisfy G_i - G_{i-1} = b_i, so G is the
running sum of b shifted until the increments G_i / c_i add up to zero (the
Dirichlet ends), and x is their running sum, from the inner end below a split
index k and from the outer end above it.  A Newton iteration forms its arrays
in place and drops each once used, so it holds at most six of mesh length.

eps continues geometrically 1e-2 -> 1e-10; each level warm-starts from the
previous one.  At p = 2 the problem is linear: only the last level runs,
through the same formulas, and eps drops out of the flux ((D^2 + eps^2)^0 D
is D).  Mesh sequencing gives the first level its start: from mesh 256 up a
p != 2 problem is first solved at eps = 1e-2 on a mesh four times coarser
(the same rule applied again below it) and interpolated, so the Newton count
per level does not grow with the mesh; a coarser mesh, and every p = 2 mesh,
starts from the straight line between the boundary values.  A solve
finishes every level or raises NewtonDivergence naming the eps at which
Newton stalled.
"""

from __future__ import annotations

import bisect
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
    without a warning.  x_i sums w = G / c from the end with the smaller
    accumulated |w| (the whole sum is zero), which switches once, at k, so
    where c spans many decades the roundoff of the large increments never
    reaches the small ones.  Two (n + 1)-arrays are reused in place."""
    with np.errstate(all="ignore"):
        w = 1.0 / c
        acc = np.zeros_like(w)
        np.cumsum(b, out=acc[1:])
        acc -= (acc @ w) / np.sum(w)
        w *= acc
        total = np.sum(np.abs(w, out=acc))
        np.cumsum(acc, out=acc)
        # acc_i <= total - acc_i holds below k and fails from k on: acc grows
        k = bisect.bisect_left(range(len(b)), True, key=lambda i: not acc[i] <= total - acc[i])
        np.cumsum(w[:k], out=acc[:k])
        np.cumsum(w[k + 1:][::-1], out=acc[k:-1][::-1])
        np.negative(acc[k:-1], out=acc[k:-1])
        return acc[:-1]


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
        return np.fromiter((float(self.rhs(ri)) for ri in r), float, count=len(r))


@dataclass(frozen=True)
class GridProfile:
    """The discrete solution: u at the mesh nodes r."""

    r: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class NewtonInfo:
    iterations: int        # Newton iterations across all levels and meshes
    residual: float        # final scaled RMS residual
    levels_done: int       # every level: 9, or 1 at p = 2


def _flux_and_dflux(D: np.ndarray, p: float, eps: float):
    m2 = D * D + eps * eps
    flux = m2 ** ((p - 2.0) / 2.0) * D
    dflux = (p - 1.0) * D * D + eps * eps
    dflux *= m2 ** ((p - 4.0) / 2.0)
    return flux, dflux


def _line_search(u, D, delta, slope, load, r_mid_pow, dr, p, eps) -> bool:
    """Add the Armijo step t delta to u, or return False if no t passes; an
    overflowing trial has dE = nan and fails.  Consumes the midpoint slopes D;
    D^2 + eps^2, Phi(D) and 2D are formed once."""
    t = 1.0
    m2 = D * D + eps * eps
    phi = m2 ** (p / 2.0) / p
    D *= 2.0
    h, inc = np.empty_like(D), np.empty_like(D)  # t dD; Phi(D + h) - Phi(D)
    for _ in range(_MAX_HALVINGS):
        np.subtract(delta[1:], delta[:-1], out=h[1:-1])
        h[0], h[-1] = delta[0] - 0.0, 0.0 - delta[-1]  # as np.diff with zero ends
        h /= dr
        h *= t
        # Phi(D) expm1(p/2 log1p(h (2D + h) / m2))
        np.add(D, h, out=inc)
        inc *= h
        inc /= m2
        np.log1p(inc, out=inc)
        inc *= p / 2.0
        np.expm1(inc, out=inc)
        inc *= phi
        dE = dr * float(r_mid_pow @ inc) - t * load
        if dE <= -_ARMIJO * t * slope:
            u[1:-1] += np.multiply(delta, t, out=delta)
            return True
        t *= 0.5
    return False


def _newton_level(u, r_mid_pow, rhs_term, dr, p, eps):
    """Damped Newton at one eps level; mutates u and returns (iterations,
    scaled RMS residual), or raises NewtonDivergence naming eps.

    The step delta = J^{-1}(-res) descends the energy E of the module
    docstring with slope -res . delta < 0.  Its length t halves until E falls
    by at least _ARMIJO * t * (res . delta); near the solution E is quadratic
    and t = 1 passes.  The fraction is large enough to reject the full step
    where it overshoots, as it does by about a factor 2 where Phi grows like
    |D|^p with p < 2, and E barely moves.  E's change is summed from per-
    midpoint increments Phi(D + h) - Phi(D) (via log1p/expm1), never as a
    difference of two energies, so it stays resolved down to the stopping test.

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
    and stops at once.  An overflowed flux or load term never stops it.
    """
    rms = math.sqrt(len(u) - 2)

    def residual(uu):
        D = np.diff(uu)
        D /= dr
        fl, c = _flux_and_dflux(D, p, eps)
        fl *= r_mid_pow
        c *= r_mid_pow
        c /= dr
        scale = max(float(np.max(np.abs(fl))), float(np.max(np.abs(rhs_term))))
        terms = np.abs(uu[:-1])
        np.maximum(terms, np.abs(uu[1:]), out=terms)
        terms *= c
        terms += np.abs(fl)
        res = np.subtract(fl[1:], fl[:-1])
        res += rhs_term
        floor = np.add(terms[:-1], terms[1:], out=fl[:-1])
        floor += np.abs(rhs_term, out=terms[:-1])
        floor *= 8.0 * _EPS_MACH
        np.maximum(floor, _NEWTON_TOL * scale, out=floor)
        done = scale < math.inf and bool(np.all(np.abs(res, out=terms[:-1]) <= floor))
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
        del res, c
        if not (np.all(np.isfinite(delta)) and slope > 0.0):
            break
        if not _line_search(u, D, delta, slope, float(rhs_term @ delta), r_mid_pow, dr, p, eps):
            break
        del D, delta
    raise NewtonDivergence(f"Newton stalled at continuation level eps={eps:g}",
                           last_residual=norm, flux_eps=eps)


def _continuation(prob: AnnulusProblem, r, f, levels) -> tuple[np.ndarray, NewtonInfo]:
    """u on the nodes r, for the load samples f, continued through every eps
    level; NewtonInfo.iterations includes those of every coarser mesh.  The
    load terms overwrite f, and the coarse mesh's arrays are dropped once u
    is interpolated from them."""
    p = prob.params.p
    mesh = len(r) - 1
    iterations = 0
    if p != 2.0 and mesh >= _SEQUENCE_MIN_MESH:
        r_c = np.linspace(r[0], r[-1], mesh // _COARSEN + 1)
        u_c, coarse = _continuation(prob, r_c, np.interp(r_c, r, f), levels[:1])
        u = np.interp(r, r_c, u_c)
        iterations = coarse.iterations
        del r_c, u_c
    else:
        u = np.linspace(prob.boundary_inner, prob.boundary_outer, mesh + 1)
    dr = float(r[1] - r[0])
    with np.errstate(all="ignore"):  # a non-finite value ends in NewtonDivergence
        r_mid_pow = (0.5 * (r[:-1] + r[1:])) ** (prob.params.n_dim - 1.0)
        rhs_term = f[1:-1]  # the load term dr r_i^{N-1} f_i, formed in the load's buffer
        rhs_term *= dr * r[1:-1] ** (prob.params.n_dim - 1.0)
        for eps in levels:
            it, norm = _newton_level(u, r_mid_pow, rhs_term, dr, p, eps)
            iterations += it
    return u, NewtonInfo(iterations=iterations, residual=norm, levels_done=len(levels))


def solve_annulus_dirichlet_detailed(prob: AnnulusProblem) -> tuple[GridProfile, NewtonInfo]:
    """The discrete solution on the uniform mesh (nodes = mesh_size + 1) and its
    continuation/Newton diagnostics; ValueError if the load is negative or not
    finite at a mesh node."""
    r = prob.mesh_nodes()
    f = prob.rhs_values(r)
    if not np.all((f >= 0) & (f < math.inf)):
        raise ValueError(f"rhs must be finite and >= 0 where sampled: [{f.min()}, {f.max()}]")
    levels = _EPS_LEVELS[-1:] if prob.params.p == 2.0 else _EPS_LEVELS
    u, info = _continuation(prob, r, f, levels)
    return GridProfile(r=r, u=u), info


# ---------------------------------------------------------------------------
# Comparison principle
# ---------------------------------------------------------------------------

def comparison_check(prob: AnnulusProblem, phi) -> IdentityReport:
    """min over the mesh of (u - phi) for -Delta_p u = f >= 0 = -Delta_p phi,
    judged against max(|u|, |phi|) on the mesh.

    phi must be p-harmonic on the annulus and dominated by the boundary data;
    then u >= phi throughout.
    """
    check_p_harmonic(phi, prob.params, prob.r_inner, prob.r_outer)
    phi_in = eval_profile(phi, prob.r_inner).value
    phi_out = eval_profile(phi, prob.r_outer).value
    slack = 1e-12 * max(abs(phi_in), abs(phi_out))
    if prob.boundary_inner < phi_in - slack or prob.boundary_outer < phi_out - slack:
        raise PlapError(
            f"boundary data ({prob.boundary_inner}, {prob.boundary_outer}) does not "
            f"dominate phi's boundary values ({phi_in}, {phi_out})"
        )
    sol, _ = solve_annulus_dirichlet_detailed(prob)
    phi_mesh = np.array([eval_profile(phi, float(ri)).value for ri in sol.r])
    diff = sol.u - phi_mesh
    i_min = int(np.argmin(diff))
    residual = float(diff[i_min])
    scale = max(float(np.max(np.abs(sol.u))), float(np.max(np.abs(phi_mesh))), 1e-300)
    return IdentityReport(
        label="comparison_principle", lhs=float(sol.u[i_min]), rhs=float(phi_mesh[i_min]),
        residual=residual, scale=scale, tol=_COMPARISON_TOL,
        passed=residual >= -_COMPARISON_TOL * scale, note=f"min(u - phi) at r={sol.r[i_min]:.6g}",
    )
