"""The ``bvp`` workload: seeded annulus Dirichlet solves.

One call is one ``bvp.solve_annulus_dirichlet_detailed(problem)``.  The deck
holds the 36-case grid on which the solver is known to diverge in 16 cases
(N = 3 on [1, 3], boundary values (1, 0.2), p in {3, 4, 5}, mesh 1024..8192,
constant f in {0.1, 0.5, 2}), then seeded annuli stratified over
p in {1.5, 2, 3, 4, 5}, mesh 256..8192, and load f = 0, constant, or smooth
with amplitude up to 2.  p = 2 is one linear step, so a change to the
nonlinear Newton loop has a case that bypasses it.

Each completed solve is checked against the closed-form p-harmonic phi with
the same boundary data (power mode, or log mode at p = N): for f = 0 the
solution must match phi, for f > 0 it must lie above phi (the comparison
principle).  The tolerance is the midpoint-flux discretization bound
(r2 - r1) h^2 max|phi'''| plus the 1e-6 that criterion 8 allows
for its closed-form solves.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np

P_VALUES = (1.5, 2.0, 3.0, 4.0, 5.0)
MESHES = (256, 512, 1024, 2048, 4096, 8192)
LOADS = ("zero", "constant", "smooth")
REPEATS = 2
GRID_P = (3.0, 4.0, 5.0)
GRID_MESH = (1024, 2048, 4096, 8192)
GRID_F = (0.1, 0.5, 2.0)


@dataclass(frozen=True)
class Annulus:
    n_dim: int
    p: float
    r1: float
    r2: float
    b1: float
    b2: float
    load: str
    amp: float
    omega: float
    mesh: int

    def rhs(self):
        if self.load == "zero":
            return None
        if self.load == "constant":
            return lambda r, a=self.amp: a
        return lambda r, a=self.amp, w=self.omega: a * (0.5 + 0.5 * math.sin(w * r) ** 2)

    def describe(self) -> str:
        return (f"N={self.n_dim} p={self.p:g} r=[{self.r1:.6g}, {self.r2:.6g}] "
                f"u=({self.b1:.6g}, {self.b2:.6g}) f={self.load}:{self.amp:.6g} "
                f"mesh={self.mesh}")


def make_deck(seed: int) -> list[Annulus]:
    """The grid, then REPEATS annuli per (p, mesh, load) cell.

    Within a cell the repeats take the bins of the load amplitude, N, the
    radius ratio and both boundary values through fixed Latin-square
    pairings; the seed draws every value inside its bin.  So each seed shows
    the same mix of easy, slow and diverging solves.
    """
    rng = random.Random(seed)

    def draw(k, lo, hi):
        """A uniform draw in bin k (mod REPEATS) of REPEATS equal bins of [lo, hi)."""
        return lo + (hi - lo) * (k % REPEATS + rng.random()) / REPEATS

    deck = [Annulus(3, p, 1.0, 3.0, 1.0, 0.2, "constant", f, 0.0, mesh)
            for p in GRID_P for mesh in GRID_MESH for f in GRID_F]
    for pi, p in enumerate(P_VALUES):
        for mi, mesh in enumerate(MESHES):
            for li, load in enumerate(LOADS):
                for rep in range(REPEATS):
                    r1 = rng.uniform(0.5, 2.0)
                    deck.append(Annulus(
                        n_dim=2 + (rep + mi + pi) % 5, p=p, r1=r1,
                        r2=r1 * draw(rep + li, 1.5, 4.0),
                        b1=draw(rep + mi, 0.0, 2.0), b2=draw(rep + 2 + li, 0.0, 2.0),
                        load=load, amp=0.0 if load == "zero" else draw(rep, 0.0, 2.0),
                        omega=rng.uniform(0.5, 4.0), mesh=mesh,
                    ))
    rng.shuffle(deck)
    return deck


def p_harmonic(a: Annulus):
    """(phi, max |phi'''| on [r1, r2]) with phi(r1) = b1, phi(r2) = b2."""
    if a.p == a.n_dim:
        base = np.log
        d3 = lambda r: 2.0 / r ** 3  # noqa: E731
    else:
        lam = (a.p - a.n_dim) / (a.p - 1.0)
        base = lambda r: np.asarray(r, dtype=float) ** lam  # noqa: E731
        d3 = lambda r: abs(lam * (lam - 1.0) * (lam - 2.0)) * r ** (lam - 3.0)  # noqa: E731
    c2 = (a.b2 - a.b1) / (base(a.r2) - base(a.r1))
    c1 = a.b1 - c2 * base(a.r1)
    # |phi'''| is a power (or 1/r^3), so its maximum sits at an endpoint
    return (lambda r: c1 + c2 * base(r)), abs(c2) * max(d3(a.r1), d3(a.r2))


def check(a: Annulus, r: np.ndarray, u: np.ndarray) -> tuple[bool, str]:
    phi, d3max = p_harmonic(a)
    h = (a.r2 - a.r1) / a.mesh
    tol = (a.r2 - a.r1) * h * h * d3max + 1e-6
    diff = u - phi(r)
    if a.load == "zero":
        err = float(np.max(np.abs(diff)))
        return err <= tol, f"max|u - phi| = {err:.3e} (tol {tol:.3e})"
    low = float(np.min(diff))
    return low >= -tol, f"min(u - phi) = {low:.3e} (tol {tol:.3e})"


class BvpLoad:
    """Solves deck annuli and checks each completed solve."""

    unit = "solves"

    def __init__(self, seed: int, plap):
        self.plap = plap
        self.deck = make_deck(seed)
        self.problems = [
            plap.bvp.AnnulusProblem(
                params=plap.ProblemParams(a.n_dim, a.p, max(a.p, 2.0)),
                r_inner=a.r1, r_outer=a.r2, boundary_inner=a.b1, boundary_outer=a.b2,
                rhs=a.rhs(), mesh_size=a.mesh,
            )
            for a in self.deck
        ]

    def call(self, i: int):
        """The timed operation: solve annulus i."""
        return self.plap.bvp.solve_annulus_dirichlet_detailed(self.problems[i])

    def grade(self, i: int, result, exc) -> list[tuple[str, str, tuple]]:
        a = self.deck[i]
        if exc is not None:
            verdict = "diverged" if isinstance(exc, self.plap.NewtonDivergence) else "error"
            return [(verdict, f"{a.describe()}: raised {type(exc).__name__}: {exc}",
                     (verdict,))]
        profile, info = result
        r, u = np.asarray(profile.r), np.asarray(profile.u)
        ok, detail = check(a, r, u)
        fingerprint = (hashlib.sha256(u.tobytes()).hexdigest(), info.iterations, info.levels_done)
        return [("ok" if ok else "wrong", f"{a.describe()}: {detail}", fingerprint)]
