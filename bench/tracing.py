"""Spans and counters recorded from outside the library.

A probe replaces a public name in a plap module (or a third-party name that a
plap module imported into its own namespace, such as ``bvp.solve_banded``)
with a timing wrapper.  Calls made through that name are recorded as a span:
call count, total seconds and self seconds (total minus the time of probed
calls made inside it).  An optional observer reads the counters the call
already returns, such as ``IntegrationResult.n_steps`` or ``NewtonInfo``.

A probe whose target does not exist is recorded as absent and changes
nothing, so one benchmark file can measure a parent commit and a change that
removed or renamed the probed name.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

OUTCOME_LABELS = ("crosses_zero", "positive_decaying", "blows_up", "indeterminate")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def probe(self, owners, attr: str, name, observe=None) -> None:
        """Wrap ``owner.attr`` for every owner that has it.

        ``name`` is the span name, or a callable mapping the call's
        positional arguments to one.  ``observe(tracer, result, exc, args)``
        runs after each call, outside its span.
        """
        found = False
        for owner in owners:
            target = getattr(owner, attr, None)
            if target is None:
                continue
            found = True
            setattr(owner, attr, self._wrap(target, name, observe))
            self._undo.append((owner, attr, target))
        if not found:
            self.absent.add(attr if callable(name) else name)

    def _wrap(self, target, name, observe):
        @functools.wraps(target)
        def probed(*args, **kwargs):
            self._stack.append(0.0)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = target(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                span = name(args) if callable(name) else name
                self.calls[span] += 1
                self.total_s[span] += dt
                self.self_s[span] += dt - child
                if observe is not None:
                    observe(self, result, exc, args)

        return probed

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, target = self._undo.pop()
            setattr(owner, attr, target)


def _observe_integrate(tr: Tracer, res, exc, args) -> None:
    if res is None:
        return
    for counter, field in (("rk45.steps", "n_steps"), ("rk45.rejected", "n_rejected"),
                           ("rk45.fev", "n_fev")):
        value = getattr(res, field, None)
        if value is None:
            tr.absent.add(counter)
        else:
            tr.counts[counter] += int(value)


def _observe_sol(tr: Tracer, res, exc, args) -> None:
    if len(args) > 1:
        tr.counts["rk45.sol.points"] += int(np.size(args[1]))


def _observe_classify(tr: Tracer, outcome, exc, args) -> None:
    if outcome is not None:
        tr.counts[f"shooting.outcome.{outcome.kind.value}"] += 1


def _observe_bvp_solve(tr: Tracer, res, exc, args) -> None:
    if exc is not None:
        if type(exc).__name__ == "NewtonDivergence":
            tr.counts["bvp.diverged"] += 1
        return
    info = res[1]
    tr.counts["bvp.newton_iterations"] += int(info.iterations)
    tr.counts["bvp.levels_done"] += int(info.levels_done)


def install_layer_probes(tr: Tracer, plap_modules: dict) -> None:
    """Probe the layer boundaries named in the benchmark's per-layer metrics."""
    m = plap_modules
    rk45, shooting, bvp = m["rk45"], m["shooting"], m["bvp"]
    verify, radial_ops = m["verify"], m["radial_ops"]
    barriers, identities = m["barriers"], m["identities"]

    tr.probe([rk45], "integrate", "rk45.integrate", _observe_integrate)
    tr.probe([getattr(rk45, "IntegrationResult", None)], "sol", "rk45.sol", _observe_sol)
    tr.probe([shooting], "integrate_ivp", "shooting.integrate_ivp")
    tr.probe([shooting], "classify_outcome", "shooting.classify_outcome", _observe_classify)
    for fn in ("conservation_report", "pohozaev_residual", "scaling_covariance_report"):
        tr.probe([shooting], fn, f"shooting.{fn}")
    tr.probe([bvp], "solve_annulus_dirichlet_detailed", "bvp.solve", _observe_bvp_solve)
    tr.probe([bvp], "solve_banded", "bvp.banded_solve")
    tr.probe([bvp], "comparison_check", "bvp.comparison_check")
    tr.probe([verify], "run_one", lambda args: f"verify.c{int(args[0]):02d}")
    tr.probe([verify], "solve_ivp", "verify.oracle_dop853")
    # verify imports fd_agreement by name; probe both paths under one span.
    tr.probe([radial_ops, verify], "fd_agreement", "radial_ops.fd_agreement")
    tr.probe([barriers], "counterexample_residual_grid", "barriers.counterexample_residual_grid")
    tr.probe([identities], "moser_recursion_bound", "identities.moser_recursion_bound")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metric values (without the workload-level ones)."""
    c, s = tr.counts, tr.self_s
    steps, rejected, fev = c["rk45.steps"], c["rk45.rejected"], c["rk45.fev"]
    out = {
        "rk45.integrate.calls": tr.calls["rk45.integrate"],
        "rk45.integrate.self_s": s["rk45.integrate"],
        "rk45.steps": steps,
        "rk45.rejected": rejected,
        "rk45.fev": fev,
        "rk45.accept_ratio": steps / (steps + rejected) if steps + rejected else 0.0,
        "rk45.us_per_fev": 1e6 * s["rk45.integrate"] / fev if fev else 0.0,
        "rk45.sol.calls": tr.calls["rk45.sol"],
        "rk45.sol.points": c["rk45.sol.points"],
        "rk45.sol.self_s": s["rk45.sol"],
    }
    for fn in ("integrate_ivp", "classify_outcome", "conservation_report",
               "pohozaev_residual", "scaling_covariance_report"):
        out[f"shooting.{fn}.self_s"] = s[f"shooting.{fn}"]
    for label in OUTCOME_LABELS:
        out[f"shooting.outcome.{label}"] = c[f"shooting.outcome.{label}"]
    out.update({
        "bvp.solve.calls": tr.calls["bvp.solve"],
        "bvp.solve.self_s": s["bvp.solve"],
        "bvp.newton_iterations": c["bvp.newton_iterations"],
        "bvp.levels_done": c["bvp.levels_done"],
        "bvp.diverged": c["bvp.diverged"],
        "bvp.banded_solve.calls": tr.calls["bvp.banded_solve"],
        "bvp.banded_solve.self_s": s["bvp.banded_solve"],
        "bvp.comparison_check.self_s": s["bvp.comparison_check"],
    })
    for i in range(1, 13):
        out[f"verify.c{i:02d}_s"] = tr.total_s[f"verify.c{i:02d}"]
    out["verify.oracle_dop853.self_s"] = s["verify.oracle_dop853"]
    for span in ("radial_ops.fd_agreement", "barriers.counterexample_residual_grid",
                 "identities.moser_recursion_bound"):
        out[f"{span}.self_s"] = s[span]
    return out

