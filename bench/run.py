"""plap benchmark: seeded shooting sweeps, annulus BVP solves, cold verify boards.

Usage (from the repository root):

    python3 bench/run.py --workload sweep|bvp|board --seed N --seconds S --trace 0|1

Load is one single-threaded client in a closed loop: the next call starts
when the previous one returns, as for a user waiting on ``plap sweep``,
``plap bvp`` or ``plap verify``.  The library is imported from ``src/`` of
the checkout the script sits in; the BLAS and OpenMP pools are pinned to one
thread.

A call is one ``shooting.sweep_outcomes`` line (``sweep``), one annulus solve
(``bvp``) or one whole board (``board``).  The seed draws the deck of inputs;
the board's inputs are fixed by ``verify`` itself.  A run makes full passes
over the deck, at least one, and as many as fit in ``--seconds``.  Each pass
runs in a fresh interpreter (``worker.py``) that builds its own inputs, so
every call is cold.  Every output is graded by an oracle the library does not
use: the theory's outcome label for each shot, the closed-form p-harmonic
profile for each completed solve, the expected PASS/FAIL pattern for the
board (criterion 9 fails by design).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

    setup_s       median wall time of eleven fresh interpreters (five before
                  the passes, six after) from start until ``import plap.cli``
                  returns; one start-up varies by half from the next on a
                  shared host, so it takes that many
    ok_share      graded-correct outputs (points, solves, passing criteria)
                  over outputs, on the first pass
    peak_rss_mb   peak resident memory of the pass processes

The lines before it print, under the workload's own names, the outputs that
failed and the call times.  Call times are each input's median over the
passes: ``call.ops_per_s`` is graded-correct outputs of a pass over the sum
of the inputs' call times (failed calls count in the time, not in the
outputs), ``call.p50_s`` the median over the inputs (for ``board``, the
cold board itself), ``call.tail_s`` the highest multiple-of-5 percentile
with at least ten inputs beyond it, or the slowest input where no percentile
has that many.

Call times are not end-to-end metrics, because they are not steady enough to
gate a change on a shared host: there the same fixed work (a cold board, or
the interpreter start-up of ``setup_s``) runs up to half again as slow for
minutes at a time, when neighbours load the machine.  ``--trace 1`` reports
them with the per-layer metrics, which carry no bound.

With ``--trace 1`` the last line reports the per-layer metrics, from passes
with probes installed (``tracing.py``) that alternate with plain passes; the
plain passes give the call times and ``trace.overhead_share``.

``correct`` is false when a repeated input gave a different output or a
board's PASS/FAIL pattern was not 11 PASS with criterion 9 FAIL.  Outputs an
oracle rejects are counted in ``failed``, so that known defects stay
measurable.  ``attempted`` and ``failed`` count the deck once, from the first
pass: later passes repeat the same inputs, must give the same outputs, and
serve only the call times.  So both counts depend on the seed alone, not on
how many passes fit in ``--seconds``.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from board_load import pattern_ok

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("sweep", "bvp", "board")
SETUP_REPEATS = (5, 6)  # interpreters timed before and after the passes
MIN_PASSES = 1
RUN_CAP_S = 100.0  # no further pass starts after this, so a run ends within 180 s
TAIL_BEYOND = 10
PASS_TIMEOUT_S = 150


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                             "NUMEXPR_NUM_THREADS"), "1")
    return dict(os.environ, PYTHONPATH=str(SRC), **threads)


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters from start until ``import plap.cli`` returns.

    The child reads the clock itself once the import returns: the system-wide
    monotonic clock, the parent's too.  Timing the child's exit instead would
    add its teardown and the 50 ms polling step of a wait with a timeout.
    """
    cmd = [sys.executable, "-c", "import plap.cli, time; print(time.monotonic())"]
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        times.append(float(proc.stdout) - t0)
    return times


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, traced: bool):
    """Plain passes (each followed by a probed one if ``traced``) while they fit in ``seconds``."""
    plain, probed = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(plain)
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds or elapsed > RUN_CAP_S:
            return plain, probed
        plain.append(run_pass(workload, seed, traced=False))
        if traced:
            probed.append(run_pass(workload, seed, traced=True))


class Tally:
    """Outputs graded over the passes.

    ``correct`` turns false when an input gives a different output in another
    pass, or when a board's PASS/FAIL pattern is not the expected one.  The
    counts are of the first pass, whose outputs every later pass repeats.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.unit = ""             # what one output is: points, solves, criteria
        self.first = None          # graded outputs per input, first pass
        self.correct = True

    def add(self, rec: dict) -> None:
        self.unit = rec["unit"]
        graded = [inp["graded"] for inp in rec["inputs"]]
        prints = [[g[2] for g in gs] for gs in graded]
        if self.first is None:
            self.first = graded
        else:
            self.correct &= prints == [[g[2] for g in gs] for gs in self.first]
        if self.workload == "board":
            self.correct &= all(pattern_ok(gs) for gs in graded)

    @property
    def verdicts(self) -> list[tuple[str, str]]:
        """Verdict and detail per output of the first pass."""
        return [(verdict, detail) for gs in self.first for verdict, detail, _ in gs]

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return self.attempted - self.count("ok")

    def count(self, verdict: str) -> int:
        return sum(v == verdict for v, _ in self.verdicts)

    def report_failures(self) -> None:
        for verdict, detail in self.verdicts:
            if verdict != "ok":
                print(f"{self.workload} {verdict}: {detail}", file=sys.stderr)


def tally_passes(workload: str, recs: list[dict]) -> Tally:
    tally = Tally(workload)
    for rec in recs:
        tally.add(rec)
    return tally


def pass_wall(rec: dict) -> float:
    return sum(inp["seconds"] for inp in rec["inputs"])


def tail(times: list[float]) -> tuple[float, str]:
    """The highest multiple-of-5 percentile with TAIL_BEYOND samples beyond it, else the max."""
    n = len(times)
    for pct in range(95, 0, -5):
        if n * (100 - pct) / 100 >= TAIL_BEYOND:
            return statistics.quantiles(times, n=100, method="inclusive")[pct - 1], f"p{pct} of {n}"
    return max(times), f"max of {n}"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def call_times(plain: list[dict]) -> list[float]:
    """Each input's median call seconds over the plain passes."""
    per_input = zip(*([inp["seconds"] for inp in rec["inputs"]] for rec in plain))
    return [statistics.median(ts) for ts in per_input]


def timing_values(tally: Tally, call_s: list[float]) -> dict:
    return {
        "call.ops_per_s": tally.count("ok") / sum(call_s),
        "call.p50_s": statistics.median(call_s),
        "call.tail_s": tail(call_s)[0],
    }


def end_to_end(workload: str, seed: int, seconds: float):
    setup = measure_setup(SETUP_REPEATS[0])
    plain, _ = run_passes(workload, seed, seconds, traced=False)
    setup += measure_setup(SETUP_REPEATS[1])
    tally = tally_passes(workload, plain)
    values = {
        "setup_s": statistics.median(setup),
        "ok_share": tally.count("ok") / len(tally.verdicts),
        "peak_rss_mb": max(rec["maxrss_kb"] for rec in plain) / 1024.0,
    }
    call_s = call_times(plain)
    print_summary(workload, tally, values | timing_values(tally, call_s), call_s, len(plain))
    return tally, values


def per_layer(workload: str, seed: int, seconds: float):
    plain, probed = run_passes(workload, seed, seconds, traced=True)
    tally = tally_passes(workload, plain + probed)
    values = {name: statistics.median(rec["layers"][name] for rec in probed)
              for name in probed[0]["layers"]}
    for name in sorted({a for rec in probed for a in rec["absent"]}):
        print(f"probe target absent: {name}", file=sys.stderr)
    values.update(timing_values(tally, call_times(plain)))
    values.update({
        "sweep.wrong_labels": tally.count("wrong") if workload == "sweep" else 0,
        "sweep.indeterminate": tally.count("indeterminate"),
        "bvp.check_failed": tally.count("wrong") if workload == "bvp" else 0,
        "calls.errors": tally.count("error"),
        "src.lines": src_lines(),
        "trace.overhead_share": sum(map(pass_wall, probed)) / sum(map(pass_wall, plain)) - 1.0,
    })
    return tally, values


def print_summary(workload, tally, values, call_s, passes) -> None:
    """Human-readable lines, with the workload's own names, before the JSON line."""
    n = len(call_s)
    tail_note = tail(call_s)[1]
    failed = 1.0 - values["ok_share"]
    outputs = f"of {len(tally.verdicts)} {tally.unit}"
    rows = {
        "sweep": [
            ("sweep.points_per_s", values["call.ops_per_s"], "1/s", "correctly labelled points"),
            ("sweep.sweep_p50_s", values["call.p50_s"], "s", f"median of {n} lines"),
            ("sweep.sweep_tail_s", values["call.tail_s"], "s", tail_note),
            ("sweep.failed_share", failed, "share", outputs),
            ("sweep.wrong_labels", tally.count("wrong"), "count", "labels the theory rules out"),
            ("sweep.indeterminate", tally.count("indeterminate"), "count", ""),
        ],
        "bvp": [
            ("bvp.solves_per_s", values["call.ops_per_s"], "1/s", "completed and checked solves"),
            ("bvp.solve_p50_ms", 1e3 * values["call.p50_s"], "ms", f"median of {n} solves"),
            ("bvp.solve_tail_ms", 1e3 * values["call.tail_s"], "ms", tail_note),
            ("bvp.failed_share", failed, "share", outputs),
            ("bvp.diverged", tally.count("diverged"), "count", "NewtonDivergence"),
            ("bvp.check_failed", tally.count("wrong"), "count", "completed, oracle check failed"),
        ],
        "board": [
            ("board.wall_s", values["call.p50_s"], "s", "one cold board"),
            ("board.failed_share", failed, "share", outputs),
        ],
    }[workload]
    rows += [(f"{workload}.peak_rss_mb", values["peak_rss_mb"], "MB", ""),
             ("setup_s", values["setup_s"], "s", f"median of {sum(SETUP_REPEATS)} interpreters")]
    print(f"call times: each input's median over {passes} cold passes")
    for name, val, unit, note in rows:
        print(f"{name:22s} {val:>14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "plap" / "__init__.py").is_file():
        die(f"no plap sources under {SRC}; run from a checkout of the repository")
    spec = json.loads(SPEC.read_text())

    if args.trace:
        tally, values = per_layer(args.workload, args.seed, args.seconds)
        listed = spec["per_layer"]
    else:
        tally, values = end_to_end(args.workload, args.seed, args.seconds)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    tally.report_failures()
    print(json.dumps({"correct": bool(tally.correct), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
