"""One pass over a workload's deck, in its own interpreter.

    python3 bench/worker.py --workload sweep|bvp|board --seed N [--trace]

Builds the deck from the seed, calls the library once on every input, in
order, and grades each output outside the timed call.  A fresh interpreter
per pass makes every call cold: nothing the library caches, or that a
change could cache, carries over from one pass to the next.

``run.py`` starts it with the BLAS and OpenMP pools pinned to one thread.
Prints one JSON line: per input its call seconds and graded outputs, and the
process's peak RSS; with ``--trace``, the per-layer metrics of the pass too.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from board_load import BoardLoad  # noqa: E402
from bvp_load import BvpLoad  # noqa: E402
from sweep_load import SweepLoad  # noqa: E402
from tracing import Tracer, install_layer_probes, layer_metrics  # noqa: E402

LOADS = {"sweep": SweepLoad, "bvp": BvpLoad, "board": BoardLoad}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(LOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import plap
    from plap import barriers, bvp, identities, radial_ops, rk45, shooting, verify

    load = LOADS[args.workload](args.seed, plap)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layer_probes(tracer, {
            "rk45": rk45, "shooting": shooting, "bvp": bvp, "verify": verify,
            "radial_ops": radial_ops, "barriers": barriers, "identities": identities,
        })
    inputs = []
    for i in range(len(load.deck)):
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = load.call(i)
        except Exception as err:  # graded as a failed output
            exc = err
        seconds = time.perf_counter() - t0
        inputs.append({"seconds": seconds, "graded": load.grade(i, result, exc)})
    out = {"unit": load.unit, "inputs": inputs,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer)
        out["absent"] = sorted(tracer.absent)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
