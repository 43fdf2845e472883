"""One pass of a simulation workload in a fresh interpreter.

    python3 perfbench/simpass.py --workload figures --seed 0 [--trace]
    python3 perfbench/simpass.py --setup-only
    python3 perfbench/simpass.py --build

The pass sets up (imports ``repro``, loads the C kernel, builds the
first machine), prints ``ready`` so the caller can time the set-up from
process start, then measures every point of the workload's plan one at
a time through ``run_plan`` with no result cache, checks each result,
and prints one JSON report line.  ``--setup-only`` stops after
``ready``; ``--build`` only makes sure the C kernel compiles and loads.
Exit code 3 means the C kernel is not available.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

#: cache levels whose intensity Measurement guards
LEVELS = ("L1", "L2", "L3", "DRAM")
NO_CKERNEL = 3


def import_repro() -> dict:
    """Import ``repro`` from this checkout and load the C kernel; the
    set-up facts and timings.  Exits with :data:`NO_CKERNEL` when the
    kernel does not load, since the Python fallback datapath is about
    10x slower and its numbers are not comparable."""
    start = time.perf_counter()
    import repro
    imported = time.perf_counter()
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"imported repro from {repro.__file__}, not this checkout")
    from repro.engine import ckernel
    from repro.sweep.cache import VERSION_SALT

    loaded = ckernel.lib() is not None
    done = time.perf_counter()
    if not loaded:
        print("error: the compiled datapath kernel did not load",
              file=sys.stderr)
        sys.exit(NO_CKERNEL)
    with open(os.path.join(ROOT, "src", "repro", "engine", "_ckernel.c"),
              "rb") as handle:
        source = handle.read()
    return {
        "import_s": imported - start,
        "ckernel_s": done - imported,
        "ckernel_loaded": loaded,
        "ckernel_sha": hashlib.sha256(source).hexdigest()[:16],
        "version_salt": VERSION_SALT,
    }


def check(measurement) -> None:
    """Raise MeasurementError unless the result passes Measurement's
    own guards and counted work is at least the exact work."""
    from repro.errors import MeasurementError

    measurement.intensity
    for level in LEVELS:
        measurement.level_intensity(level)
    if measurement.work_flops < measurement.true_flops:
        raise MeasurementError(
            f"{measurement.kernel}: counted W {measurement.work_flops} "
            f"below exact W {measurement.true_flops}")


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def run_points(plan) -> dict:
    """Measure every point; count failures; digest the results."""
    from repro.errors import ReproError
    from repro.sweep.executor import run_plan
    from repro.sweep.plan import SweepPlan
    from repro.sweep.serialize import measurement_to_payload

    digest = hashlib.sha256()
    failures = []
    point_ns = []
    start = time.perf_counter_ns()
    for point in plan:
        point_start = time.perf_counter_ns()
        measurement = None
        try:
            measurement = run_plan(SweepPlan([point]),
                                   cache=None, jobs=1).measurements[0]
            digest.update(canonical(measurement_to_payload(measurement))
                          .encode() + b"\n")
            check(measurement)
        except ReproError as exc:
            failures.append(f"{point.label()}: {exc}")
            if measurement is None:
                digest.update(f"raised {type(exc).__name__}\n".encode())
        point_ns.append(time.perf_counter_ns() - point_start)
    wall_ns = time.perf_counter_ns() - start
    return {"wall_ns": wall_ns, "point_ns": point_ns,
            "attempted": len(plan.points), "failures": failures,
            "digest": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("figures", "irregular"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--build", action="store_true")
    args = parser.parse_args(argv)

    facts = import_repro()
    if args.build:
        return 0
    from repro.machine.ref import MachineRef
    from workloads import PRESET, SCALES

    start = time.perf_counter()
    MachineRef.of(PRESET, scale=SCALES[args.workload or "figures"]).build()
    facts["first_build_s"] = time.perf_counter() - start
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup": facts}), flush=True)
        return 0

    from workloads import PLANS
    plan = PLANS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    try:
        result = run_points(plan)
    finally:
        if tracer is not None:
            tracer.close()
    result["setup"] = facts
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from tracer import layer_metrics, self_time_ledger
        spans, tally, top_ns = tracer.totals()
        result["layers"] = layer_metrics(spans, tally, result["wall_ns"],
                                         top_ns)
        result["ledger"] = self_time_ledger(spans, result["wall_ns"],
                                            top_ns)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
