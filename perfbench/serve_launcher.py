"""Run ``repro serve`` from this checkout, optionally traced.

    python3 perfbench/serve_launcher.py --cache-dir DIR --threads N \\
        --report FILE [--trace]

Serves with serial jobs on an ephemeral port (the CLI prints it on
stderr) until SIGTERM drains it, then writes a JSON report to FILE:
the process's peak RSS and, with ``--trace``, the per-layer metrics of
the server's whole life from the moment the wrappers went in.  Traced
spans use each thread's CPU clock; the event-loop thread's CPU time is
the front end's own (HTTP, JSON, asyncio) and is reported as
``serve.loop_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time

import simpass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    facts = simpass.import_repro()
    from repro.cli import main as repro_main

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(clock=time.thread_time_ns).install()
    cpu_start = time.process_time_ns()
    loop_start = time.thread_time_ns()
    try:
        status = repro_main(["serve", "--port", "0", "--jobs", "1",
                             "--threads", str(args.threads),
                             "--cache-dir", args.cache_dir])
    finally:
        if tracer is not None:
            tracer.close()
    loop_ns = time.thread_time_ns() - loop_start
    cpu_ns = time.process_time_ns() - cpu_start
    report = {
        "setup": facts,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracer import layer_metrics, self_time_ledger
        spans, tally, top_ns = tracer.totals(
            exclude_thread=threading.get_ident())
        attributed = min(loop_ns + top_ns, cpu_ns)
        layers = layer_metrics(spans, tally, cpu_ns, attributed)
        layers.update(tracer.service_latencies())
        layers["serve.loop_s"] = loop_ns / 1e9
        report["layers"] = layers
        report["ledger"] = ([("serve.loop", loop_ns / 1e9,
                              loop_ns / cpu_ns if cpu_ns else 0.0)]
                            + self_time_ledger(spans, cpu_ns, attributed))
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
