"""The repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload figures|irregular|service \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it give the host facts,
the result digest, every failed operation, and the metric tables.  See
``perfbench/README.md`` for the workloads and what each metric means.

Everything the benchmark writes goes under ``.bench_build/`` in the
checkout, including the compiled datapath kernel.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench")
#: scratch directory for the C compiler, which would otherwise use /tmp
TMP = os.path.join(BUILD, "tmp")
SIMPASS = os.path.join(HERE, "simpass.py")
LAUNCHER = os.path.join(HERE, "serve_launcher.py")

#: fewest passes of a simulation workload per run: two give the digest
#: a second run of the same seed to agree with
MIN_PASSES = 2
#: extra set-ups measured per run, besides each pass's own
SETUP_ONLY = 3
#: servers per untraced service run, each set up and then serving one
#: of the seed's request streams for an equal share of the run
SERVICE_WINDOWS = 3
#: the service's fixed work, timed as its wall_s: about three quarters
#: of a window on a 2-vCPU host, so the time covers some 47 writes.
#: Every window completes at least this many requests, so a run's p99
#: has at least 45 samples beyond it
WALL_REQUESTS = 1500
#: no run may take longer than this, whatever --seconds asks
RUN_LIMIT_S = 170.0
REQUEST_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_p99_ms": "ms",
    "req_per_s": "1/s", "success_rate": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        remaining = self.end - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        return remaining


def child_env() -> dict:
    env = dict(os.environ)
    env["REPRO_CKERNEL_CACHE"] = os.path.join(BUILD, "ckernel")
    env["TMPDIR"] = TMP
    return env


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# simulation workloads: figures, irregular
# ----------------------------------------------------------------------
def spawn_pass(flags, deadline: Deadline):
    """Run simpass.py; ``(set-up seconds, report)`` where set-up runs
    from process start to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, SIMPASS, *flags], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    # communicate() would skip what readline() has already buffered, so
    # read to the end and let a timer kill a pass that overruns
    watchdog = threading.Timer(deadline.left(), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"simpass {flags} exited {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def run_simulation(args, deadline: Deadline) -> dict:
    flags = ["--workload", args.workload, "--seed", str(args.seed)]
    passes = []
    setups = []
    start = time.perf_counter()
    # another pass only if one like the last will end within --seconds
    while (len(passes) < MIN_PASSES
           or 2 * time.perf_counter() - start - pass_start < args.seconds):
        pass_start = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        setup_s, report = spawn_pass(flags + ["--trace"] * traced, deadline)
        report["traced"] = traced
        setups.append(setup_s)
        passes.append(report)
    if not args.trace:
        for _ in range(SETUP_ONLY):
            setups.append(spawn_pass(["--setup-only", *flags[:2]],
                                     deadline)[0])

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digests = {p["digest"] for p in passes}
    # one latency sample per point: its median over the untraced passes
    points = [median(times) / 1e6
              for times in zip(*(p["point_ns"] for p in plain))]
    walls = [p["wall_ns"] / 1e9 for p in plain]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    plain_failed = sum(len(p["failures"]) for p in plain)
    plain_attempted = sum(p["attempted"] for p in plain)
    result = {
        "raw": {"setup_s": setups,
                "pass_point_ns": [p["point_ns"] for p in plain]},
        "attempted": attempted,
        "failures": failures,
        "correct": len(digests) == 1,
        "digest": passes[0]["digest"],
        "digest_note": f"over {len(passes)} passes, "
                       f"{'identical' if len(digests) == 1 else 'DIFFERENT'}",
        "facts": passes[0]["setup"],
        "samples": {"setup_s": len(setups), "wall_s": len(walls),
                    "req_p50_ms": len(points), "req_p99_ms": len(points),
                    "req_per_s": len(walls), "success_rate": plain_attempted,
                    "peak_rss_mb": len(plain)},
        "end_to_end": {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "req_p50_ms": median(points),
            "req_p99_ms": statistics.quantiles(
                points, n=100, method="inclusive")[98],
            "req_per_s": median([p["attempted"] / (p["wall_ns"] / 1e9)
                                 for p in plain]),
            "success_rate": 1 - plain_failed / plain_attempted,
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        },
    }
    if traced:
        layers = {name: median([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]}
        for name in ("import_s", "ckernel_s"):
            layers["setup." + name] = median([p["setup"][name]
                                              for p in traced])
        layers["trace.overhead"] = (
            median([p["wall_ns"] for p in traced])
            / median([p["wall_ns"] for p in plain]) - 1)
        result["layers"] = layers
        result["ledger"] = traced[-1]["ledger"]
    return result


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def http_call(port, method, path, doc=None, timeout=REQUEST_TIMEOUT_S):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if doc is None else json.dumps(doc)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def post(port, kind, params):
    """``(status, body)`` of one request, or ``(None, error)`` when it
    got no reply."""
    try:
        return http_call(port, "POST", "/" + kind, params)
    except (OSError, http.client.HTTPException) as exc:
        return None, f"{type(exc).__name__}: {exc}"


class Server:
    """One ``repro serve`` process, started through the launcher and
    set up: listening, healthy, and with the ERT ceilings cached."""

    def __init__(self, tag: str, traced: bool, deadline: Deadline) -> None:
        self.dir = os.path.join(WORK, f"serve-{tag}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.report_path = os.path.join(self.dir, "report.json")
        log_path = os.path.join(self.dir, "stderr.log")
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, LAUNCHER,
                 "--cache-dir", os.path.join(self.dir, "cache"),
                 "--threads", str(os.cpu_count() or 1),
                 "--report", self.report_path] + ["--trace"] * traced,
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=log)
        try:
            self.port = self._wait_port(log_path, deadline)
            while not self._healthy():
                deadline.left()
                time.sleep(0.01)
            from workloads import RequestSequence
            kind, params = RequestSequence.warmup()
            status, body = http_call(self.port, "POST", "/" + kind, params)
            if status != 200:
                raise BenchError(f"ERT warm-up answered {status}: {body!r}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _healthy(self) -> bool:
        try:
            return http_call(self.port, "GET", "/healthz")[0] == 200
        except OSError:
            return False

    def _wait_port(self, log_path: str, deadline: Deadline) -> int:
        marker = "listening on http://"
        while True:
            with open(log_path, encoding="utf-8") as log:
                for line in log:
                    if marker in line:
                        address = line.split(marker)[1].split()[0]
                        return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode} "
                                 f"before listening")
            deadline.left()
            time.sleep(0.01)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def stop(self) -> dict:
        """Drain the server (SIGTERM) and return the launcher's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise BenchError(f"server exited {self.proc.returncode}")
        with open(self.report_path, encoding="utf-8") as handle:
            return json.load(handle)


def response_result(kind: str, params: dict, status: int, body: bytes):
    """The replay-invariant part of a 200 reply, or an error string.

    ``/measure`` replies also carry run statistics (hits, elapsed time)
    and the backend name, which differ between the simulating reply and
    the replays; they are left out."""
    import simpass
    from repro.errors import ReproError
    from repro.sweep.serialize import payload_to_measurement

    if status is None:
        return None, body
    if status != 200:
        return None, f"HTTP {status}: {body[:200]!r}"
    try:
        doc = json.loads(body)
        result = doc["result"]
        if doc["status"] != "done":
            return None, f"job {doc['status']}"
        if kind == "measure":
            simpass.check(payload_to_measurement(result["measurement"]))
            result = {"machine": result["machine"],
                      "measurement": result["measurement"]}
        elif (result["kernel"] != params["kernel"]
              or result["sizes"] != params["sizes"]
              or len(result["measurements"]) != len(params["sizes"])):
            return None, "analyze reply is for another request"
    except (ValueError, KeyError, TypeError, ReproError) as exc:
        return None, f"bad body: {type(exc).__name__}: {exc}"
    return simpass.canonical(result), None


def closed_loop(port: int, seed: int, stream: int, seconds: float,
                deadline: Deadline) -> dict:
    """Serve stream ``stream`` of the seed for ``seconds``: its primer
    one request at a time, then, with the clock running, ``nproc``
    clients, each sending its next request only after its previous
    reply arrived.  Replies are checked after the clients stop, so that
    checking them takes no client time inside the loop."""
    from workloads import RequestSequence

    began = time.perf_counter()
    sequence = RequestSequence(seed, stream)
    primer = []
    for kind, params in sequence.primer():
        deadline.left()
        primer.append((kind, params, *post(port, kind, params)))
    lock = threading.Lock()
    replies = []        # (kind, params, status, body or error), in order
    latencies = []
    done_at = []
    errors = []
    start = time.perf_counter()

    def client() -> None:
        try:
            while True:
                with lock:
                    elapsed = time.perf_counter() - began
                    if elapsed >= seconds and len(latencies) >= WALL_REQUESTS:
                        return
                    deadline.left()
                    kind, params = sequence.next()
                sent = time.perf_counter()
                status, body = post(port, kind, params)
                now = time.perf_counter()
                with lock:
                    latencies.append(now - sent)
                    done_at.append(now - start)
                    replies.append((kind, params, status, body))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    clients = [threading.Thread(target=client)
               for _ in range(os.cpu_count() or 1)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    if errors:
        raise errors[0]

    first = {}          # request key -> canonical result of first reply
    failures = []
    for kind, params, status, body in primer + replies:
        key = json.dumps([kind, params], sort_keys=True)
        result, error = response_result(kind, params, status, body)
        if result is not None and first.setdefault(key, result) != result:
            error = "reply differs from the first reply"
        if error is not None:
            failures.append(f"{kind} {params}: {error}")
    digest = hashlib.sha256()
    for kind, params, _, _ in primer:
        key = json.dumps([kind, params], sort_keys=True)
        digest.update(first.get(key, "missing").encode() + b"\n")
    done_at.sort()
    return {
        "attempted": len(primer) + len(replies),
        "latencies_ms": [s * 1e3 for s in latencies],
        "wall_s": done_at[WALL_REQUESTS - 1],
        "req_per_s": len(done_at) / done_at[-1],
        "failures": failures,
        "digest": digest.hexdigest(),
        "digest_complete": all(
            json.dumps([kind, params], sort_keys=True) in first
            for kind, params, _, _ in primer),
    }


def run_service(args, deadline: Deadline) -> dict:
    """Serve the seed's request streams on fresh servers, one window
    each: untraced, SERVICE_WINDOWS of them, each its own stream;
    traced, stream 0 untraced and then traced.  Every window must give
    the same digest."""
    from workloads import RequestSequence

    traces = (False, True) if args.trace else (False,) * SERVICE_WINDOWS
    servers = []
    windows = []
    reports = []
    try:
        for index, traced in enumerate(traces):
            servers.append(Server(str(index), traced, deadline))
            stream = 0 if args.trace else index
            windows.append(closed_loop(servers[-1].port, args.seed, stream,
                                       args.seconds / len(traces),
                                       deadline))
            reports.append(servers[-1].stop())
    finally:
        for server in servers:
            server.kill()

    latencies = [ms for w in windows for ms in w["latencies_ms"]]
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(len(w["failures"]) for w in windows)
    digests = {w["digest"] for w in windows}
    result = {
        "raw": {"setup_s": [s.setup_s for s in servers],
                "window_latencies_ms": [w["latencies_ms"] for w in windows],
                "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
                "wall_s": [w["wall_s"] for w in windows],
                "req_per_s": [w["req_per_s"] for w in windows]},
        "attempted": attempted,
        "failures": [f for w in windows for f in w["failures"]],
        "correct": (all(w["digest_complete"] for w in windows)
                    and len(digests) == 1),
        "digest": windows[0]["digest"],
        "digest_note": f"over the {2 * RequestSequence.PRIMER} primer "
                       f"writes, {'identical' if len(digests) == 1 else 'DIFFERENT'}"
                       f" on {len(traces)} servers",
        "facts": reports[-1]["setup"],
        "samples": {"setup_s": len(servers), "wall_s": len(windows),
                    "req_p50_ms": len(latencies),
                    "req_p99_ms": len(latencies),
                    "req_per_s": len(windows),
                    "success_rate": attempted,
                    "peak_rss_mb": len(reports)},
        "end_to_end": {
            "setup_s": median([s.setup_s for s in servers]),
            "wall_s": median([w["wall_s"] for w in windows]),
            "req_p50_ms": median(latencies),
            "req_p99_ms": statistics.quantiles(
                latencies, n=100, method="inclusive")[98],
            "req_per_s": median([w["req_per_s"] for w in windows]),
            "success_rate": 1 - failed / attempted,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
        },
    }
    if args.trace:
        report = reports[-1]
        layers = dict(report["layers"])
        layers["setup.import_s"] = report["setup"]["import_s"]
        layers["setup.ckernel_s"] = report["setup"]["ckernel_s"]
        layers["trace.overhead"] = (windows[0]["req_per_s"]
                                    / windows[1]["req_per_s"] - 1)
        result["layers"] = layers
        result["ledger"] = report["ledger"]
    return result


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def host_facts(args, facts: dict) -> dict:
    from workloads import PRESET, SCALES
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ckernel_loaded": facts["ckernel_loaded"],
        "ckernel_sha": facts["ckernel_sha"],
        "version_salt": facts["version_salt"],
        "preset": PRESET,
        "scale": SCALES[args.workload],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_report(args, result: dict, metrics: dict) -> None:
    failed = len(result["failures"])
    print("host " + json.dumps(host_facts(args, result["facts"])))
    print(f"digest {result['digest']} ({result['digest_note']})")
    for failure in result["failures"]:
        print(f"failed: {failure}")
    print(f"error_rate {failed / result['attempted']:.4f} "
          f"({failed}/{result['attempted']} operations)")
    if args.trace:
        print(f"{'layer metric':32} {'value':>16}  unit")
        for name, value in metrics.items():
            print(f"{name:32} {value['value']:16.6g}  {value['unit']}")
        print(f"{'self time':32} {'seconds':>16}  share")
        for name, seconds, share in sorted(result["ledger"],
                                           key=lambda row: -row[1]):
            print(f"{name:32} {seconds:16.4f}  {share:.3f}")
    else:
        print(f"{'metric':14} {'value':>14}  {'unit':6} samples")
        for name, value in metrics.items():
            print(f"{name:14} {value['value']:14.6g}  {value['unit']:6} "
                  f"{result['samples'][name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "irregular", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    deadline = Deadline(RUN_LIMIT_S)
    try:
        build = subprocess.run([sys.executable, SIMPASS, "--build"],
                               cwd=ROOT, env=child_env(),
                               timeout=deadline.left())
        if build.returncode != 0:
            print("error: cannot build or load the compiled datapath "
                  "kernel; refusing to measure the Python fallback",
                  file=sys.stderr)
            return build.returncode
        runner = run_service if args.workload == "service" \
            else run_simulation
        result = runner(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    from tracer import LAYER_UNITS
    if args.trace:
        metrics = {name: {"value": result["layers"][name],
                          "unit": LAYER_UNITS[name]}
                   for name in LAYER_UNITS}
    else:
        metrics = {name: {"value": result["end_to_end"][name],
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print_report(args, result, metrics)
    record = {"host": host_facts(args, result["facts"]),
              "digest": result["digest"], "failures": result["failures"],
              "metrics": metrics, "raw": result["raw"]}
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": len(result["failures"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
