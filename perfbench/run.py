#!/usr/bin/env python3
"""Repository benchmark: the detect and stream workloads.

    python3 perfbench/run.py --workload detect|stream --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first run configures and builds the
library, vgod_cli, vgod_serve and perfbench_probe into $CARGO_TARGET_DIR
(default .bench_build). Inputs are generated from --seed; the programs get
only the generated graph files, the bundle and the request bodies.

--trace 0 measures the end-to-end metrics. --trace 1 replays the same inputs
with tracing on (the compute profiler, a server's VGOD_ACCESS_LOG) and
times calls into each module from perfbench_probe; it reports the per-layer
metrics. The last stdout line is the JSON result; a run record with the
machine fingerprint and every load step lands in .bench_out/.
See perfbench/README.md for the metric definitions.
"""
import argparse
import hashlib
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Open-loop /score rate of the engine probe. Stream's equals its in-process
# read rate (perfbench_probe's kReadRps): 5400 nodes per Score call bound it.
PROBE_RPS = {"detect": 100.0, "stream": 10.0}
BATCH_EVENTS = 16
APPENDS = 6                # Node appends per head ingest batch.
SETUP_REPEATS = 5          # setup_s is the median of this many set-ups.
AUC_FLOOR = 0.85
DETECT_DATASETS = ["cora", "citeseer", "pubmed", "flickr"]

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MiB", "success_rate": "ratio",
    "p50_ms": "ms", "max_rate": "1/s", "read_p50_ms": "ms",
}
OVERHEAD_OF = ["peak_rss_mb", "success_rate", "p50_ms", "max_rate",
               "read_p50_ms"]
# Per-layer metric -> (unit, the end-to-end metric it should move).
PER_LAYER = {
    "http.score_overhead_p50_ms": ("ms", "none gated: /score over HTTP (score dropped)"),
    "http.ingest_overhead_p50_ms": ("ms", "none gated: /ingest over HTTP (ingest dropped)"),
    "engine.queue_wait_p50_ms": ("ms", "read_p50_ms on stream"),
    "engine.queue_wait_p99_ms": ("ms", "read_p50_ms on stream"),
    "engine.batch_assembly_p50_ms": ("ms", "read_p50_ms on stream"),
    "engine.score_p50_ms": ("ms", "read_p50_ms on stream"),
    "engine.score_p99_ms": ("ms", "read_p50_ms on stream"),
    "engine.requests_per_score_call": ("ratio", "read_p50_ms on stream"),
    "engine.shed": ("count", "none gated: HTTP admission (score, ingest dropped)"),
    "engine.ingest_p50_ms": ("ms", "p50_ms on stream"),
    "engine.ingest_p99_ms": ("ms", "max_rate on stream"),
    "detectors.vbm_fit_s": ("s", "p50_ms, max_rate on detect"),
    "detectors.arm_fit_s": ("s", "p50_ms, max_rate on detect"),
    "detectors.score_ms": ("ms", "read_p50_ms on detect and stream"),
    "tensor.matmul_gflops": ("GFLOP/s", "max_rate on detect; read_p50_ms on stream"),
    "tensor.matmul_nt_gflops": ("GFLOP/s", "max_rate on detect; read_p50_ms on stream"),
    "tensor.matmul_tn_gflops": ("GFLOP/s", "max_rate on detect; read_p50_ms on stream"),
    "tensor.matmul_flops_per_call": ("FLOP", "max_rate on detect"),
    "tensor.matmul_bytes_per_call": ("B", "max_rate on detect"),
    "gnn.meanconv_ms": ("ms", "max_rate on detect; read_p50_ms on stream"),
    "graph.spmm_ms": ("ms", "max_rate on detect; read_p50_ms on stream"),
    "graph.spmm_flops_per_call": ("FLOP", "max_rate on detect"),
    "graph.spmm_bytes_per_call": ("B", "max_rate on detect"),
    "stream.validate_us_per_event": ("us", "p50_ms, max_rate on stream"),
    "stream.apply_us_per_event": ("us", "p50_ms, max_rate on stream"),
    "stream.scorer_us_per_event": ("us", "p50_ms, max_rate on stream"),
    "stream.touched_per_event": ("count", "p50_ms, max_rate on stream"),
    "stream.snapshot_ms": ("ms", "p50_ms, max_rate on stream"),
    "stream.compact_ms": ("ms", "max_rate on stream"),
    "stream.compactions": ("count", "max_rate on stream"),
    "obs.drift_record_ns": ("ns", "none gated: paid per HTTP /score (score dropped)"),
    "profile.attributed_share": ("ratio", "none (trace completeness)"),
    "gen.lag_p99_ms": ("ms", "none (generator health)"),
    "trace.unattributed_share": ("ratio", "none (trace completeness)"),
    "trace.decomposition_violations": ("count", "none (must stay 0)"),
}
PER_LAYER.update({"overhead." + m: (END_TO_END[m], m + " (traced - untraced)")
                  for m in OVERHEAD_OF})


class BenchError(Exception):
    """A failed build, program error or correctness check: no result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run(cmd, env=None, timeout=600):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (
            os.path.basename(cmd[0]) + " " + cmd[1], proc.returncode,
            proc.stderr.strip()[-2000:]))
    return proc.stdout


def child_env(**extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("VGOD_NUM_THREADS", "VGOD_PROFILE", "VGOD_TRACE",
                        "VGOD_ACCESS_LOG", "VGOD_LOG_LEVEL")}
    env.update(extra)
    return env


def quantile(values, q):
    """Nearest-rank quantile, the same rule perfbench_probe uses."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = min(max(int(-(-q * len(values) // 1)), 1), len(values))
    return values[rank - 1]


# --- build ----------------------------------------------------------------

class Build:
    def __init__(self):
        if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
            raise BenchError("no vgod source tree next to perfbench/")
        self.dir = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        os.makedirs(self.dir, exist_ok=True)
        build_log = os.path.join(self.dir, "perfbench-build.log")
        with open(build_log, "w") as out:
            steps = []
            if not os.path.exists(os.path.join(self.dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                              "-B", self.dir, "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", self.dir, "-j",
                          str(nproc()), "--target", "perfbench_probe",
                          "vgod_cli", "vgod_serve_bin"])
            for step in steps:
                if subprocess.run(step, cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT).returncode:
                    raise BenchError("build failed, see " + build_log)
        self.probe = os.path.join(self.dir, "perfbench_probe")
        self.cli = os.path.join(self.dir, "vgod", "tools", "vgod_cli")
        self.serve = os.path.join(self.dir, "vgod", "tools", "vgod_serve")

    def cache(self, key):
        with open(os.path.join(self.dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
        return ""


def nproc():
    return len(os.sched_getaffinity(0))


# --- servers ----------------------------------------------------------------

class Server:
    """One vgod_serve process on an ephemeral port."""

    live = []

    def __init__(self, build, bundle, graph, out_dir, name, streaming=False,
                 access_log=None):
        cmd = [build.serve, "--bundle=" + bundle, "--graph=" + graph,
               "--port=0"] + (["--streaming"] if streaming else [])
        env = child_env(**({"VGOD_ACCESS_LOG": access_log}
                           if access_log else {}))
        self.stderr = open(os.path.join(out_dir, name + ".stderr"), "w")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr)
        Server.live.append(self)
        banner = []
        reader = threading.Thread(target=self._drain, args=(banner,),
                                  daemon=True)
        reader.start()
        deadline = time.time() + 60
        while not banner and time.time() < deadline:
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)",
                          banner[0] if banner else "")
        if not match:
            self.stop()
            raise BenchError("vgod_serve did not start (%s)" % name)
        self.port = int(match.group(1))
        while self.get("/healthz/ready")[0] != 200:
            if time.time() > deadline:
                self.stop()
                raise BenchError("vgod_serve never became ready")
            time.sleep(0.005)

    def _drain(self, banner):
        for line in self.proc.stdout:
            banner.append(line)

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def get(self, path):
        try:
            return self.request("GET", path)
        except (OSError, http.client.HTTPException):
            return 0, ""

    def gauges(self):
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise BenchError("/metrics returned %d" % status)
        return json.loads(body).get("gauges", {})

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()
        if self in Server.live:
            Server.live.remove(self)


# --- inputs -----------------------------------------------------------------

def read_graph(path):
    """Node count, undirected edge set and attribute tokens of a graph file."""
    with open(path) as f:
        header = f.readline().split()
        n, skip = int(header[1]), int(header[3]) + int(header[4])
        rows = [f.readline().split()[skip:] for _ in range(n)]
        assert f.readline().strip() == "edges"
        edges = set()
        for line in f:
            u, v = map(int, line.split())
            edges.add((min(u, v), max(u, v)))
    return n, edges, rows


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def score_bodies(path, n, rng, count=4096):
    """/score bodies asking for 1-4 uniform node ids each."""
    write_lines(path, [json.dumps({"nodes": [rng.randrange(n) for _ in
                                             range(rng.randint(1, 4))]})
                       for _ in range(count)])


def ingest_bodies(path, graph_path, rng, cycle=400):
    """/ingest batches of 16 events, written head first then a cycled pool.

    Each batch toggles four edges (one existing edge removed then restored,
    three absent ones added then removed; the two halves of a toggle
    alternate with attribute-row updates), so batches stay valid in any
    order and after any rejected batch. An update sets node v's row to the
    row of a node fixed by v, so repeats are idempotent. The head batches
    (applied once, first, and not measured) carry APPENDS node appends in
    place of as many updates, n/10 appends in all, which caps growth at ~10%
    and leaves the measured batches a stationary mix. Returns the head
    length.
    """
    n, edges, rows = read_graph(graph_path)
    edge_list = sorted(edges)

    def row(v):
        return "[" + ",".join(rows[(v * 7919 + 13) % n]) + "]"

    def batch(appends):
        events, pairs = [], set()
        while len(pairs) < 4:
            if not pairs:
                pair = edge_list[rng.randrange(len(edge_list))]
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                pair = (min(u, v), max(u, v))
                if u == v or pair in edges or pair in pairs:
                    continue
            pairs.add(pair)
            ops = ("remove_edge", "add_edge") if pair in edges else \
                ("add_edge", "remove_edge")
            for op in ops:
                events.append('{"op":"%s","u":%d,"v":%d}' % (op, *pair))
                v = rng.randrange(n)
                events.append('{"op":"update_attributes","node":%d,'
                              '"attributes":%s}' % (v, row(v)))
        for i in range(appends):
            events[2 * i + 1] = '{"op":"add_node","attributes":%s}' % row(
                rng.randrange(n))
        assert len(events) == BATCH_EVENTS
        return '{"events":[' + ",".join(events) + "]}"

    head = -(-max(n // 10, 1) // APPENDS)
    write_lines(path, [batch(APPENDS) for _ in range(head)] +
                [batch(0) for _ in range(cycle)])
    return head


class Inputs:
    """Generated graphs, bundle and request bodies for one workload."""

    def __init__(self, build, cfg, workload, seed, out_dir):
        self.build, self.cfg, self.dir = build, cfg, out_dir
        self.workload, self.seed = workload, seed
        self.graphs = []

    def generate(self, dataset, scale, name):
        path = os.path.join(self.dir, name + ".graph")
        run([self.build.cli, "generate", "--dataset=" + dataset,
             "--scale=%g" % scale, "--seed=%d" % self.seed,
             "--inject=standard", "--output=" + path])
        return path

    def setup(self):
        """What set-up time covers: generating the graphs and, for stream,
        training the bundle."""
        cfg = self.cfg
        if self.workload == "detect":
            self.graphs = [self.generate(d, cfg["scale"], d)
                           for d in DETECT_DATASETS]
            return
        train = self.generate("cora", cfg["scale"], "train")
        self.graphs = [train]
        self.resident = self.generate("cora", cfg["scale"] * 4, "resident")
        self.bundle = os.path.join(self.dir, "model.vgodb")
        run([self.build.cli, "detect", "--graph=" + train,
             "--detector=VGOD", "--num_threads=1", "--top=0",
             "--seed=%d" % self.seed, "--epoch-scale=%g" % cfg["epoch_scale"],
             "--save-bundle=" + self.bundle])

    def make_bodies(self):
        rng = random.Random(self.seed * 1000003 + 17)
        n = read_graph(self.resident)[0]
        self.score_bodies = os.path.join(self.dir, "score_bodies.txt")
        score_bodies(self.score_bodies, n, rng)
        self.ingest_bodies = os.path.join(self.dir, "ingest_bodies.txt")
        self.ingest_head = ingest_bodies(self.ingest_bodies, self.resident,
                                         rng)


# --- open loop ----------------------------------------------------------------

def load_step(build, server, bodies, rate, seconds, out_dir):
    """One open-loop /score step of perfbench_probe load at `rate` over
    nproc keep-alive connections. Returns its summary (sent, succeeded,
    failed, latency quantiles from due time, generator lag) and each
    request's record."""
    dump = os.path.join(out_dir, "load.tsv")
    step = json.loads(run([build.probe, "load", "--port=%d" % server.port,
                           "--bodies=" + bodies, "--rate=%.6f" % rate,
                           "--seconds=%g" % seconds, "--dump=" + dump],
                          timeout=seconds + 120))
    log("  load /score rate %.1f/s  sent %d ok %d failed %d  p50 %.2f ms  "
        "p99 %.2f ms  lag_p99 %.2f ms" % (
            step["rate"], step["sent"], step["succeeded"], step["failed"],
            step["p50_ms"], min(step["p99_ms"], 1e9), step["lag_p99_ms"]))
    records = []
    with open(dump) as f:
        for line in f:
            due, latency, rtt, status, request_id = line.split()
            records.append({"due_ms": float(due), "latency_ms": float(latency),
                            "rtt_ms": float(rtt), "status": int(status),
                            "request_id": int(request_id)})
    return step, records


# --- workloads ----------------------------------------------------------------

class Workload:
    def __init__(self, args, build, cfg, out_dir):
        self.args, self.build, self.cfg, self.dir = args, build, cfg, out_dir
        self.name, self.seed = args.workload, args.seed
        self.checks = []
        self.servers_started = 0
        self.attempted = self.failed = 0
        self.record = {"steps": []}

    def served_probe(self, seconds):
        """engine.* layers: a short open-loop /score run at the workload's
        probe rate against a server writing the access log, which records
        each request's StageTiming."""
        access_log = os.path.join(self.dir, "access.log")
        server = self.server(False, access_log)
        try:
            step, records = load_step(self.build, server,
                                      self.inputs.score_bodies,
                                      PROBE_RPS[self.name], seconds, self.dir)
            gauges = server.gauges()
        finally:
            server.stop()
        self.record["steps"].append(step)
        joined = join_access_log(access_log, records)
        layers = engine_layers([entry for _, entry in joined], gauges)
        layers["gen.lag_p99_ms"] = step["lag_p99_ms"]
        # Per request, the engine's stages must fit in the client's round
        # trip.
        violations = sum(1 for rec, entry in joined
                         if stage_sum_ms(entry) > rec["rtt_ms"])
        self.check("engine stages <= client latency", violations == 0,
                   "%d of %d requests" % (violations, len(joined)))
        layers["trace.decomposition_violations"] = violations
        return layers

    def check(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        log("  check %-34s %s %s" % (name, "ok" if ok else "FAILED", detail))

    def server(self, streaming, access_log=None):
        self.servers_started += 1
        if access_log and os.path.exists(access_log):
            os.remove(access_log)  # Request ids restart with each server.
        return Server(self.build, self.inputs.bundle, self.inputs.resident,
                      self.dir, "server%d" % self.servers_started,
                      streaming=streaming, access_log=access_log)

    def setup(self, repeats):
        """Sets up `repeats` times from scratch; returns the median time."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.inputs = Inputs(self.build, self.cfg, self.name, self.seed,
                                 self.dir)
            self.inputs.setup()
            times.append(time.perf_counter() - start)
        self.record["setup_s_each"] = times
        if self.name != "detect":
            self.inputs.make_bodies()  # Benchmark inputs, not program set-up.
        return statistics.median(times)


class DetectWorkload(Workload):
    """VGOD Fit + Score over four graphs, kernel pool pinned to width 1."""

    def detect(self, width, seconds, extra=()):
        out = run([self.build.probe, "detect",
                   "--graphs=" + ",".join(self.inputs.graphs),
                   "--width=%d" % width, "--seconds=%g" % seconds,
                   "--seed=%d" % self.seed,
                   "--epoch-scale=%g" % self.cfg["epoch_scale"]] + list(extra),
                  env=child_env(), timeout=900)
        return json.loads(out)

    def measure(self, seconds, extra=()):
        res = self.detect(1, seconds, extra)
        graphs, passes = len(res["nodes"]), res["passes"]
        # Each graph's median over the passes, summed over the graphs: the
        # host's noise on one fit does not carry into the others'. The probe
        # lists each graph's repeated Score calls in turn.
        detect_s = sum(statistics.median(p["fit_s"][g] + p["score_s"][g]
                                         for p in passes)
                       for g in range(graphs))
        rescores = len(passes[0]["rescore_s"]) // graphs
        read_ms = sum(statistics.median(
            t for p in passes
            for t in p["rescore_s"][g * rescores:(g + 1) * rescores])
            for g in range(graphs)) * 1e3
        attempted = len(passes) * graphs
        self.record.setdefault("detect_s_per_pass", []).append(
            [sum(p["fit_s"]) + sum(p["score_s"]) for p in passes])
        return res, {
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "success_rate": (attempted - res["failed"]) / float(attempted),
            "p50_ms": detect_s * 1e3,
            # Derived from p50_ms: every workload reports every metric.
            "max_rate": sum(res["nodes"]) / detect_s,
            "read_p50_ms": read_ms,
        }, attempted, detect_s

    def run(self, trace):
        setup_s = self.setup(SETUP_REPEATS)
        res, metrics, self.attempted, detect_s = self.measure(
            self.args.seconds)
        self.failed = int(res["failed"])
        log("  detect_s %.3f s over %d graphs (%s nodes), %d failed fits" % (
            detect_s, len(res["nodes"]), res["nodes"], self.failed))
        self.record["detect_s"] = detect_s
        wide = self.detect(4, 0)
        self.check("scores identical at widths 1 and 4",
                   wide["hashes"] == res["hashes"],
                   "%s vs %s" % (res["hashes"], wide["hashes"]))
        floor = self.cfg["auc_floor"]
        self.check("VGOD AUC >= %.2f" % floor,
                   min(res["auc"]) >= floor, str(res["auc"]))
        metrics["setup_s"] = setup_s
        if not trace:
            return metrics
        bundle = os.path.join(self.dir, "detect.vgodb")
        traced, t_metrics, _, _ = self.measure(
            self.args.seconds, ["--profile=" + os.path.join(
                self.dir, "profile.json"), "--save-bundle=" + bundle])
        layers = {"overhead." + m: t_metrics[m] - metrics[m]
                  for m in OVERHEAD_OF}
        layers["trace.unattributed_share"] = \
            1.0 - traced["profile_attributed_share"]
        # The serving layers run on the first detect graph and its model.
        self.inputs.bundle = bundle
        self.inputs.resident = self.inputs.graphs[0]
        self.inputs.make_bodies()
        layers.update(self.served_probe(self.cfg["probe_seconds"]))
        layers.update(layer_suite(self, self.inputs.graphs))
        return layers


class StreamWorkload(Workload):
    """The streaming engine in process: Ingest batches back to back on the
    caller's thread beside a second thread's ScoreNodes reads at 10 per
    second, kernel pool at width 1. No HTTP and no thread per request, so
    the host's scheduling noise reaches it less than it reaches a server."""

    def stream(self, extra=()):
        return json.loads(run([
            self.build.probe, "stream", "--bundle=" + self.inputs.bundle,
            "--graph=" + self.inputs.resident,
            "--ingest-bodies=" + self.inputs.ingest_bodies,
            "--ingest-head=%d" % self.inputs.ingest_head,
            "--score-bodies=" + self.inputs.score_bodies,
            "--seconds=%g" % self.args.seconds] + list(extra),
            env=child_env(), timeout=600))

    def measure(self, extra=()):
        res = self.stream(extra)
        attempted = int(res["batches"] + res["reads"] + res["failed"])
        log("  %d batches (%d events), %d reads, %d failed; ingest p50 %.3f "
            "p90 %.3f p99 %.3f ms; read p50 %.2f p90 %.2f ms; engine set-up "
            "%.3f s" % (
                res["batches"], res["events"], res["reads"], res["failed"],
                res["ingest_p50_ms"], res["ingest_p90_ms"],
                res["ingest_p99_ms"], res["read_p50_ms"], res["read_p90_ms"],
                res["engine_setup_s"]))
        self.record.setdefault("stream", []).append(res)
        return res, {
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "success_rate": (attempted - res["failed"]) / float(attempted),
            "p50_ms": res["ingest_p50_ms"],
            "max_rate": res["events"] / (res["ingest_total_ms"] / 1e3),
            "read_p50_ms": res["read_p50_ms"],
        }, attempted, int(res["failed"])

    def run(self, trace):
        setup_s = self.setup(SETUP_REPEATS)
        res, metrics, self.attempted, self.failed = self.measure()
        self.check("replayed scores == engine scores",
                   res["replay_mismatches"] == 0,
                   "%d mismatches" % res["replay_mismatches"])
        self.check("replayed store shape == engine",
                   res["replay_shape_ok"] == 1.0,
                   "%d nodes" % res["num_nodes"])
        self.check("engine stages <= ScoreNodes latency",
                   res["decomposition_violations"] == 0,
                   "%d of %d reads" % (res["decomposition_violations"],
                                       res["reads"]))
        metrics["setup_s"] = setup_s
        if not trace:
            return metrics
        traced, t_metrics, _, _ = self.measure(
            ["--profile=" + os.path.join(self.dir, "profile.json")])
        layers = {"overhead." + m: t_metrics[m] - metrics[m]
                  for m in OVERHEAD_OF}
        layers["trace.unattributed_share"] = traced["unattributed_share"]
        layers.update(self.served_probe(2 * self.cfg["probe_seconds"]))
        layers["trace.decomposition_violations"] += \
            traced["decomposition_violations"]
        layers.update(layer_suite(self, self.inputs.graphs))
        return layers


def stage_sum_ms(entry):
    return (entry["queue_wait_us"] + entry["batch_assembly_us"] +
            entry["score_us"]) / 1e3


def join_access_log(path, records):
    """(client record, access-log entry) pairs matched by request id."""
    by_id = {}
    with open(path) as f:
        for line in f:
            entry = json.loads(line)
            by_id[entry["id"]] = entry
    return [(r, by_id[r["request_id"]]) for r in records
            if r["status"] == 200 and r["request_id"] in by_id]


def engine_layers(entries, gauges):
    """serve/engine metrics from each served request's StageTiming (as the
    access log records it) and the engine's exact counters."""
    def q(key, p):
        return quantile([e[key] / 1e3 for e in entries], p)

    flushed = gauges.get("serve.engine.batches_flushed", 0)
    return {
        "engine.queue_wait_p50_ms": q("queue_wait_us", 0.5),
        "engine.queue_wait_p99_ms": q("queue_wait_us", 0.99),
        "engine.batch_assembly_p50_ms": q("batch_assembly_us", 0.5),
        "engine.score_p50_ms": q("score_us", 0.5),
        "engine.score_p99_ms": q("score_us", 0.99),
        "engine.requests_per_score_call":
            gauges.get("serve.engine.requests_served", 0) / flushed
            if flushed else 0.0,
        "engine.shed": gauges.get("serve.engine.shed", 0),
    }


def layer_suite(workload, graphs):
    """In-process layer probes on the workload's inputs, plus the HTTP
    overhead probe against fresh servers."""
    inputs = workload.inputs
    score_srv = workload.server(False)
    ingest_srv = None
    try:
        ingest_srv = workload.server(True)
        return json.loads(run([
            workload.build.probe, "layers", "--graphs=" + ",".join(graphs),
            "--graph=" + inputs.resident, "--bundle=" + inputs.bundle,
            "--score-bodies=" + inputs.score_bodies,
            "--ingest-bodies=" + inputs.ingest_bodies,
            "--ingest-head=%d" % inputs.ingest_head,
            "--score-port=%d" % score_srv.port,
            "--ingest-port=%d" % ingest_srv.port,
            "--n=%d" % workload.cfg["probe_requests"],
            "--stream-batches=%d" % workload.cfg["stream_batches"],
            "--seed=%d" % workload.seed,
            "--epoch-scale=%g" % workload.cfg["epoch_scale"]],
            env=child_env(), timeout=900))
    finally:
        score_srv.stop()
        if ingest_srv:
            ingest_srv.stop()


# --- run record -----------------------------------------------------------------

def fingerprint(build):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = build.cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for base in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT,
                                                                    base))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                with open(os.path.join(dirpath, name), "rb") as f:
                    digest.update(name.encode() + f.read())
    return {"nproc": nproc(), "cpu_model": cpu, "compiler": version,
            "build_type": build.cache("CMAKE_BUILD_TYPE"),
            "git_commit": commit, "source_sha256": digest.hexdigest()}


def config(args):
    smoke = args.smoke
    return {
        "scale": 0.1 if smoke else 1.0,
        "epoch_scale": 0.05 if smoke else 1.0,
        "auc_floor": 0.5 if smoke else AUC_FLOOR,
        "probe_requests": 20 if smoke else 200,
        "probe_seconds": 1.0 if smoke else 3.0,
        "stream_batches": 40 if smoke else 640,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["detect", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and short runs, for self-tests")
    args = parser.parse_args()
    # A terminated run still stops the servers it started (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.smoke:
        args.seconds = min(args.seconds, 2.0)
    cfg = config(args)
    out_dir = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d%s" % (
        args.workload, args.seed, args.trace, "-smoke" if args.smoke else ""))
    os.makedirs(out_dir, exist_ok=True)
    try:
        build = Build()
        cls = {"detect": DetectWorkload,
               "stream": StreamWorkload}[args.workload]
        workload = cls(args, build, cfg, out_dir)
        log("perfbench %s seed=%d seconds=%g trace=%d" % (
            args.workload, args.seed, args.seconds, args.trace))
        values = workload.run(args.trace == 1)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as err:
        log("perfbench: error: %s" % err)
        return 1
    finally:
        for server in list(Server.live):
            server.stop()
    names = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(names) - set(values))
    if missing:
        log("perfbench: error: metrics not measured: %s" % missing)
        return 1
    metrics = {}
    for name in names:
        unit = PER_LAYER[name][0] if args.trace else END_TO_END[name]
        metrics[name] = {"value": float(values[name]), "unit": unit}
        moves = ("  -> " + PER_LAYER[name][1]) if args.trace else ""
        print("%-34s %16.6f %-8s%s" % (name, values[name], unit, moves))
    correct = all(c["ok"] for c in workload.checks)
    record = dict(workload.record, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                  machine=fingerprint(build), checks=workload.checks,
                  pool_widths={"detect": 1, "determinism_check": 4,
                               "stream": 1, "layers": 1,
                               "server": "default (VGOD_NUM_THREADS unset)"},
                  offered_rates={"probe_score_rps": PROBE_RPS[args.workload],
                                 "stream_read_rps": PROBE_RPS["stream"]},
                  metrics=metrics)
    with open(os.path.join(out_dir, "record.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct,
                      "attempted": max(workload.attempted, 1),
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
