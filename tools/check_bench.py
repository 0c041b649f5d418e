#!/usr/bin/env python3
"""Bench regression gate: fresh serve_loadgen numbers vs committed bands.

Runs `serve_loadgen` at a reduced, deterministic scale with
VGOD_BENCH_MANIFEST set, then compares every metric the manifest records
(`c{clients}.p50_ms`, `.p99_ms`, `.throughput_rps`,
`.queue_wait_p99_ms`, `.score_p99_ms`) against the tolerance bands
committed in bench/baselines.json. The bands are deliberately wide —
they catch order-of-magnitude regressions (a serialization stall, a lost
score table, a stage timing that stopped filling), not machine-to-machine
jitter. Structural invariants are checked unconditionally:

  * p50 <= p99 for end-to-end and per-stage latency,
  * engine-side p50/p99 (the serve.request.latency.seconds sketch) at most
    1.01x the client-observed p50/p99 at every concurrency level,
  * exactly one detector Score() call per client-concurrency run (the
    engine keeps one score table per snapshot and the graph is static),
  * every baseline metric present in the fresh manifest.

With `--kernels build/bench/micro_kernels` the gate also runs the
`--sweep` kernel grid and compares each kernel's single-thread GFLOP/s
against the per-kernel bands in baselines.json's "kernels" section; the
sweep is run without VGOD_BENCH_MANIFEST so the binary's always-emitted
default manifest (BENCH_kernels.json in the working directory) is what
gets validated.

With `--stream-loadgen build/bench/stream_loadgen` the gate also runs the
streaming bench (mixed ingest+score traffic plus the 1x/4x scaling probe)
and compares its manifest against the "stream" bands: ingest throughput,
touched-nodes-per-event, score tail latency, and the per-event-cost
scaling ratio that pins the incremental scorer to O(deg) rather than
O(n) work per event. Structural stream invariants (quantile ordering,
exactly-two-endpoints touched by edge toggles at both scales) are
checked unconditionally when the report is present.

Run directly (`python3 tools/check_bench.py --loadgen build/bench/serve_loadgen
--baselines bench/baselines.json`) or via ctest (registered as check_bench
with the `bench` label).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from vgodcheck import check, fail, finish


def run_loadgen(loadgen, baselines, workdir):
    manifest_path = workdir / "manifest.json"
    report_path = workdir / "report.json"
    env = dict(os.environ)
    env.update(baselines.get("env", {}))
    env["VGOD_BENCH_MANIFEST"] = str(manifest_path)
    cmd = [str(loadgen), "--clients=8", "--requests=8", "--http",
           f"--json={report_path}"]
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=480)
    if proc.returncode != 0:
        fail(f"serve_loadgen exited {proc.returncode}\n"
             f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}")
        return None, None
    if not check(manifest_path.exists(), "loadgen wrote no manifest"):
        return None, None
    if not check(report_path.exists(), "loadgen wrote no JSON report"):
        return None, None
    return (json.loads(manifest_path.read_text()),
            json.loads(report_path.read_text()))


def manifest_metrics(manifest):
    """Flattens manifest results to {metric: value}."""
    out = {}
    for result in manifest.get("results", []):
        out[result["metric"]] = result["value"]
    return out


def kernel_metrics(manifest):
    """Flattens sweep results to {"op.tN.metric": value}.

    The kernel sweep records the same metric name ("gflops") for every
    op, so the loadgen-style metric-only flattening would collide; key by
    the full (dataset=op, detector=tN, metric) triple instead.
    """
    out = {}
    for result in manifest.get("results", []):
        key = f'{result["dataset"]}.{result["detector"]}.{result["metric"]}'
        out[key] = result["value"]
    return out


def run_kernel_sweep(kernels, workdir):
    """Runs `micro_kernels --sweep` and returns its default manifest."""
    env = dict(os.environ)
    env.pop("VGOD_BENCH_MANIFEST", None)  # exercise the default emit
    cmd = [str(kernels), "--sweep"]
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=workdir, timeout=480)
    if proc.returncode != 0:
        fail(f"micro_kernels --sweep exited {proc.returncode}\n"
             f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}")
        return None
    manifest_path = workdir / "BENCH_kernels.json"
    if not check(manifest_path.exists(),
                 "micro_kernels --sweep did not emit BENCH_kernels.json "
                 "(the default manifest must be written even without "
                 "VGOD_BENCH_MANIFEST)"):
        return None
    return json.loads(manifest_path.read_text())


def run_stream_loadgen(stream_loadgen, baselines, workdir):
    """Runs stream_loadgen at a reduced scale and returns (manifest, report)."""
    manifest_path = workdir / "stream_manifest.json"
    report_path = workdir / "stream_report.json"
    env = dict(os.environ)
    env.update(baselines.get("env", {}))
    env["VGOD_BENCH_MANIFEST"] = str(manifest_path)
    cmd = [str(stream_loadgen), "--batches=8", "--batch-size=16",
           "--requests=30", "--scale-nodes=1000", "--scale-events=2000",
           "--drift", f"--json={report_path}"]
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=480)
    if proc.returncode != 0:
        fail(f"stream_loadgen exited {proc.returncode}\n"
             f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}")
        return None, None
    if not check(manifest_path.exists(), "stream_loadgen wrote no manifest"):
        return None, None
    if not check(report_path.exists(),
                 "stream_loadgen wrote no JSON report"):
        return None, None
    return (json.loads(manifest_path.read_text()),
            json.loads(report_path.read_text()))


def check_band_map(metrics, bands, section):
    """Generic tolerance-band gate: every banded metric must be present and
    inside [min, max]. Shared by the kernel/stream/matrix sections here and
    by tools/check_matrix.py."""
    for metric, band in sorted(bands.items()):
        if not check(metric in metrics,
                     f"{section}: missing baseline metric {metric}"):
            continue
        value = metrics[metric]
        lo, hi = band["min"], band["max"]
        check(lo <= value <= hi,
              f"{section}: {metric} = {value} outside committed band "
              f"[{lo}, {hi}]")


def matrix_metrics(leaderboard):
    """Flattens a matrix_runner leaderboard to band-checkable metrics:
    {"dataset.regime.detector.auc_mean": value, ...} plus ".seeds_ok"."""
    out = {}
    for row in leaderboard.get("summary", []):
        key = f'{row["dataset"]}.{row["regime"]}.{row["detector"]}'
        out[f"{key}.auc_mean"] = row["auc_mean"]
        out[f"{key}.ap_mean"] = row["ap_mean"]
        out[f"{key}.seeds_ok"] = row["seeds_ok"]
    return out


def check_stream_bands(metrics, baselines):
    bands = baselines.get("stream", {})
    if not check(bands, "baselines.json declares no stream bands"):
        return
    check_band_map(metrics, bands, "stream")


def check_stream_invariants(report):
    mixed = report.get("mixed", {})
    check(mixed.get("events", 0) > 0, "stream report recorded no events")
    check(mixed.get("events_per_sec", 0) > 0, "stream ingest throughput is 0")
    check(0 < mixed.get("score_p50_ms", -1) <= mixed.get("score_p99_ms", -1),
          "stream score quantiles inverted or non-positive")
    scaling = report.get("scaling", {})
    points = scaling.get("points", [])
    if not check(len(points) == 2, "stream scaling probe needs 2 points"):
        return
    small, large = points
    check(large["nodes"] == 4 * small["nodes"],
          f"scaling points are not 1x/4x: {small['nodes']}/{large['nodes']}")
    # Edge toggles touch exactly their two endpoints, independent of n.
    for point in points:
        check(abs(point.get("touched_per_event", 0) - 2.0) < 1e-9,
              f"edge toggle touched {point.get('touched_per_event')} nodes "
              f"at n={point['nodes']}, want exactly 2")
    # Drift probe (--drift): the detection signal must separate — the
    # shifted window strictly beyond the stable one, on real samples.
    drift = report.get("drift", {})
    if check(drift, "stream report has no drift section (--drift phase)"):
        check(drift.get("scores_recorded", 0) > 0,
              "drift probe recorded no scores")
        check(drift.get("shifted_psi", 0) > drift.get("stable_psi", 0),
              f"drift probe PSI did not separate: stable "
              f"{drift.get('stable_psi')} vs shifted "
              f"{drift.get('shifted_psi')}")


def check_kernel_bands(metrics, baselines):
    bands = baselines.get("kernels", {})
    if not check(bands, "baselines.json declares no kernel bands"):
        return
    check_band_map(metrics, bands, "kernels")


def check_matrix_bands(leaderboard, baselines):
    """Gates a matrix_runner leaderboard artifact against the "matrix" band
    section ({"dataset.regime.detector.auc_mean": {min,max}, ...}). The
    richer rank-based gate (plus schema validation and the perturbation
    self-test) lives in tools/check_matrix.py; this mode lets an existing
    leaderboard artifact ride the same check_bench band machinery."""
    bands = baselines.get("matrix", {})
    if not check(bands, "baselines.json declares no matrix bands"):
        return
    check_band_map(matrix_metrics(leaderboard), bands, "matrix")


def check_transport_bands(metrics, baselines):
    """Gates the reactor-transport manifest metrics from the loadgen --http
    phase: the high-fanout thread-boundedness proof (256 parked keep-alive
    connections must not add server threads) and the connection-churn
    leak check (open connections and thread count return to baseline)."""
    bands = baselines.get("transport", {})
    if not check(bands, "baselines.json declares no transport bands"):
        return
    check_band_map(metrics, bands, "transport")


def check_bands(metrics, baselines):
    bands = baselines.get("metrics", {})
    if not check(bands, "baselines.json declares no metric bands"):
        return
    for metric, band in sorted(bands.items()):
        if not check(metric in metrics,
                     f"manifest is missing baseline metric {metric}"):
            continue
        value = metrics[metric]
        lo, hi = band["min"], band["max"]
        check(lo <= value <= hi,
              f"{metric} = {value} outside committed band [{lo}, {hi}]")
    extra = sorted(set(metrics) - set(bands))
    if extra:
        print(f"note: {len(extra)} manifest metric(s) without bands: "
              f"{', '.join(extra)}")


def check_invariants(report):
    configs = report.get("configs", [])
    if not check(configs, "loadgen report has no configs"):
        return
    for config in configs:
        tag = f"c{config.get('clients')}"
        check(config.get("requests", 0) > 0, f"{tag}: no requests recorded")
        check(config.get("score_calls") == 1,
              f"{tag}: {config.get('score_calls')} Score() calls for one "
              f"static snapshot, want exactly 1")
        check(0 < config.get("p50_ms", -1) <= config.get("p99_ms", -1),
              f"{tag}: latency quantiles inverted or non-positive")
        # The engine never reports more latency than the client saw: each
        # engine-side request is timed inside the client's round trip, so
        # only the sketch's 1% relative error may separate the two.
        for q in ("p50_ms", "p99_ms"):
            engine, client = config.get(f"engine_{q}"), config.get(q, 0)
            check(engine is not None and engine <= client * 1.01,
                  f"{tag}: engine {q} {engine} exceeds client-observed "
                  f"{client} (x1.01)")
        for stage, quantiles in (config.get("stages") or {}).items():
            check(0 <= quantiles.get("p50_ms", -1)
                  <= quantiles.get("p99_ms", -1),
                  f"{tag}: stage {stage} quantiles inverted")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--loadgen",
                        help="path to serve_loadgen (optional when only "
                             "--matrix gating is wanted)")
    parser.add_argument("--baselines", required=True,
                        help="path to bench/baselines.json")
    parser.add_argument("--kernels",
                        help="path to micro_kernels; also runs the --sweep "
                             "kernel grid against the 'kernels' bands")
    parser.add_argument("--stream-loadgen",
                        help="path to stream_loadgen; also gates ingest "
                             "throughput, touched-nodes-per-event, and the "
                             "O(deg) scaling ratio against the 'stream' "
                             "bands")
    parser.add_argument("--matrix",
                        help="path to a matrix_runner leaderboard JSON; "
                             "gates its summary against the 'matrix' bands "
                             "in --baselines")
    args = parser.parse_args()

    baselines = json.loads(Path(args.baselines).read_text())
    if args.matrix:
        check_matrix_bands(json.loads(Path(args.matrix).read_text()),
                           baselines)
    if not args.loadgen and not args.matrix:
        parser.error("nothing to do: pass --loadgen and/or --matrix")
    with tempfile.TemporaryDirectory(prefix="vgod_check_bench_") as tmp:
        manifest, report = (run_loadgen(Path(args.loadgen), baselines,
                                        Path(tmp))
                            if args.loadgen else (None, None))
        kernel_manifest = (run_kernel_sweep(Path(args.kernels), Path(tmp))
                           if args.kernels else None)
        stream_manifest, stream_report = (
            run_stream_loadgen(Path(args.stream_loadgen), baselines,
                               Path(tmp))
            if args.stream_loadgen else (None, None))
    if manifest is not None:
        check_bands(manifest_metrics(manifest), baselines)
        check_transport_bands(manifest_metrics(manifest), baselines)
    if report is not None:
        check_invariants(report)
    if kernel_manifest is not None:
        check_kernel_bands(kernel_metrics(kernel_manifest), baselines)
    if stream_manifest is not None:
        check_stream_bands(manifest_metrics(stream_manifest), baselines)
    if stream_report is not None:
        check_stream_invariants(stream_report)

    return finish("check_bench",
                  "fresh bench numbers are inside the committed bands")


if __name__ == "__main__":
    sys.exit(main())
