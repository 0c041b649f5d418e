#!/usr/bin/env python3
"""End-to-end validator for the streaming ingest path (docs/STREAMING.md).

Drives a live `vgod_serve --streaming` instance:

  1. `vgod_cli generate` + `vgod_cli detect --save-bundle` produce a small
     graph and VBM bundle.
  2. `vgod_serve --streaming` boots on an ephemeral port; /healthz must
     advertise streaming mode, the split probes /healthz/live and
     /healthz/ready must both answer 200.
  3. Valid event batches (node appends, edge insert/delete, attribute
     updates, forced compaction) must apply with consistent bookkeeping in
     the /ingest response (events_applied, num_nodes, delta_ops).
  4. Hostile events — out-of-range endpoints, self loops, duplicate
     inserts, phantom removes, wrong attribute widths, non-integer ids,
     oversized batches, malformed JSON — must each produce a clean 4xx
     (all-or-nothing: nothing applies), with the server alive after every
     rejection.
  5. GET /debug/watchlist must return score-descending entries honoring
     ?k=, and reject bad k values.
  6. The stream.* metrics must move and agree between the JSON export and
     the Prometheus exposition; stream.nodes must equal the /healthz node
     count.
  7. A server booted WITHOUT --streaming must 4xx /ingest and
     /debug/watchlist but keep serving /score.
  8. SIGTERM must drain and exit 0.

Run directly (`python3 tools/check_ingest.py --cli build/tools/vgod_cli
--serve build/tools/vgod_serve`) or via ctest (registered as check_ingest
under the `faults` label).
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from vgodcheck import (check, finish, http, http_text, run, start_server,
                       stop_server)


def ingest(port, events, compact=None):
    body = {"events": events}
    if compact is not None:
        body["compact"] = compact
    return http(port, "POST", "/ingest", json.dumps(body))


def alive(port, context):
    status, payload = http(port, "GET", "/healthz/live")
    check(status == 200 and payload and payload.get("status") == "live",
          f"server not live after {context}: {status} {payload}")


def check_valid_batches(port, dim, boot_nodes):
    # Node appends: ids are assigned sequentially past the boot graph.
    status, reply = ingest(port, [
        {"op": "add_node", "attributes": [0.5] * dim},
        {"op": "add_node", "attributes": [-0.5] * dim},
    ])
    if not check(status == 200, f"add_node batch returned {status}: {reply}"):
        return None
    check(reply.get("events_applied") == 2,
          f"add_node batch applied {reply.get('events_applied')} events")
    check(reply.get("num_nodes") == boot_nodes + 2,
          f"num_nodes is {reply.get('num_nodes')}, want {boot_nodes + 2}")
    check(reply.get("request_id", 0) > 0, "/ingest response lacks request_id")
    # /healthz reads the engine's published node count, so it follows the
    # append before any read has built a snapshot of the new version.
    status, health = http(port, "GET", "/healthz")
    check(status == 200 and health.get("nodes") == boot_nodes + 2,
          f"/healthz nodes is {health and health.get('nodes')} after the "
          f"append, want {boot_nodes + 2}")
    a, b = boot_nodes, boot_nodes + 1

    # Edge insert between the two fresh nodes (guaranteed absent), then
    # an attribute update, then the delete. touched_nodes certifies the
    # O(deg) update: an edge event touches exactly its two endpoints.
    status, reply = ingest(port, [{"op": "add_edge", "u": a, "v": b}])
    check(status == 200, f"add_edge returned {status}: {reply}")
    check(reply and reply.get("touched_nodes") == 2,
          f"add_edge touched {reply and reply.get('touched_nodes')} nodes, "
          f"want exactly the 2 endpoints")

    status, reply = ingest(
        port, [{"op": "update_attributes", "node": a,
                "attributes": [0.25] * dim}])
    check(status == 200, f"update_attributes returned {status}: {reply}")
    # Node a currently has exactly one neighbor (b): itself + 1.
    check(reply and reply.get("touched_nodes") == 2,
          f"update_attributes touched {reply and reply.get('touched_nodes')}")

    status, reply = ingest(port, [{"op": "remove_edge", "u": a, "v": b}])
    check(status == 200, f"remove_edge returned {status}: {reply}")

    # The published snapshot immediately serves the appended nodes.
    status, scored = http(port, "POST", "/score",
                          json.dumps({"nodes": [a, b]}))
    check(status == 200 and scored and len(scored.get("scores", [])) == 2,
          f"scoring appended nodes failed: {status} {scored}")

    # Forced compaction folds the overlay into a fresh base.
    status, reply = ingest(port, [], compact=True)
    check(status == 200, f"compact batch returned {status}: {reply}")
    check(reply and reply.get("compacted") is True,
          f"compact:true did not compact: {reply}")
    check(reply and reply.get("delta_ops") == 0,
          f"delta_ops nonzero after compaction: {reply}")
    check(reply and reply.get("compactions", 0) >= 1,
          f"compaction count did not move: {reply}")
    return a


def check_hostile_events(port, dim, boot_nodes):
    status, before = http(port, "GET", "/healthz")
    nodes_before = before.get("nodes") if before else None
    hostile = [
        ("out-of-range endpoint",
         [{"op": "add_edge", "u": 0, "v": 10 ** 9}]),
        ("negative endpoint", [{"op": "add_edge", "u": -1, "v": 2}]),
        ("self loop", [{"op": "add_edge", "u": 3, "v": 3}]),
        ("phantom remove — all-or-nothing",
         [{"op": "add_node", "attributes": [0.0] * dim},
          {"op": "remove_edge", "u": 10 ** 8, "v": 10 ** 8 + 1}]),
        ("wrong attribute width",
         [{"op": "update_attributes", "node": 0,
           "attributes": [0.0] * (dim + 3)}]),
        ("empty attribute row", [{"op": "add_node", "attributes": []}]),
        ("non-integer node id",
         [{"op": "update_attributes", "node": 1.5,
           "attributes": [0.0] * dim}]),
        ("unknown op", [{"op": "merge_nodes", "u": 0, "v": 1}]),
        ("missing endpoint field", [{"op": "add_edge", "u": 0}]),
        ("non-finite attribute",
         [{"op": "add_node", "attributes": ["nan"] * dim}]),
    ]
    for name, events in hostile:
        status, reply = ingest(port, events)
        check(400 <= status < 500,
              f"hostile batch ({name}) returned {status}, want 4xx: {reply}")
        alive(port, f"hostile batch ({name})")

    # Duplicate insert: first add applies, identical re-add must reject.
    a = boot_nodes  # Appended by check_valid_batches.
    status, _ = ingest(port, [{"op": "add_edge", "u": 0, "v": a}])
    check(status == 200, f"setup edge for duplicate test returned {status}")
    status, reply = ingest(port, [{"op": "add_edge", "u": a, "v": 0}])
    check(400 <= status < 500,
          f"duplicate (mirrored) insert returned {status}: {reply}")

    # Malformed envelopes.
    for name, body in [
        ("not json", "this is not json"),
        ("events not array", '{"events":{}}'),
        ("event not object", '{"events":[42]}'),
        ("no events key", '{"compact":true}'),
    ]:
        status, reply = http(port, "POST", "/ingest", body)
        check(400 <= status < 500,
              f"malformed envelope ({name}) returned {status}: {reply}")
        alive(port, f"malformed envelope ({name})")

    # Oversized batch: --max-events on the command line caps each request.
    status, reply = ingest(
        port, [{"op": "add_node", "attributes": [0.0] * dim}] * 65)
    check(status == 400,
          f"oversized batch returned {status}, want 400: {reply}")

    # Wrong method.
    status, _ = http(port, "GET", "/ingest")
    check(status == 405, f"GET /ingest returned {status}, want 405")

    # Nothing hostile may have mutated the graph (the one setup edge and
    # nothing else): node count is unchanged from before the sweep.
    status, after = http(port, "GET", "/healthz")
    check(status == 200 and after and after.get("nodes") == nodes_before,
          f"hostile sweep changed node count: {nodes_before} -> "
          f"{after and after.get('nodes')}")


def check_watchlist(port):
    status, reply = http(port, "GET", "/debug/watchlist")
    if not check(status == 200 and isinstance(reply, dict),
                 f"/debug/watchlist returned {status}: {reply}"):
        return
    entries = reply.get("watchlist", [])
    check(len(entries) == 5,
          f"default watchlist size is {len(entries)}, want k=5 from flags")
    scores = [e.get("score") for e in entries]
    check(all(isinstance(s, (int, float)) for s in scores),
          f"watchlist entries lack scores: {entries}")
    check(scores == sorted(scores, reverse=True),
          f"watchlist not score-descending: {scores}")
    for entry in entries:
        check(entry.get("node", -1) >= 0,
              f"watchlist entry lacks a node id: {entry}")

    status, reply = http(port, "GET", "/debug/watchlist?k=3")
    check(status == 200 and len(reply.get("watchlist", [])) == 3,
          f"?k=3 returned {reply}")
    for bad in ("0", "-2", "abc", "100001"):
        status, _ = http(port, "GET", f"/debug/watchlist?k={bad}")
        check(status == 400, f"?k={bad} returned {status}, want 400")


def check_stream_metrics(port):
    status, metrics = http(port, "GET", "/metrics")
    if not check(status == 200 and isinstance(metrics, dict),
                 f"/metrics returned {status}"):
        return
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})

    check(counters.get("stream.events.total", 0) >= 6,
          f"stream.events.total is {counters.get('stream.events.total')}")
    check(counters.get("stream.ingest.batches", 0) >= 5,
          "stream.ingest.batches did not move")
    # Only batches that parse but fail graph-state validation count here;
    # malformed envelopes are rejected earlier by the HTTP layer.
    check(counters.get("stream.ingest.rejected", 0) >= 5,
          "stream.ingest.rejected did not count the hostile sweep")
    for op in ("add_edge", "remove_edge", "add_node", "update_attributes"):
        check(counters.get(f"stream.events.{op}", 0) >= 1,
              f"stream.events.{op} did not move")
    check(gauges.get("stream.compactions", 0) >= 1,
          "stream.compactions gauge did not move")
    touched = histograms.get("stream.touched_nodes.per_event")
    check(touched is not None and touched.get("count", 0) >= 6,
          "stream.touched_nodes.per_event histogram did not move")
    latency = histograms.get("stream.ingest.latency.seconds")
    check(latency is not None and latency.get("count", 0) >= 5,
          "stream.ingest.latency.seconds histogram did not move")
    compaction = histograms.get("stream.compaction.seconds")
    check(compaction is not None and compaction.get("count", 0) >= 1,
          "stream.compaction.seconds histogram did not move")

    # stream.nodes agrees with /healthz.
    status, health = http(port, "GET", "/healthz")
    check(status == 200 and health and
          gauges.get("stream.nodes") == health.get("nodes"),
          f"stream.nodes gauge {gauges.get('stream.nodes')} != /healthz "
          f"nodes {health and health.get('nodes')}")

    # Prometheus exposition agrees with the JSON export on the stream
    # counters (none of which move on a metrics scrape itself).
    status, _, text = http_text(port, "/metrics?format=prometheus")
    if not check(status == 200, f"prometheus export returned {status}"):
        return
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2 and "{" not in parts[0]:
            samples[parts[0]] = float(parts[1])
    for json_name in ("stream.events.total", "stream.ingest.batches",
                      "stream.ingest.rejected"):
        prom_name = json_name.replace(".", "_")
        check(samples.get(prom_name) == counters.get(json_name),
              f"{prom_name}={samples.get(prom_name)} in prometheus but "
              f"{json_name}={counters.get(json_name)} in JSON")
    check(samples.get("stream_nodes") == gauges.get("stream.nodes"),
          "stream_nodes disagrees between exports")
    check(samples.get("stream_touched_nodes_per_event_count") ==
          touched.get("count") if touched else False,
          "touched-nodes histogram count disagrees between exports")


def check_streaming_server(cli, serve_bin, workdir):
    graph = workdir / "stream.graph"
    bundle = workdir / "stream_model.vgodb"
    run([cli, "generate", "--dataset=cora", "--scale=0.1", "--seed=7",
         "--inject=standard", f"--output={graph}"])
    run([cli, "detect", f"--graph={graph}", "--detector=VBM",
         "--epoch-scale=0.05", "--seed=7", f"--save-bundle={bundle}",
         "--output=" + str(workdir / "stream_scores.tsv")])
    if not check(bundle.exists(), "detect wrote no bundle"):
        return

    proc, port = start_server(
        serve_bin, [f"--bundle={bundle}", f"--graph={graph}", "--port=0",
                    "--streaming", "--watchlist-k=5", "--compact-every=1000",
                    "--max-events=64"])
    if port is None:
        return
    try:
        status, health = http(port, "GET", "/healthz")
        if not check(status == 200 and isinstance(health, dict),
                     f"/healthz returned {status}"):
            return
        check(health.get("streaming") is True,
              f"/healthz does not advertise streaming: {health}")
        dim = health.get("attribute_dim", 0)
        boot_nodes = health.get("nodes", 0)
        if not check(dim > 0 and boot_nodes > 0,
                     f"/healthz lacks attribute_dim/nodes: {health}"):
            return

        # Split probes: both must be green on a healthy streaming server.
        status, live = http(port, "GET", "/healthz/live")
        check(status == 200 and live.get("status") == "live",
              f"/healthz/live: {status} {live}")
        status, ready = http(port, "GET", "/healthz/ready")
        check(status == 200 and ready.get("status") == "ready",
              f"/healthz/ready: {status} {ready}")
        status, _ = http(port, "POST", "/healthz/ready", "{}")
        check(status == 405, f"POST readiness probe returned {status}")

        check_valid_batches(port, dim, boot_nodes)
        check_hostile_events(port, dim, boot_nodes)
        check_watchlist(port)
        check_stream_metrics(port)
    finally:
        stop_server(proc, "vgod_serve --streaming")


def check_non_streaming_server(cli, serve_bin, workdir):
    graph = workdir / "stream.graph"
    bundle = workdir / "stream_model.vgodb"
    proc, port = start_server(
        serve_bin, [f"--bundle={bundle}", f"--graph={graph}", "--port=0"])
    if port is None:
        return
    try:
        status, health = http(port, "GET", "/healthz")
        check(status == 200 and health and health.get("streaming") is False,
              f"non-streaming /healthz: {status} {health}")
        status, reply = ingest(port, [{"op": "add_edge", "u": 0, "v": 1}])
        check(400 <= status < 600 and status != 200,
              f"/ingest without --streaming returned {status}")
        check(reply and "streaming" in str(reply.get("error", "")),
              f"/ingest rejection does not explain itself: {reply}")
        status, _ = http(port, "GET", "/debug/watchlist")
        check(status != 200,
              f"/debug/watchlist without --streaming returned {status}")
        status, scored = http(port, "POST", "/score",
                              json.dumps({"nodes": [0, 1]}))
        check(status == 200 and scored and len(scored.get("scores", [])) == 2,
              f"/score broken on a non-streaming server: {status}")
    finally:
        stop_server(proc, "vgod_serve")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to vgod_cli")
    parser.add_argument("--serve", required=True, help="path to vgod_serve")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="vgod_ingest_check_") as tmp:
        workdir = Path(tmp)
        check_streaming_server(Path(args.cli), Path(args.serve), workdir)
        check_non_streaming_server(Path(args.cli), Path(args.serve), workdir)

    return finish("check_ingest", "all streaming ingest checks passed")


if __name__ == "__main__":
    sys.exit(main())
