#!/usr/bin/env python3
"""End-to-end validator for the compute profiler (docs/OBSERVABILITY.md).

Exercises both profiler surfaces:

  1. `vgod_cli detect --profile_out` must write a folded-stack file whose
     every line matches `frame(;frame)* <nanoseconds>`, and a `.json`
     variant whose call tree satisfies the structural invariant at every
     node: sum of child inclusive_ns <= parent inclusive_ns, with
     exclusive_ns the exact remainder. The tree must contain the
     detector/kernel scopes the instrumentation promises.
  2. A live `vgod_serve --streaming` under concurrent ingest-then-score
     traffic (each /score lands on a fresh snapshot, so it runs a
     full-graph Score()) must answer
     GET /debug/profile?seconds=N with a windowed capture in which the
     serve/score subtree exists and >= 90% of its inclusive time is
     attributed to named child scopes (detector/graph/kernel/gnn regions)
     rather than unattributed self time. The folded format variant and
     parameter validation (seconds out of range, POST) are checked too.

Run directly (`python3 tools/check_profile.py --cli build/tools/vgod_cli
--serve build/tools/vgod_serve`) or via ctest (registered as
check_profile).
"""

import argparse
import json
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

from vgodcheck import check, finish, http, run, start_server, stop_server

FOLDED_LINE_RE = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")


# --- call-tree checks ---------------------------------------------------


def walk_tree(node, path=""):
    """Yields (path, node) for every node below (and including) `node`."""
    name = node.get("name", "")
    here = f"{path};{name}" if path and name else (name or path)
    yield here, node
    for child in node.get("children", []):
        yield from walk_tree(child, here)


def check_tree_invariant(root, context):
    """sum(child inclusive) <= parent inclusive; exclusive is the rest."""
    for path, node in walk_tree(root):
        child_sum = sum(c.get("inclusive_ns", 0)
                        for c in node.get("children", []))
        inclusive = node.get("inclusive_ns", 0)
        exclusive = node.get("exclusive_ns", 0)
        check(child_sum <= inclusive,
              f"{context}: node '{path}' child inclusive sum {child_sum} "
              f"exceeds parent inclusive {inclusive}")
        check(exclusive == inclusive - child_sum,
              f"{context}: node '{path}' exclusive {exclusive} != "
              f"inclusive {inclusive} - child sum {child_sum}")
        check(node.get("calls", 0) >= 0 and inclusive >= 0,
              f"{context}: node '{path}' has negative counters")


def find_node(root, name):
    for _, node in walk_tree(root):
        if node.get("name") == name:
            return node
    return None


def check_folded(text, context):
    lines = [line for line in text.splitlines() if line]
    if not check(lines, f"{context}: folded output is empty"):
        return
    for line in lines:
        check(FOLDED_LINE_RE.match(line) is not None,
              f"{context}: malformed folded line {line!r}")
    check(lines == sorted(lines), f"{context}: folded lines are not sorted")


# --- vgod_cli --profile_out --------------------------------------------


def check_cli_profile(cli, workdir):
    graph = workdir / "profile.graph"
    run([cli, "generate", "--dataset=cora", "--scale=0.1", "--seed=7",
         "--inject=standard", f"--output={graph}"])

    folded = workdir / "detect.folded"
    proc = run([cli, "detect", f"--graph={graph}", "--detector=VGOD",
                "--epoch-scale=0.05", "--seed=7",
                f"--profile_out={folded}"])
    check("wrote profile to" in proc.stdout,
          "detect --profile_out did not report writing the profile")
    if check(folded.exists(), "--profile_out wrote no folded file"):
        text = folded.read_text()
        check_folded(text, "cli folded")
        check("kernel/" in text,
              "cli folded profile has no kernel/* frames")
        check("detector/vgod_fit" in text,
              "cli folded profile lacks the detector/vgod_fit phase")

    tree_path = workdir / "detect_profile.json"
    run([cli, "detect", f"--graph={graph}", "--detector=VGOD",
         "--epoch-scale=0.05", "--seed=7", f"--profile_out={tree_path}"])
    if not check(tree_path.exists(), "--profile_out wrote no json file"):
        return
    root = json.loads(tree_path.read_text())
    check_tree_invariant(root, "cli tree")
    fit = find_node(root, "detector/vgod_fit")
    if check(fit is not None, "cli tree lacks detector/vgod_fit"):
        check(fit.get("calls") == 1,
              f"detector/vgod_fit calls {fit.get('calls')} != 1")
        check(fit.get("peak_bytes", 0) > 0,
              "detector/vgod_fit recorded no tensor memory phase peak")
        check(fit.get("children"),
              "detector/vgod_fit has no child scopes (kernels were not "
              "attributed under the fit phase)")
    score = find_node(root, "detector/vgod_score")
    if check(score is not None, "cli tree lacks detector/vgod_score"):
        check(score.get("inclusive_ns", 0) > 0,
              "detector/vgod_score recorded no time")
    matmul = find_node(root, "kernel/matmul")
    if check(matmul is not None, "cli tree lacks kernel/matmul"):
        check(matmul.get("bytes", 0) > 0,
              "kernel/matmul attributed no bytes")


# --- /debug/profile against a live server ------------------------------


def score_loop(port, dim, stop_event):
    """Ingest-then-score traffic: each /score lands on a freshly published
    snapshot, so it pays one full-graph detector Score() (a static graph
    would be scored once and then answered from the score table)."""
    body = json.dumps({"nodes": [0, 1, 2, 3, 4, 5, 6, 7]})
    update = json.dumps({"events": [
        {"op": "update_attributes", "node": 0, "attributes": [0.5] * dim}]})
    while not stop_event.is_set():
        try:
            http(port, "POST", "/ingest", update, timeout=30)
            http(port, "POST", "/score", body, timeout=30)
        except Exception:
            time.sleep(0.05)


def check_serve_profile(cli, serve_bin, workdir):
    graph = workdir / "serve.graph"
    bundle = workdir / "model.vgodb"
    run([cli, "generate", "--dataset=cora", "--scale=0.1", "--seed=7",
         "--inject=standard", f"--output={graph}"])
    run([cli, "detect", f"--graph={graph}", "--detector=VBM",
         "--epoch-scale=0.05", "--seed=7", f"--save-bundle={bundle}"])

    proc, port = start_server(serve_bin, [f"--bundle={bundle}",
                                          f"--graph={graph}", "--port=0",
                                          "--streaming"])
    if port is None:
        return
    try:
        # Parameter validation before any load.
        status, _ = http(port, "GET", "/debug/profile?seconds=0")
        check(status == 400, f"seconds=0 returned {status}, want 400")
        status, _ = http(port, "GET", "/debug/profile?seconds=90")
        check(status == 400, f"seconds=90 returned {status}, want 400")
        status, _ = http(port, "GET", "/debug/profile?seconds=bogus")
        check(status == 400, f"seconds=bogus returned {status}, want 400")
        status, _ = http(port, "GET", "/debug/profile?format=xml")
        check(status == 400, f"format=xml returned {status}, want 400")
        status, _ = http(port, "POST", "/debug/profile", body="{}")
        check(status == 405, f"POST /debug/profile returned {status}, "
                             f"want 405")

        # Windowed capture under concurrent scoring traffic.
        stop_event = threading.Event()
        _, health = http(port, "GET", "/healthz")
        dim = (health or {}).get("attribute_dim", 0)
        clients = [threading.Thread(target=score_loop,
                                    args=(port, dim, stop_event))
                   for _ in range(3)]
        for client in clients:
            client.start()
        time.sleep(0.3)  # let traffic reach steady state
        try:
            status, text = http(port, "GET", "/debug/profile?seconds=2",
                                timeout=90, as_json=False)
        finally:
            stop_event.set()
            for client in clients:
                client.join()
        if not check(status == 200,
                     f"/debug/profile returned {status}, want 200"):
            return
        payload = json.loads(text)
        check(payload.get("seconds") == 2,
              f"window echoed seconds {payload.get('seconds')}, want 2")
        root = payload.get("profile", {})
        check_tree_invariant(root, "serve tree")

        score = find_node(root, "serve/score")
        if not check(score is not None,
                     "window tree lacks serve/score (no scoring captured "
                     "in a 2s window under load)"):
            return
        inclusive = score.get("inclusive_ns", 0)
        attributed = sum(c.get("inclusive_ns", 0)
                         for c in score.get("children", []))
        check(inclusive > 0, "serve/score captured no time")
        if inclusive > 0:
            coverage = attributed / inclusive
            check(coverage >= 0.9,
                  f"only {coverage:.1%} of serve/score time is attributed "
                  f"to named child scopes (need >= 90%)")
            print(f"serve/score kernel attribution: {coverage:.1%} "
                  f"({attributed} / {inclusive} ns)")

        # Folded variant of the same endpoint.
        status, text = http(port, "GET",
                            "/debug/profile?seconds=1&format=folded",
                            timeout=90, as_json=False)
        if check(status == 200, f"folded window returned {status}"):
            check_folded(text, "serve folded")

        # The windowed capture must not leave profiling latched on: a
        # fresh window starts from a cleared tree either way, but the
        # steady-state hot path should be back to the disabled fast path.
        status, text = http(port, "GET", "/metrics")
        check(status == 200, "server unhealthy after profile windows")
    finally:
        stop_server(proc)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to vgod_cli")
    parser.add_argument("--serve", required=True, help="path to vgod_serve")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="vgod_check_profile_") as tmp:
        workdir = Path(tmp)
        check_cli_profile(Path(args.cli), workdir)
        check_serve_profile(Path(args.cli), Path(args.serve), workdir)

    return finish("check_profile",
                  "profiler exports and /debug/profile are healthy")


if __name__ == "__main__":
    sys.exit(main())
