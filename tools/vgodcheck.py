"""Shared helpers for the tools/check_*.py end-to-end validators.

One failure ledger (`fail`/`check`/`finish`), subprocess and loopback HTTP
helpers, and vgod_serve process management (`start_server` parses the
"listening on 127.0.0.1:PORT" banner, `stop_server` sends SIGTERM and
checks the drain). The check scripts run from tools/, so a plain
`import vgodcheck` finds this module.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

ERRORS = []

BANNER_RE = re.compile(r"listening on 127\.0\.0\.1:(\d+)")


def fail(message):
    ERRORS.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def check(condition, message):
    if not condition:
        fail(message)
    return condition


def finish(name, success_message):
    """Prints the verdict and returns the process exit code."""
    if ERRORS:
        print(f"\n{name}: {len(ERRORS)} failure(s)", file=sys.stderr)
        return 1
    print(f"{name}: {success_message}")
    return 0


def run(cmd, env_extra=None, expect_code=0, timeout=480):
    """Runs `cmd`, recording a failure unless it exits `expect_code`."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    print("+", " ".join(str(c) for c in cmd))
    proc = subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, env=env,
        timeout=timeout)
    if proc.returncode != expect_code:
        fail(f"expected exit {expect_code}, got {proc.returncode}: "
             f"{' '.join(map(str, cmd))}\n"
             f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}")
    return proc


def http(port, method, path, body=None, timeout=30, as_json=True):
    """Returns (status, payload): the parsed JSON body (None when it does
    not parse), or the body text when `as_json` is false."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body.encode() if body is not None else None,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            status, text = reply.status, reply.read().decode()
    except urllib.error.HTTPError as error:
        status, text = error.code, error.read().decode()
    if not as_json:
        return status, text
    try:
        return status, json.loads(text)
    except ValueError:
        return status, None


def http_text(port, path, timeout=30):
    """GET returning (status, content-type, body-text)."""
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return (reply.status, reply.headers.get("Content-Type", ""),
                    reply.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), ""


def start_server(serve_bin, flags, env_extra=None):
    """Boots vgod_serve with `flags` and returns (proc, port); port is
    None (and a failure recorded) when no banner appeared within 60s."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [str(serve_bin)] + [str(f) for f in flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    deadline = time.monotonic() + 60
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = BANNER_RE.search(line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    fail(f"vgod_serve never printed its port; output: {''.join(lines)}")
    return proc, None


def stop_server(proc, name="vgod_serve", expect_drain=False):
    """SIGTERMs the server; it must exit 0 within 60s (and, with
    `expect_drain`, report a clean drain)."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{name} did not exit within 60s of SIGTERM")
        return
    check(proc.returncode == 0,
          f"{name} exited {proc.returncode} after SIGTERM")
    if expect_drain:
        tail = proc.stdout.read()
        check("drained and stopped" in tail,
              f"{name} did not report a clean drain; tail: {tail[-500:]}")
