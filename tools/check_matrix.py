#!/usr/bin/env python3
"""Benchmark-matrix regression gate (docs/BENCHMARKS.md).

Runs `matrix_runner` on the committed CI spec and validates the resulting
leaderboard end to end:

  * schema: version, spec echo, one cell per (detector, dataset, regime,
    seed), status vocabulary, metrics in range, summary/rank tables sized
    and cross-consistent with the cells;
  * determinism: a second run at a different thread count must produce a
    byte-identical `--no-timing` artifact (docs/PARALLELISM.md);
  * regression bands: per-cell AUC means against the "matrix" section of
    bench/matrix_baselines.json (same {metric: {min,max}} machinery as
    check_bench.py) plus VGOD rank bands per regime from the "ranks"
    section — VGOD must keep its leaderboard position, not just its raw
    numbers;
  * gate self-test: a deliberately perturbed copy of the fresh leaderboard
    must be rejected by the band check (guards against a vacuous gate);
  * failure isolation: a micro-matrix run under
    VGOD_FAULTS=vbm.loss=nan@1 must record the VBM cell as "failed" while
    the Deg cell stays "ok" and the runner still exits 0.

Run directly (`python3 tools/check_matrix.py --runner build/bench/matrix_runner
--spec bench/matrix_specs/ci.json --baselines bench/matrix_baselines.json`)
or via ctest (registered as check_matrix with the `matrix` label). Pass
--update to regenerate the baselines file from the fresh run instead of
gating against it.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from check_bench import check_band_map, matrix_metrics
from vgodcheck import ERRORS, check, fail, finish

VERDICT = ("leaderboard is valid, deterministic, inside the committed bands, "
           "and isolates cell failures")

CELL_STATUSES = {"ok", "failed", "timeout"}


def run_matrix(runner, spec_path, out_path, threads=0, no_timing=False,
               env_extra=None):
    env = dict(os.environ)
    env.pop("VGOD_BENCH_MANIFEST", None)
    if env_extra:
        env.update(env_extra)
    cmd = [str(runner), f"--spec={spec_path}", f"--out={out_path}", "--quiet"]
    if threads:
        cmd.append(f"--threads={threads}")
    if no_timing:
        cmd.append("--no-timing")
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=480)
    if proc.returncode != 0:
        fail(f"matrix_runner exited {proc.returncode}\n"
             f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}")
        return None
    if not check(Path(out_path).exists(), "matrix_runner wrote no artifact"):
        return None
    return json.loads(Path(out_path).read_text())


def validate_schema(board, spec):
    """Structural validation of a leaderboard artifact against its spec."""
    check(board.get("schema_version") == 1,
          f"schema_version {board.get('schema_version')} != 1")
    echoed = board.get("spec", {})
    for axis in ("detectors", "datasets", "regimes", "seeds"):
        check(echoed.get(axis) == spec[axis],
              f"spec echo mismatch on {axis}: {echoed.get(axis)}")

    cells = board.get("cells", [])
    want = (len(spec["detectors"]) * len(spec["datasets"]) *
            len(spec["regimes"]) * len(spec["seeds"]))
    if not check(len(cells) == want,
                 f"{len(cells)} cells, want {want}"):
        return
    seen = set()
    for cell in cells:
        key = (cell.get("detector"), cell.get("dataset"), cell.get("regime"),
               cell.get("seed"))
        check(key not in seen, f"duplicate cell {key}")
        seen.add(key)
        status = cell.get("status")
        if not check(status in CELL_STATUSES,
                     f"cell {key} has unknown status {status!r}"):
            continue
        if status == "ok":
            check(0.0 <= cell.get("auc", -1) <= 1.0,
                  f"cell {key} auc {cell.get('auc')} outside [0, 1]")
            check(0.0 <= cell.get("ap", -1) <= 1.0,
                  f"cell {key} ap {cell.get('ap')} outside [0, 1]")
        else:
            check(bool(cell.get("error")),
                  f"non-ok cell {key} carries no error message")
        if board.get("timing_included"):
            check(cell.get("wall_seconds", -1) >= 0,
                  f"cell {key} wall_seconds missing/negative")
            check(cell.get("peak_tensor_bytes", -1) >= 0,
                  f"cell {key} peak_tensor_bytes missing/negative")

    summary = board.get("summary", [])
    want_rows = (len(spec["detectors"]) * len(spec["datasets"]) *
                 len(spec["regimes"]))
    check(len(summary) == want_rows,
          f"{len(summary)} summary rows, want {want_rows}")
    for row in summary:
        check(row.get("seeds_ok", -1) + row.get("seeds_failed", -1)
              == len(spec["seeds"]),
              f"summary row {row.get('detector')}/{row.get('dataset')}/"
              f"{row.get('regime')}: seeds_ok+seeds_failed != "
              f"{len(spec['seeds'])}")

    ranks = board.get("ranks", {})
    check(sorted(ranks.keys()) == sorted(spec["regimes"]),
          f"ranks table regimes {sorted(ranks.keys())} != spec regimes")
    for regime, rows in ranks.items():
        ranked = sorted(r["rank"] for r in rows if r.get("cells_ok", 0) > 0)
        check(ranked == list(range(1, len(ranked) + 1)),
              f"regime {regime}: ranks {ranked} are not 1..{len(ranked)}")


def vgod_ranks(board):
    """{regime: VGOD's per-regime rank} (0 = every VGOD cell failed)."""
    out = {}
    for regime, rows in board.get("ranks", {}).items():
        for row in rows:
            if row["detector"] == "VGOD":
                out[regime] = row["rank"]
    return out


def check_rank_bands(board, baselines):
    bands = baselines.get("ranks", {})
    if not check(bands, "matrix baselines declare no rank bands"):
        return
    ranks = vgod_ranks(board)
    for regime, band in sorted(bands.items()):
        if not check(regime in ranks,
                     f"leaderboard has no VGOD rank for regime {regime}"):
            continue
        rank = ranks[regime]
        check(band["min"] <= rank <= band["max"],
              f"VGOD rank in {regime} is {rank}, outside committed band "
              f"[{band['min']}, {band['max']}]")


def check_perturbation_rejected(board, baselines):
    """The gate must reject a leaderboard whose banded metrics drift: take
    the fresh artifact, push one banded summary AUC far outside its band,
    and require the band check to flag it. A gate that passes the perturbed
    copy is vacuous."""
    bands = baselines.get("matrix", {})
    auc_bands = {k: v for k, v in bands.items() if k.endswith(".auc_mean")}
    if not check(auc_bands, "no auc_mean bands to self-test against"):
        return
    target = sorted(auc_bands)[0]
    dataset_regime, detector, _ = target.rsplit(".", 2)
    dataset, regime = dataset_regime.split(".", 1)
    perturbed = json.loads(json.dumps(board))  # deep copy
    hit = False
    for row in perturbed.get("summary", []):
        if (row["detector"] == detector and row["dataset"] == dataset
                and row["regime"] == regime):
            row["auc_mean"] = auc_bands[target]["max"] + 0.5
            hit = True
    if not check(hit, f"perturbation target {target} not in summary"):
        return
    before = len(ERRORS)
    check_band_map(matrix_metrics(perturbed), bands, "self-test")
    caught = len(ERRORS) > before
    # The self-test failures are expected — remove them from the ledger,
    # then record the real verdict.
    del ERRORS[before:]
    check(caught, "gate self-test: perturbed leaderboard was NOT rejected "
                  "(band check is vacuous)")
    if caught:
        print("gate self-test: perturbed leaderboard correctly rejected")


def check_fault_isolation(runner, tmp):
    """A faulted detector cell must fail in isolation: under
    VGOD_FAULTS=vbm.loss=nan@1 the VBM fit diverges (detectors/vbm.cc), its
    cell records status "failed", and the co-scheduled Deg cell — same
    dataset case — still scores, with the runner exiting 0."""
    spec = {
        "detectors": ["VBM", "Deg"],
        "datasets": ["cora"],
        "regimes": ["structural"],
        "seeds": [7],
        "scale": 0.05,
        "epoch_scale": 0.05,
        "injection": {"clique_size": 5, "candidate_set": 20},
    }
    spec_path = tmp / "fault_spec.json"
    spec_path.write_text(json.dumps(spec))
    board = run_matrix(runner, spec_path, tmp / "fault_leaderboard.json",
                       env_extra={"VGOD_FAULTS": "vbm.loss=nan@1"})
    if board is None:
        return
    statuses = {c["detector"]: c for c in board["cells"]}
    vbm = statuses.get("VBM", {})
    deg = statuses.get("Deg", {})
    check(vbm.get("status") == "failed",
          f"faulted VBM cell status {vbm.get('status')!r}, want 'failed'")
    check("diverge" in vbm.get("error", "").lower()
          or "finite" in vbm.get("error", "").lower()
          or vbm.get("error"),
          "faulted VBM cell carries no error message")
    check(deg.get("status") == "ok",
          f"Deg cell status {deg.get('status')!r}, want 'ok' — the fault "
          "leaked across cells")
    if not ERRORS:
        print("fault isolation: VBM cell failed alone, Deg cell survived")


def update_baselines(board, baselines_path, margin=0.12):
    """Regenerates matrix_baselines.json from a fresh leaderboard: AUC
    bands at mean +/- (margin + observed std), clamped to [0, 1], plus
    VGOD rank bands with one position of slack."""
    bands = {}
    for row in board.get("summary", []):
        if row["seeds_ok"] == 0:
            continue
        key = (f'{row["dataset"]}.{row["regime"]}.{row["detector"]}'
               f'.auc_mean')
        slack = margin + row["auc_std"]
        bands[key] = {"min": round(max(0.0, row["auc_mean"] - slack), 4),
                      "max": round(min(1.0, row["auc_mean"] + slack), 4)}
    ranks = {}
    n_detectors = len(board["spec"]["detectors"])
    for regime, rank in sorted(vgod_ranks(board).items()):
        ranks[regime] = {"min": 1, "max": min(n_detectors, rank + 1)}
    doc = {
        "_comment": [
            "Tolerance bands for the benchmark-matrix gate "
            "(tools/check_matrix.py, docs/BENCHMARKS.md).",
            "Generated with --update from a fresh ci.json run; bands are "
            "mean +/- (0.12 + std) so they catch real regressions "
            "(a detector losing its signal, ranks flipping) but tolerate "
            "cross-platform libm jitter.",
            "'matrix' bands are also consumable by check_bench.py "
            "--matrix <leaderboard.json>.",
        ],
        "matrix": bands,
        "ranks": ranks,
    }
    Path(baselines_path).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {baselines_path}: {len(bands)} cell bands, "
          f"{len(ranks)} rank bands")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runner", required=True, help="path to matrix_runner")
    parser.add_argument("--spec", required=True,
                        help="path to the matrix spec JSON (ci.json)")
    parser.add_argument("--baselines", required=True,
                        help="path to bench/matrix_baselines.json")
    parser.add_argument("--update", action="store_true",
                        help="regenerate --baselines from this run instead "
                             "of gating against it")
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    with tempfile.TemporaryDirectory(prefix="vgod_check_matrix_") as tmp:
        tmp = Path(tmp)
        board = run_matrix(args.runner, args.spec, tmp / "leaderboard.json")
        if board is None:
            return finish("check_matrix", VERDICT)
        validate_schema(board, spec)

        # Determinism: a --no-timing artifact must be byte-identical at
        # different thread counts.
        a = tmp / "lb_t1.json"
        b = tmp / "lb_t4.json"
        run_matrix(args.runner, args.spec, a, threads=1, no_timing=True)
        run_matrix(args.runner, args.spec, b, threads=4, no_timing=True)
        if a.exists() and b.exists():
            check(a.read_bytes() == b.read_bytes(),
                  "no-timing leaderboards differ between 1 and 4 threads "
                  "(determinism contract broken)")

        if args.update:
            update_baselines(board, args.baselines)
        else:
            baselines = json.loads(Path(args.baselines).read_text())
            check_band_map(matrix_metrics(board),
                           baselines.get("matrix", {}), "matrix")
            check_rank_bands(board, baselines)
            check_perturbation_rejected(board, baselines)

        check_fault_isolation(args.runner, tmp)
    return finish("check_matrix", VERDICT)


if __name__ == "__main__":
    sys.exit(main())
