#!/usr/bin/env python3
"""Commit-path benchmark for the presumed-any workspace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a Cargo package of
its own) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the phases of one workload, each in a fresh
process:

  --trace 0   `setup` (median of several set-ups) and `run` (the
              untraced closed-loop workload); prints the end-to-end
              metrics.
  --trace 1   `run`, `traced` (the same workload with a benchmark-owned
              trace sink) and `layers` (timed direct calls into each
              layer); prints the per-layer metrics.

Every phase checks its outputs. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
records the seed, `nproc`, `wal.force_us` and the figures behind the
metrics. Exits non-zero, without a result line, if the build or any
phase fails, and with `"correct": false` if any check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("contend", "socket")

# Per-phase wall-clock limit, seconds, on top of the measured window.
PHASE_SLACK = 100

END_TO_END = {
    "throughput_tps": "txn/s",
    "commit_p50_us": "us",
    "commit_p99_us": "us",
    "attempts_per_commit": "count",
    "commit_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics, in BENCHMARK.json order, with the phase that
# measures them.
PER_LAYER = [
    ("wal.syncs_per_commit", "count", "run"),
    ("wal.batch_occupancy", "count", "run"),
    ("wal.forces_per_commit", "count", "run"),
    ("wal.force_us_p50", "us", "layers"),
    ("wal.force_us_p99", "us", "layers"),
    ("core.commit_txn_us", "us", "layers"),
    ("core.abort_txn_us", "us", "layers"),
    ("core.msgs_per_commit", "count", "traced"),
    ("engine.txn_us", "us", "layers"),
    ("engine.aborts_per_commit", "count", "run"),
    ("reactor.ticks_per_commit", "count", "run"),
    ("reactor.tick_us", "us", "run"),
    ("reactor.envelopes_per_tick", "count", "run"),
    ("reactor.max_inflight", "count", "run"),
    ("reactor.timers_fired", "count", "run"),
    ("wire.frames_per_commit", "count", "run"),
    ("wire.bytes_per_commit", "B", "run"),
    ("wire.encode_ns", "ns", "layers"),
    ("wire.decode_ns", "ns", "layers"),
    ("wire.drops", "count", "run"),
    ("acta.events_per_commit", "count", "run"),
    ("client.submit_us", "us", "run"),
    ("client.retries_per_commit", "count", "run"),
    ("stage.retry_us", "us", "traced"),
    ("stage.retry_share", "ratio", "traced"),
    ("stage.intake_us", "us", "traced"),
    ("stage.intake_share", "ratio", "traced"),
    ("stage.prepare_us", "us", "traced"),
    ("stage.prepare_share", "ratio", "traced"),
    ("stage.decide_us", "us", "traced"),
    ("stage.decide_share", "ratio", "traced"),
    ("stage.deliver_us", "us", "traced"),
    ("stage.deliver_share", "ratio", "traced"),
    ("stage.cleanup_us", "us", "traced"),
    ("stage.cleanup_share", "ratio", "traced"),
    ("stage.explained_share", "ratio", "traced"),
    ("trace.overhead_share", "ratio", None),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, env):
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        fail("perfbench/Cargo.toml not found; run from the repository root")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "acp-perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")
    return binary


def phase(binary, name, args, env, root):
    cmd = [binary, name, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", os.path.join(root, ".bench_out")]
    # Start each phase with nothing left to write back from the build or
    # an earlier run, so that writeback does not land in its fsyncs.
    os.sync()
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              timeout=args.seconds + PHASE_SLACK)
    except subprocess.TimeoutExpired:
        fail(f"phase {name} timed out")
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"phase {name} exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"phase {name} printed no result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(root, target)

    # Every temporary file of the build and every WAL and socket address
    # book the phases create lives here, inside the checkout.
    tmp = os.path.join(root, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    try:
        binary = build(root, env)
        if args.trace == 0:
            results = {"setup": phase(binary, "setup", args, env, root),
                       "run": phase(binary, "run", args, env, root)}
        else:
            results = {p: phase(binary, p, args, env, root) for p in ("run", "traced", "layers")}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    run = results["run"]
    problems = [f"{p}: {msg}" for p, r in results.items() for msg in r.get("problems", [])]
    correct = all(r.get("correct") is True for r in results.values())

    context = {"nproc": len(os.sched_getaffinity(0))}
    if args.trace == 0:
        setup = results["setup"]
        values = dict(run, setup_s=setup["setup_s"])
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        context["wal.force_us"] = setup["wal.force_us"]
    else:
        traced = results["traced"]
        values = {name: results[source][name] for name, _, source in PER_LAYER if source}
        values["trace.overhead_share"] = 1.0 - traced["throughput_tps"] / run["throughput_tps"]
        metrics = {name: {"value": values[name], "unit": u} for name, u, _ in PER_LAYER}
        context.update({"wal.force_us": results["layers"]["wal.force_us_p50"],
                        "traced_throughput_tps": traced["throughput_tps"],
                        "traced_commit_mean_us": traced["stage.mean_latency_us"],
                        "traced_share": traced["stage.traced_share"],
                        "trace_events": traced["trace.events"]})
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            correct = False
            problems.append(f"metric {name} was not measured")
    context.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "abort_share": run["abort_share"], "failed_share": run["failed_share"],
        "rounds": run["rounds"], "commit_samples": run["commit_samples"],
        "round_tps": run["round_tps"],
        "problems": problems,
    })
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
