#!/usr/bin/env python3
"""zbench entry point: build the benchmark, run one workload under a watchdog.

Run from the repository root:

    python3 zbench/run.py --workload serve_mix --seed 1 --seconds 15 --trace 0

The benchmark is compiled from the repository's src/ tree into the build
directory ($CARGO_TARGET_DIR, default .bench_build) on first use; later runs
only re-make what changed.  The zbench binary then runs with its stdout passed
through, and the last line printed is its JSON result.

The watchdog: if the binary has not finished within --watchdog-s seconds (a
hang, such as a deadlocked thread pool), its process group is killed and the
run is reported as failed, with every operation it had announced counted as
failed.  A crash is reported the same way.  Build failures and usage errors
exit non-zero without printing a result.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_mix", "serve_plan_churn", "fleet_mixed")
# Run limit once the binary is built; a run must end within 180 s.
RUN_LIMIT_S = 170.0
OPS_PREFIX = "#zbench-ops "


def log(msg):
    print(f"zbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the zbench binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = [["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", build_dir, "--target", "zbench", "-j", jobs]]
    for cmd in cmds:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "zbench")


def metric_names(trace):
    """(name, unit) of every metric the run must report, from BENCHMARK.json."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return []
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec.get(key, [])]


def failed_result(ops, trace):
    """The result of a run that hung or crashed: every operation failed."""
    ops = max(1, ops)
    return {"correct": False, "attempted": ops, "failed": ops,
            "metrics": {n: {"value": None, "unit": u}
                        for n, u in metric_names(trace)}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a fraction of a second")
    ap.add_argument("--watchdog-s", type=float, default=None,
                    help="kill the run after this many seconds "
                         f"(default {RUN_LIMIT_S:.0f})")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1
    watchdog_s = args.watchdog_s or RUN_LIMIT_S

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    if args.tiny:
        cmd.append("--tiny")
    # Every pool the workloads use is passed explicitly; pinning the
    # process-wide default keeps any library-internal use of it fixed too.
    env = dict(os.environ, ZEIOT_THREADS="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            process_group=0)

    ops = [0]
    last = [None]

    def pump():
        for line in proc.stdout:
            if line.startswith(OPS_PREFIX):
                ops[0] += int(line[len(OPS_PREFIX):])
                continue
            if last[0] is not None:
                sys.stdout.write(last[0])
                sys.stdout.flush()
            last[0] = line

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=watchdog_s)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    reader.join()
    if code is None:
        if last[0] is not None:
            sys.stdout.write(last[0])
        log(f"watchdog: {args.workload} still running after {watchdog_s:g} s;"
            " killed, every operation counted as failed")
        print(json.dumps(failed_result(ops[0], args.trace)), flush=True)
        return 0
    if code == 2:
        log("the benchmark binary rejected its arguments")
        return 2
    try:
        result = json.loads(last[0]) if code == 0 and last[0] else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        if last[0] is not None:
            sys.stdout.write(last[0])
        log(f"{args.workload} ended with exit code {code} and no result;"
            " every operation counted as failed")
        print(json.dumps(failed_result(ops[0], args.trace)), flush=True)
        return 0
    sys.stdout.write(last[0])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
