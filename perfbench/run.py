#!/usr/bin/env python3
"""Ocasta benchmark: open-loop traffic on ocastad plus the repair pipeline.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]   # every workload, full report
  python3 perfbench/run.py --selftest                           # the benchmark's own tests

Workloads: serve-memory, replicate-quorum, repair, and record-durable,
which BENCHMARK.json leaves out (see perfbench/README.md). The first call
builds ocasta_core, ocasta_cli and the runner from source into
.bench_build/perfbench. Each run prints a report, then as its last line
one JSON object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
It exits non-zero when an output check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ["record-durable", "serve-memory", "replicate-quorum", "repair"]
RUNNER_TIMEOUT_S = 170
# Runs whose CPU steal exceeds this share are flagged (kept and reported).
STEAL_FLAG_PCT = 10.0


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds into .bench_build/perfbench; returns the bin dir."""
    for need in ("src", os.path.join("tools", "ocasta_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit(f"run.py: {need} not found next to perfbench/; "
                             "run from the root of a full checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-B", BUILD, "-S", HERE, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return BUILD


# --- Host stamp --------------------------------------------------------------

def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fdatasync_probe(directory, n=100):
    """p50/p99 of fdatasync after a 4 KiB append, in microseconds."""
    path = os.path.join(directory, "fsync-probe")
    samples = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        block = b"x" * 4096
        for _ in range(n):
            os.write(fd, block)
            t0 = time.perf_counter_ns()
            os.fdatasync(fd)
            samples.append((time.perf_counter_ns() - t0) / 1e3)
    finally:
        os.close(fd)
        os.unlink(path)
    samples.sort()
    return samples[len(samples) // 2], samples[min(len(samples) - 1, int(len(samples) * 0.99))]


def host_stamp(before, after, fsync):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8]) or 1
    steal = 100.0 * delta[7] / total if len(delta) > 7 else 0.0
    idle = 100.0 * (delta[3] + delta[4]) / total
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "steal_pct": round(steal, 2),
        "idle_pct": round(idle, 2),
        "fdatasync_p50_us": round(fsync[0], 1),
        "fdatasync_p99_us": round(fsync[1], 1),
        "steal_flagged": steal > STEAL_FLAG_PCT,
    }


# --- One workload run --------------------------------------------------------

def run_workload(bindir, workload, seed, seconds, trace, work):
    cmd = [os.path.join(bindir, "perfbench_runner"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--cli", os.path.join(bindir, "ocasta_cli"), "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            process_group=0)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        log(f"{workload}: runner timed out")
    finally:
        # The runner's daemons share its process group: stop whatever is left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "values": {}, "texts": {},
                "failures": [f"runner exited with {proc.returncode} and no result"]}
    return json.loads(lines[-1])


def end_to_end(values, names):
    return {name: values.get(name) for name in names}


def per_layer(workload, values, names):
    out = {}
    for name in names:
        out[name] = values.get(name, 0.0)
    # Values the traced run takes from its untraced half.
    untraced = {k[len("untraced."):]: v for k, v in values.items() if k.startswith("untraced.")}
    traced = {k[len("traced."):]: v for k, v in values.items() if k.startswith("traced.")}
    mapping = {
        "loadgen.late_us_p99": untraced.get("late_us_p99", 0.0),
        "loadgen.slo_ops_s": untraced.get("slo_ops_s", 0.0),
        "loadgen.read_tail_us": untraced.get("read_tail_us", 0.0),
        "loadgen.write_tail_us": untraced.get("write_tail_us", 0.0),
        "persist.wal_bytes_per_user_byte": untraced.get("wal_bytes_per_user_byte", 0.0),
        "persist.stored_bytes_per_user_byte": untraced.get("stored_bytes_per_user_byte", 0.0),
    }
    if workload == "repair":
        mapping["trace.overhead_us"] = traced.get("op_p50_us", 0.0) - untraced.get("op_p50_us", 0.0)
        for k in ("repair_p95_ms", "table2_p50_ms", "errors_fixed", "screenshots_mean",
                  "accuracy_pct"):
            mapping[f"repair.{k}"] = values.get(k, 0.0)
    else:
        mapping["trace.overhead_us"] = traced.get("all_p50_us", 0.0) - untraced.get("all_p50_us", 0.0)
        mapping["loadgen.get_p50_us"] = untraced.get("read_p50_us", 0.0)
        mapping["loadgen.put_p50_us"] = untraced.get("write_p50_us", 0.0)
    for name, value in mapping.items():
        if name in out:
            out[name] = value
    return out


def one_run(bindir, benchmark, workload, seed, seconds, trace):
    os.makedirs(RUNS, exist_ok=True)
    work = os.path.join(RUNS, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        fsync = fdatasync_probe(work)
        before = cpu_times()
        result = run_workload(bindir, workload, seed, seconds, trace, work)
        after = cpu_times()
        spans = os.path.join(work, "spans.tsv")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(RUNS, f"spans-{workload}.tsv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["host"] = host_stamp(before, after, fsync)
    if trace:
        names = [m["name"] for m in benchmark["per_layer"]]
        metrics = per_layer(workload, result["values"], names)
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    else:
        names = [m["name"] for m in benchmark["end_to_end"]]
        metrics = end_to_end(result["values"], names)
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    missing = [n for n, v in metrics.items() if v is None]
    if missing:
        result["correct"] = False
        result["failures"].append("metrics not measured: " + ", ".join(missing))
    result["metrics"] = {n: {"value": v if v is not None else 0.0, "unit": units[n]}
                         for n, v in metrics.items()}
    return result


def print_report(workload, seed, result):
    host = result["host"]
    print(f"== {workload} (seed {seed}) ==")
    print("host: nproc={nproc} cpu='{cpu_model}' steal={steal_pct}% idle={idle_pct}% "
          "fdatasync p50={fdatasync_p50_us}us p99={fdatasync_p99_us}us".format(**host)
          + ("  [FLAGGED: steal above %.0f%%]" % STEAL_FLAG_PCT if host["steal_flagged"] else ""))
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    extra = {k: v for k, v in result["values"].items() if k not in result["metrics"]}
    for name in sorted(extra):
        value = extra[name]
        print(f"  {name:40s} {value if value is not None else float('nan'):>16.6g}")
    for name, text in sorted(result.get("texts", {}).items()):
        print(f"  {name:40s} {text}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for failure in result.get("failures", []):
        print(f"  CHECK FAILED: {failure}")


def final_line(result):
    return json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]), "metrics": result["metrics"]})


def main():
    # Turn SIGTERM into an exit, so the finally blocks stop the runner's
    # process group and remove the run's scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload and report")
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()

    benchmark = spec()
    seconds = args.seconds or benchmark["run_seconds"]
    bindir = build()

    if args.selftest:
        return subprocess.run([os.path.join(bindir, "perfbench_selftest")]).returncode

    if args.all:
        ok = True
        for workload in WORKLOADS:
            result = one_run(bindir, benchmark, workload, args.seed, seconds, args.trace == 1)
            print_report(workload, args.seed, result)
            ok = ok and result["correct"]
        return 0 if ok else 1

    if not args.workload:
        ap.error("--workload, --all or --selftest is required")
    result = one_run(bindir, benchmark, args.workload, args.seed, seconds, args.trace == 1)
    print_report(args.workload, args.seed, result)
    print(final_line(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
