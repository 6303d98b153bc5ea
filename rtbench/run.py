#!/usr/bin/env python3
"""Real-time serving benchmark for fallsense (see rtbench/README.md).

Run from the repository root:

    python3 rtbench/run.py --workload steady_float --seed 7 --seconds 10 --trace 0
    python3 rtbench/run.py --self-test

Builds rtbench/ (which compiles ../src) into $CARGO_TARGET_DIR/rtbench
(default .bench_build/rtbench), runs the rtbench binary and prints every metric by
name, unit and sample count.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
for --trace 0 and the per-layer metrics, derived from the Chrome trace the
traced run writes, for --trace 1.  A failed correctness gate exits non-zero
without a result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("steady_float", "burst_wire_int8", "sharded_capacity")
END_TO_END = (
    "decision_p50_ms", "decision_p90_ms", "slo_met_share", "admitted_share",
    "cpu_us_per_sample", "capacity_wearers", "setup_s", "fleet_rss_mb",
)
# The tail: printed with every run and reported per layer from traced runs,
# never bounded (it follows the heaviest ticks and the host's jitter).
UNBOUNDED = {"decision_p99_ms": "ms"}
# Set-up is timed in this many fresh processes per run (the main run is one).
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 700.0
NN_LAYERS = ("conv", "relu", "pool", "dense64", "dense32", "dense1", "sigmoid")


def fail(msg, code=2):
    print(f"rtbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no fallsense sources (src/CMakeLists.txt) under the current directory; "
             "run from the repository root")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "rtbench"
    started = time.monotonic()
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "rtbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_DEADLINE_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    left = BUILD_DEADLINE_S - (time.monotonic() - started)
    cmd = ["cmake", "--build", str(build_dir), "--target", "rtbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=left).returncode != 0:
        fail("build failed")
    return build_dir


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "rtbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_binary(binary, args, deadline):
    """Run the rtbench binary; returns (returncode, parsed last line or None, stderr,
    stdout lines)."""
    left = deadline - time.monotonic()
    if left <= 1:
        fail("out of time before rtbench could run")
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"rtbench did not finish within {left:.0f} s: {' '.join(args)}", 1)
    result = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr, lines


def fmt(value):
    return f"{value:.6g}"


def print_metric(name, value, unit, count, note=""):
    print(f"  {name:<34} {fmt(value):>14} {unit:<8} n={count}{note}")


# ---------------------------------------------------------------- per layer

def quantile(values, q):
    s = sorted(values)
    if not s:
        return 0.0
    return s[min(len(s) - 1, max(0, int(q * len(s) + 0.999999) - 1))]


class Trace:
    def __init__(self, path):
        with open(path) as f:
            data = json.load(f)
        self.values = data["otherData"]["values"]
        self.end_to_end = {m["name"]: m for m in data["otherData"]["end_to_end"]}
        self.spans = defaultdict(list)
        self.children = defaultdict(list)
        for e in data["traceEvents"]:
            if e.get("ph") != "X":
                continue
            self.spans[(e["name"], e["args"]["phase"])].append(e)
            self.children[e["args"]["parent"]].append(e)

    def get(self, name, phase="main"):
        return self.spans.get((name, phase), [])

    @staticmethod
    def total(spans, key=None):
        return sum(e["args"][key] if key else e["dur"] for e in spans)


def per_unit(spans, key, scale=1.0):
    n = Trace.total(spans, key)
    if not spans or n == 0:
        return None
    return Trace.total(spans) * scale / n, int(n)


def mean_of(values):
    return (statistics.fmean(values), len(values)) if values else None


def per_layer_metrics(trace):
    """name -> (value, unit, count); value None when the layer is not run."""
    m = {}
    t = trace

    feed = t.get("serve.feed") or t.get("net.gateway", "replay")
    m["serve.feed_ns_per_sample"] = (per_unit(feed, "samples", 1000.0), "ns")

    ticks = t.get("serve.tick") or t.get("serve.tick", "replay")
    self_us = []
    for e in ticks:
        scored = sum(c["dur"] for c in t.children[e["args"]["id"]]
                     if c["name"] in ("nn.score", "quant.score"))
        self_us.append(e["dur"] - scored)
    m["serve.tick_self_us"] = (mean_of(self_us), "us")

    m["core.ingest_ns_per_sample"] = (per_unit(t.get("core.ingest"), "samples", 1000.0), "ns")
    m["core.apply_ns_per_window"] = (per_unit(t.get("core.apply"), "windows", 1000.0), "ns")

    nn_calls = t.get("nn.score")
    m["nn.score_us_per_window"] = (per_unit(nn_calls, "windows"), "us")
    m["nn.score_us_per_call"] = (mean_of([e["dur"] for e in nn_calls]), "us")
    batches = [e["args"]["windows"] for e in nn_calls]
    m["nn.batch_windows_mean"] = (mean_of(batches), "windows")
    m["nn.batch_windows_p99"] = ((quantile(batches, 0.99), len(batches)) if batches else None,
                                 "windows")
    whole = t.get("nn.forward", "layers")
    replayed = int(Trace.total(whole, "windows"))
    layer_total = 0.0
    for layer in NN_LAYERS:
        spans = t.get(f"nn.layer.{layer}", "layers")
        layer_total += Trace.total(spans)
        value = (Trace.total(spans) / replayed, replayed) if replayed else None
        m[f"nn.layer.{layer}_us_per_window"] = (value, "us")
    m["nn.layer.glue_us_per_window"] = (
        ((Trace.total(whole) - layer_total) / replayed, replayed) if replayed else None, "us")

    q_calls = t.get("quant.score")
    m["quant.score_us_per_window"] = (per_unit(q_calls, "windows"), "us")
    m["quant.batch_windows_mean"] = (mean_of([e["args"]["windows"] for e in q_calls]), "windows")

    encode = t.get("net.encode")
    m["net.encode_ns_per_sample"] = (per_unit(encode, "samples", 1000.0), "ns")
    m["net.gateway_ns_per_sample"] = (
        per_unit(t.get("net.gateway", "replay"), "samples", 1000.0), "ns")
    sent = Trace.total(encode, "samples")
    m["net.bytes_per_sample"] = (
        (Trace.total(encode, "bytes") / sent, int(sent)) if sent else None, "bytes")
    server = t.get("net.server")
    m["net.server_cpu_share"] = (
        (server[0]["args"]["cpu_s"] / (server[0]["dur"] * 1e-6), 1) if server else None, "ratio")
    m["net.status_frames"] = (
        (t.values["net.status_frames"], 1) if "net.status_frames" in t.values else None, "count")

    one = {e["args"]["tick"]: e["dur"] for e in t.get("serve.tick", "threads1")}
    common = [e for e in t.get("serve.tick") if e["args"]["tick"] in one]
    if common:
        mean_1 = statistics.fmean(one[e["args"]["tick"]] for e in common)
        mean_n = statistics.fmean(e["dur"] for e in common)
        m["util.parallel_speedup"] = ((mean_1 / mean_n, len(common)), "x")
    else:
        m["util.parallel_speedup"] = (None, "x")

    snaps = t.get("ckpt.snapshot")
    m["ckpt.snapshot_ms"] = (mean_of([e["dur"] / 1000.0 for e in snaps]), "ms")
    wearers = Trace.total(snaps, "wearers")
    m["ckpt.bytes_per_wearer"] = (
        (Trace.total(snaps, "bytes") / wearers, len(snaps)) if wearers else None, "bytes")
    m["serve.churn_us"] = (mean_of([e["dur"] for e in t.get("serve.churn")]), "us")

    lags = [e["dur"] / 1000.0 for e in t.get("loadgen.lag")]
    m["loadgen.send_lag_p99_ms"] = ((quantile(lags, 0.99), len(lags)) if lags else None, "ms")

    for name, unit in UNBOUNDED.items():
        e2e = t.end_to_end.get(name)
        m[name] = ((e2e["value"], e2e["count"]) if e2e else None, unit)

    base = t.values.get("cpu_us_per_sample.untraced")
    traced = t.values.get("cpu_us_per_sample.traced")
    m["trace.overhead_pct"] = (
        ((traced - base) / base * 100.0, 2) if base and traced is not None else None, "%")
    return m


def paper_line(trace, m):
    ingest = m["core.ingest_ns_per_sample"][0]
    score = m["nn.score_us_per_window"][0]
    fusion = trace.values.get("mcu.fusion_ms")
    infer = trace.values.get("mcu.inference_ms")
    if not (ingest and score and fusion and infer):
        return None
    window = trace.values["window_samples"]
    host_ingest = ingest[0] * window / 1000.0
    host_score = score[0]
    return (f"paper split, one {int(window)}-sample window: host ingest {host_ingest:.2f} us "
            f"+ score {host_score:.2f} us (ingest {100 * host_ingest / (host_ingest + host_score):.0f} %); "
            f"STM32F722 model fusion {fusion:.2f} ms + inference {infer:.2f} ms "
            f"(fusion {100 * fusion / (fusion + infer):.0f} %); paper 3 ms + 4 ms (fusion 43 %)")


# ---------------------------------------------------------------- modes

def run_workload(args, root, binary, deadline):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--commit", source_id(root)]
    if args.trace:
        trace_dir = binary.parent / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        rc, result, err, lines = run_binary(binary, common + ["--trace-out", str(trace_path)],
                                            deadline)
    else:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            rc, result, err, _ = run_binary(binary, common + ["--setup-only"], deadline)
            if rc != 0 or result is None:
                sys.stderr.write(err)
                fail(f"set-up run failed (exit {rc})", 1)
            setups.append(result["metrics"][0]["value"])
        rc, result, err, lines = run_binary(binary, common, deadline)
    sys.stderr.write(err)
    if rc != 0 or result is None:
        fail(f"{args.workload}: rtbench failed (exit {rc}); no result", 1)

    print(f"rtbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines[:-1]:
        print(line)
    metrics = {}
    if args.trace:
        trace = Trace(trace_path)
        print(f"trace: {trace_path} ({sum(len(v) for v in trace.spans.values())} spans)")
        layers = per_layer_metrics(trace)
        print("per-layer metrics:")
        for name, (value, unit) in layers.items():
            if value is None:
                print_metric(name, 0.0, unit, 0, "  (layer not exercised by this workload)")
                metrics[name] = {"value": 0.0, "unit": unit}
            else:
                print_metric(name, value[0], unit, value[1])
                metrics[name] = {"value": value[0], "unit": unit}
        if args.workload == "steady_float":
            line = paper_line(trace, layers)
            if line:
                print(line)
    else:
        by_name = {m["name"]: m for m in result["metrics"]}
        setups.append(by_name["setup_s"]["value"])
        by_name["setup_s"]["value"] = statistics.median(setups)
        by_name["setup_s"]["count"] = len(setups)
        clock = "wall" if args.workload == "sharded_capacity" else "service"
        print(f"end-to-end metrics (decision latency and capacity on the {clock} clock):")
        for name in END_TO_END:
            m = by_name[name]
            print_metric(name, m["value"], m["unit"], m["count"])
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
        print("not bounded (the tail):")
        for name in UNBOUNDED:
            m = by_name[name]
            print_metric(name, m["value"], m["unit"], m["count"])
    print(f"correctness gate: passed ({result['attempted']} windows due, "
          f"{result['failed']} undecided)")
    print(json.dumps({"correct": True, "attempted": max(1, result["attempted"]),
                      "failed": result["failed"], "metrics": metrics}))


def self_test(args, binary, deadline):
    """The gate must pass on a clean short run and fail once a score bit flips."""
    ok = True
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        clean, _, clean_err, _ = run_binary(binary, base, deadline)
        flipped, _, err, _ = run_binary(binary, base + ["--perturb"], deadline)
        fired = "self-test: perturbation fired" in err
        caught = flipped == 3 and fired
        print(f"{workload}: clean run exit {clean}, perturbed run exit {flipped}, "
              f"bit flip {'fired' if fired else 'did NOT fire'} -> "
              f"{'gate caught it' if caught and clean == 0 else 'SELF-TEST FAILED'}")
        for line in err.splitlines():
            if line.startswith("gate: wearer"):
                print(f"    {line}")
        if clean != 0:
            sys.stderr.write(clean_err)
        ok = ok and caught and clean == 0
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that the correctness gate catches a flipped score bit")
    args = p.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    binary = build(root) / "rtbench"
    # Building may take the first run's longer allowance; the run itself
    # gets its own deadline.
    deadline = max(deadline, time.monotonic() + RUN_DEADLINE_S)
    if args.self_test:
        self_test(args, binary, deadline)
    else:
        run_workload(args, root, binary, deadline)


if __name__ == "__main__":
    main()
