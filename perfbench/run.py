#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ twice under
$CARGO_TARGET_DIR (default .bench_build): a Release build with
TRIE_STATS=OFF for the untraced run, which gives the end-to-end metrics,
and a Release build with TRIE_STATS=ON for the traced run, which gives
the per-layer metrics. A traced run also makes an untraced run of the
same seed, so that trace.overhead_frac compares the two.

Prints the full report (provenance, every metric, sample counts, checks)
as one JSON line, then, as the last line, the summary object
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json lists for the mode. Exits non-zero when a build fails or a
correctness check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = "perfbench_bin"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(base)


def build(stats):
    """Configures (once) and builds one flavour; returns the binary path."""
    out = os.path.join(build_root(), "perfbench-stats-" + ("on" if stats else "off"))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DTRIE_STATS=" + ("ON" if stats else "OFF")]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, BIN)


def run_bin(binary, args):
    """Runs the benchmark binary; returns (exit code, parsed last line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(binary)} printed nothing (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def git_sha():
    """HEAD of the repository perfbench/ sits in, or None outside git."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            if os.path.basename(d) == "reference":
                continue
            for f in sorted(files):
                if f.endswith((".hpp", ".cpp", ".py", ".txt")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found beside perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)

    off = build(stats=False)
    on = build(stats=True)
    if a.self_test:
        rc, res = run_bin(off, ["--self-test"])
        print(json.dumps(res))
        sys.exit(rc)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload!r}")

    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    rc, untraced = run_bin(off, common + ["--trace", "0"])
    runs = [untraced]
    wanted = spec["end_to_end"]
    metrics = dict(untraced["metrics"])
    if a.trace:
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        spans = os.path.join(traces, f"{a.workload}-seed{a.seed}.jsonl")
        rc2, traced = run_bin(on, common + ["--trace", "1", "--spans-out", spans])
        rc = rc or rc2
        runs.append(traced)
        metrics = dict(traced["metrics"])
        tp_off = untraced["metrics"]["throughput_mops"]["value"]
        tp_on = traced["metrics"]["throughput_mops"]["value"]
        metrics["trace.overhead_frac"] = {
            "value": 1.0 - tp_on / tp_off if tp_off else 0.0, "unit": "ratio"}
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    summary = {
        "correct": all(r["correct"] for r in runs) and rc == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    report = {
        "provenance": dict(untraced["provenance"], git_sha=git_sha(),
                           source_sha256=source_digest(), cpu=cpu_model()),
        "params": untraced["params"],
        "runs": runs,
        "summary": summary,
    }
    results = os.path.join(build_root(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{a.workload}-seed{a.seed}-trace{a.trace}.json"),
              "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
