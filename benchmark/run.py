#!/usr/bin/env python3
"""Build pfair_bench from source and run it.

One run (the last stdout line is the JSON result):
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Smoke test (every workload, small inputs, every check):
    python3 benchmark/run.py --smoke

Noise calibration: N untraced runs per workload on seeds 1..N, plus one
traced run, recorded with the host into benchmark/baseline.json:
    python3 benchmark/run.py --runs N [--seconds S] [--workload NAME ...]

The build lives in .bench_build/ at the repository root.  Build output goes
to stderr, so a failed build prints no result and exits non-zero.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
BINARY = BUILD_DIR / "pfair_bench"
BASELINE = BENCH_DIR / "baseline.json"
WORKLOADS = ["serve-pfair-churn", "serve-gedf-exact", "sim-pd2-16p", "sim-roster"]
PROPERTIES = [
    "tier0.decided_share", "tier1.decided_share", "tier2.decided_share",
    "tier2.memo_hit_share", "approx_share", "admit_share", "live_tasks",
    "pd2.fast_forwarded_share", "remainder.share", "trace.overhead",
]


def build():
    """Configures (once) and builds pfair_bench; returns False on failure."""
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return BINARY.exists()


def stored_digest(workload, seed):
    if not BASELINE.exists():
        return None
    data = json.loads(BASELINE.read_text())
    return data.get("workloads", {}).get(workload, {}).get("digests", {}).get(str(seed))


def bench_args(workload, seed, seconds, trace):
    args = [str(BINARY), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if trace:
        args.append("--trace")
    digest = stored_digest(workload, seed)
    if digest:
        args.append(f"--expect-digest={digest}")
    return args


def run_captured(workload, seed, seconds, trace):
    """Runs once; returns (result JSON, note lines)."""
    out = subprocess.run(bench_args(workload, seed, seconds, trace), capture_output=True,
                         text=True, timeout=seconds * 3 + 120)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: pfair_bench exited {out.returncode}")
    return json.loads(lines[-1]), [l[2:] for l in lines if l.startswith("# ")]


def note_value(notes, key):
    for n in notes:
        if n.startswith(key + " "):
            return n[len(key) + 1:]
    return None


def host_info():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = ""
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                exe = line.split("=", 1)[1]
                ver = subprocess.run([exe, "--version"], capture_output=True, text=True)
                compiler = ver.stdout.splitlines()[0] if ver.stdout else exe
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": "Release", "kernel": platform.release()}


def calibrate(runs, seconds, workloads):
    """Records median, quartiles and spread of each end-to-end metric.  The
    set recorded before is kept as previous_end_to_end, and the drift of
    each median against it is printed, so two calls compare two sets."""
    data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    data["host"] = host_info()
    data["run_seconds"] = seconds
    data.setdefault("workloads", {})
    for w in workloads:
        values, digests, slowdowns = {}, {}, []
        for seed in range(1, runs + 1):
            result, notes = run_captured(w, seed, seconds, False)
            digests[str(seed)] = note_value(notes, "digest")
            slowdowns.append(float(note_value(notes, "host_slowdown")))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        traced, _ = run_captured(w, 1, seconds, True)
        old = data["workloads"].get(w, {})
        entry = {"end_to_end": {}, "digests": digests, "host_slowdown": slowdowns,
                 "properties": {k: traced["metrics"][k]["value"] for k in PROPERTIES}}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0, "values": v}
        if "end_to_end" in old:
            entry["previous_end_to_end"] = old["end_to_end"]
            for name, cur in entry["end_to_end"].items():
                prev = old["end_to_end"].get(name)
                if prev and prev["median"]:
                    drift = (cur["median"] - prev["median"]) / prev["median"]
                    print(f"{w} {name}: spread {cur['spread']:.3f}, median drift {drift:+.3f}")
            for seed, digest in digests.items():
                if old.get("digests", {}).get(seed, digest) != digest:
                    print(f"{w} seed {seed}: digest changed", file=sys.stderr)
        data["workloads"][w] = entry
        BASELINE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, help="calibrate: runs per workload")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.runs and not args.workload:
        ap.error("--workload, --runs or --smoke is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        print("pfair_bench: build failed", file=sys.stderr)
        return 3
    if args.smoke:
        return subprocess.run([str(BINARY), "--smoke"]).returncode
    if args.runs:
        calibrate(args.runs, args.seconds, args.workload or WORKLOADS)
        return 0
    if len(args.workload) != 1:
        ap.error("give one --workload per run")
    sys.stdout.flush()
    return subprocess.run(bench_args(args.workload[0], args.seed, args.seconds,
                                     args.trace == 1)).returncode


if __name__ == "__main__":
    sys.exit(main())
