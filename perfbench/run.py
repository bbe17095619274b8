#!/usr/bin/env python3
"""Build and run the repository benchmark on one workload.

    python3 perfbench/run.py --workload <bulk_1408|rpc_64|server_churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source tree. It configures and builds the library
and the benchmark program fbs_perfbench from source (CMake, Release) under
the directory named by $CARGO_TARGET_DIR, or .bench_build, runs it, and
passes its report through. A provenance line precedes the result; the last line of
standard output is the result JSON. Every result is also appended, with its
provenance, to <build dir>/results/<workload>.jsonl, which compare.py reads.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out):
    """Configure once, then build fbs_perfbench (a no-op when up to date)."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "--target", "fbs_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result names the
    code it measured even where there is no git checkout."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model():
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cgroup_cpu_quota():
    """CPU limit of this cgroup as 'quota period' in microseconds, or 'max'."""
    v2 = read("/sys/fs/cgroup/cpu.max")
    if v2:
        return v2
    quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None:
        return None
    return "max" if quota == "-1" else f"{quota} {period}"


def provenance(out):
    info = json.loads((out / "build_info.json").read_text())
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        **info,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "kernel": platform.release(),
        "transport": "UDP over kernel loopback (127.0.0.1), one process",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}: run from a source tree")
    out = build_dir()
    build(out)
    prov = provenance(out)

    cmd = [str(out / "fbs_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fbs_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail(f"fbs_perfbench exited with code {r.returncode}")
    result = json.loads(lines[-1])

    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(lines[-1], flush=True)

    results = out / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "result": result}
    with open(results / f"{args.workload}.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
