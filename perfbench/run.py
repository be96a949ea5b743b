#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <qvr-pipeline|fleet-openloop|
                                        pixel-composite>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
the qvr library and the benchmark program into .bench_build/ (CMake,
Ninja when available); later calls rebuild incrementally.  Build
output goes to stderr, so the last line of stdout is always the
program's JSON result.  A traced run also writes its Chrome
trace-event JSON to .bench_build/traces/.

Exits non-zero without printing a result when the build fails (for
example when the library sources are missing).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "qvr_perfbench"
WORKLOADS = ("qvr-pipeline", "fleet-openloop", "pixel-composite")
BUILD_TIMEOUT_S = 840
# A run measures for --seconds plus bounded set-up and checks; past
# this the run is broken, so it is stopped rather than left hanging.
RUN_TIMEOUT_S = 175


def build() -> bool:
    """Configure (once) and build; returns False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return False
    return BINARY.exists()


def source_version() -> str:
    """git sha of the checkout, else a digest of the library sources."""
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError("not a git checkout")
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: library sources not found under src/",
              file=sys.stderr)
        return 3
    if not build():
        return 3

    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--git-sha", source_version()]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ)
    if args.workload == "pixel-composite":
        # Every composite returns a fresh 1920x2160 image (50 MB) that
        # malloc maps anew.  In 4 KiB pages that is ~12,000 first-touch
        # page faults per call, whose cost on a virtual machine depends
        # on the host (~40% of a composite on a shared 4-vCPU KVM
        # guest); transparent huge pages for malloc's mappings (glibc
        # 2.35+, THP "madvise" or "always") cut it to 25 faults.
        env["GLIBC_TUNABLES"] = "glibc.malloc.hugetlb=1"
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, check=False, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
