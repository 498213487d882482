#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck          # toy sizes, every output check
    python3 perfbench/run.py --workload <name> --seed 1 --seconds 20 --trace 0 --fp32-full

Run from the repository root. The harness and the checkpoint library
(../src) are compiled into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on the first run and rebuilt incrementally after.
Build output goes to stderr, so the last line of stdout is the harness's
JSON result. Span files of traced runs go to .bench_out/. Exits non-zero
when the build fails, the run fails an output check, or the run exceeds its
time limit.
"""
import fcntl
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(root: str) -> str:
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "cnr_perfbench")


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    args = [binary, *sys.argv[1:], "--out-dir", os.path.join(root, ".bench_out")]
    proc = subprocess.Popen(args, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
