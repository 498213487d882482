#!/usr/bin/env python3
"""Regenerates the reference figures of perfbench/README.md.

    python3 perfbench/reference.py [--seed 1] [--seconds 20]

Runs every workload twice through run.py — as configured, and as the fp32
always-full reference (no quantization, every checkpoint full) — and prints
the end-to-end metrics of both with the write-bandwidth and storage-capacity
reduction factors (reference / configured) that the paper reports as 6-17x
and 2.5-8x. Exits non-zero if any run fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["interval-adaptive4", "sharded-far-restore", "delta-stream"]


def run(root, workload, seed, seconds, fp32):
    args = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if fp32:
        args.append("--fp32-full")
    out = subprocess.run(args, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload}{' fp32-full' if fp32 else ''}: exit {out.returncode}")
    return {k: v["value"] for k, v in json.loads(out.stdout.strip().splitlines()[-1])["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    a = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for w in WORKLOADS:
        cfg = run(root, w, a.seed, a.seconds, False)
        ref = run(root, w, a.seed, a.seconds, True)
        print(f"## {w} (seed {a.seed}, {a.seconds} s)")
        print(f"| metric | configured | fp32 always-full |")
        print(f"|---|---:|---:|")
        for k in cfg:
            print(f"| {k} | {cfg[k]:.6g} | {ref[k]:.6g} |")
        print(f"\nwrite-bandwidth reduction: {ref['ckpt_write_bytes'] / cfg['ckpt_write_bytes']:.2f}x, "
              f"storage-capacity reduction: {ref['store_peak_bytes'] / cfg['store_peak_bytes']:.2f}x\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
