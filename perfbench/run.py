#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile|batch|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
benchmark harness and efcc from source (Release) into the build directory
($CARGO_TARGET_DIR if set, else .bench_build); later calls only re-check
the build.  The harness's stdout is passed through: its last line is the
JSON result.  Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_rev(root):
    """git revision when the tree is a checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for sub in ("src", "tools", "CMakeLists.txt"):
        base = root / sub
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build(root, build_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no program sources under {root}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "efcc", "-j", jobs])
    for cmd in steps:
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "batch", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    build(root, build_dir)

    work = build_root / "perfbench-work"
    traces = build_root / "perfbench-traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    # The program sees only its defaults: every EFC_* knob is dropped.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EFC_")}
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--efcc", str(build_dir / "efc" / "tools" / "efcc"),
           "--work-dir", str(work),
           "--trace-out",
           str(traces / f"{args.workload}-{args.seed}.jsonl"),
           "--git-rev", source_rev(root)]
    try:
        out = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if out.returncode != 0:
        fail(f"benchmark exited with status {out.returncode}")
    sys.stdout.write(out.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
