#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
find it built.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  Index files go to a per-run scratch directory
that is removed afterwards; --trace 1 writes its spans to
.bench_build/perfbench/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tdam_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "tdam_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_mixed", "scan_large", "ingest_live"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if os.environ.get("TDAM_KERNEL"):
        fail("TDAM_KERNEL is set; unset it to measure the auto-selected kernels")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    scratch = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
