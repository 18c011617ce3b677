#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The preinfer library and the perfbench
binary are built from source under .bench_build/ (or $CARGO_TARGET_DIR when
set) with the Release build type; an up-to-date build is a no-op. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import ctypes
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that has not ended by then is stopped and counted as failed.
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # linux/personality.h


def source_digest():
    """Short SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree: no history to name
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fixed_layout():
    """Turn off address-space randomization for this process and what it
    execs. Where each run puts its heap, stack and libraries moved the serve
    workload's speed by up to 25% from run to run; with one fixed layout the
    runs agree. Best effort: where personality(2) is refused the run goes
    on with a random layout, and the run record says so."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def build(build_root):
    build_dir = os.path.join(build_root, "cmake")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no preinfer sources next to perfbench/ "
              "(run from the root of a full checkout)", file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    # perfbench takes paths relative to the checkout root (the serve
    # workload's unix socket path must stay short).
    args = [binary] + sys.argv[1:] + ["--out-dir", os.path.relpath(out_dir, ROOT)]
    proc = subprocess.Popen(args, cwd=ROOT, env=env, preexec_fn=fixed_layout)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
