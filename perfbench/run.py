#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <croupier_steady|paper_mix|stream_dynamics> \
        --seed <n> --seconds <s> --trace <0|1>

The harness is built with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build` at the checkout root). Build output goes to stderr; the
harness's report goes to stdout, and its last line is the JSON result. The exit code
is the harness's: 0 when every correctness check passed, 1 when one failed, 2 on a
usage or build error.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175
# What the source digest covers: everything the harness build compiles.
DIGEST_PATHS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
DIGEST_SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the paths and contents of the sources the build compiles."""
    digest = hashlib.sha256()
    for top in DIGEST_PATHS:
        base = os.path.join(ROOT, top)
        if os.path.isfile(base):
            files = [base]
        else:
            files = []
            for directory, subdirs, names in os.walk(base):
                subdirs[:] = sorted(d for d in subdirs if d not in DIGEST_SKIP_DIRS)
                files.extend(os.path.join(directory, name) for name in sorted(names))
        for path in files:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def command_output(args):
    try:
        result = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def main():
    for required in ("Cargo.toml", "Cargo.lock", "crates"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"{required} not found next to perfbench/: run from a full checkout")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    # Only this checkout's own repository counts, not one that happens to enclose it.
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_COMMIT"] = (
        commit or f"none (not a git checkout); source digest {source_digest()}"
    )
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_TRACE_DIR"] = os.path.join(target_dir, "perfbench-trace")
    # One glibc malloc arena: otherwise the peak resident set depends on which arena
    # each engine worker thread happens to allocate from, and varies run to run.
    env["MALLOC_ARENA_MAX"] = "1"

    binary = os.path.join(target_dir, "release", "perfbench")
    process = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        process.kill()
        process.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
