#!/usr/bin/env python3
"""Build and run the partitioning-service benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0
        [--short] [--out RESULT.json]

Workloads: warm_hits, miss_stream, adapt_retrain, offline_train (see
perfbench/README.md). The first run configures and builds the runner and the
repository's libraries into .bench_build/ (or $CARGO_TARGET_DIR); later runs
only rebuild what changed. The runner's output is passed through unchanged:
its last line is the result JSON, the line before it the provenance. With
--out the provenance and result are also written to a file that
perfbench/compare.py reads. Exits non-zero when the build fails, when an
output check fails, or when the runner gives no result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("warm_hits", "miss_stream", "adapt_retrain", "offline_train")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_step(cmd):
    """Runs one build command; True on success (output goes to stderr)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build step failed: {e}")
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.returncode == 0


def build():
    """Configure (once) and build the runner; returns its path or None."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", out, "--target", "perfbench_runner",
                "-j", str(os.cpu_count() or 1)]
    configured = os.path.exists(os.path.join(out, "CMakeCache.txt"))
    if not configured and not run_step(configure):
        return None
    # A build tree configured from older sources may not know the target
    # yet: configure again once before giving up.
    if not run_step(compile_) and not (
            configured and run_step(configure) and run_step(compile_)):
        return None
    runner = os.path.join(out, "perfbench_runner")
    return runner if os.path.exists(runner) else None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the sources the runner is built from (works without git)."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "cmake", "src", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_once(runner, workload, seed, seconds, trace, short=False):
    """Runs the benchmark program once; returns (exit code, stdout lines)."""
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha()]
    if short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_output(lines):
    """(provenance dict, result dict) from the runner's last two lines."""
    if len(lines) < 2 or not lines[-2].startswith("provenance "):
        return None, None
    try:
        return (json.loads(lines[-2][len("provenance "):]),
                json.loads(lines[-1]))
    except json.JSONDecodeError:
        return None, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--short", action="store_true",
                    help="count-bound self-test mode")
    ap.add_argument("--out", help="also write provenance + result here")
    args = ap.parse_args()

    runner = build()
    if runner is None:
        return 2
    code, lines = run_once(runner, args.workload, args.seed, args.seconds,
                           args.trace, args.short)
    provenance, result = parse_output(lines)
    if result is None:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        log("runner gave no result")
        return code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if args.out:
        provenance["source_digest"] = source_digest()
        with open(args.out, "w") as fh:
            json.dump({"provenance": provenance, "result": result}, fh,
                      indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
