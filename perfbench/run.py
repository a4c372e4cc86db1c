#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload batch_paper|quote_session|quote_concurrent \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The harness (perfbench/src) and the library (src/) are built from source
into .bench_build/ with CMake, Release. Build output goes to stderr; the
harness's stdout passes through, and its last line is the JSON result. The
exit status is the harness's: 0 when every checked output is correct.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step, sending its output to stderr; fails the run on error."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to perfbench/ (looked for {ROOT / 'src'})")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", "perfbench", "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
              BUILD_TIMEOUT_S)
    return BUILD / "perfbench"


def provenance():
    """Git sha when the checkout is a git repository; a hash of the sources either way."""
    sha = "unavailable"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    digest.update((ROOT / "CMakeLists.txt").read_bytes())
    return sha, digest.hexdigest()[:16]


def main(argv):
    binary = build()
    args = [str(binary)] + argv
    if "--self-check" not in argv:
        sha, source_hash = provenance()
        args += ["--git-sha", sha, "--source-hash", source_hash]
    sys.stdout.flush()
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
