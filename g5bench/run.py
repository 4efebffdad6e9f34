#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 g5bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--sample-seed N] [--n N]

Run from the root of a source tree. The first run builds the library
(RelWithDebInfo, tests/benches/examples off), installs it into
.bench_build/prefix and builds the benchmark against the installed
package; later runs only rebuild what changed. Build output goes to
stderr. The benchmark's own stdout follows; its last line is the result
object. --trace 1 also writes a Chrome trace under .bench_build/traces/,
and every run writes its full result, with the host descriptor, under
.bench_build/results/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def sh(cmd):
    """Run a build step, its output to stderr; exit 4 if it fails."""
    done = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                          stderr=sys.stderr, check=False)
    if done.returncode != 0:
        print(f"g5bench: build step failed: {' '.join(map(str, cmd))}",
              file=sys.stderr)
        sys.exit(4)


def configure(src, build, extra):
    if (build / "CMakeCache.txt").exists():
        return
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    sh(["cmake", "-S", src, "-B", build, *gen,
        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *extra])


def build():
    jobs = str(os.cpu_count() or 1)
    lib, prefix, bench = BUILD / "lib", BUILD / "prefix", BUILD / "bench"
    configure(ROOT, lib, [
        "-DG5_ENABLE_TESTS=OFF", "-DG5_ENABLE_BENCH=OFF",
        "-DG5_ENABLE_EXAMPLES=OFF", "-DG5_CHECK_HEADERS=OFF",
        f"-DCMAKE_INSTALL_PREFIX={prefix}"])
    sh(["cmake", "--build", lib, "-j", jobs])
    sh(["cmake", "--install", lib])
    configure(BENCH_DIR, bench, [f"-DCMAKE_PREFIX_PATH={prefix}"])
    sh(["cmake", "--build", bench, "-j", jobs])
    return bench / "g5bench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--sample-seed", type=int, default=1,
                    help="seed of the shared realizations and of the "
                         "force-error and replay samples (held-out seed for "
                         "re-checking claims: 7)")
    ap.add_argument("--n", type=int, help="override N (smoke test)")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"g5bench: no source tree at {ROOT} (need CMakeLists.txt and "
              "src/)", file=sys.stderr)
        return 2

    binary = build()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--sample-seed", str(args.sample_seed),
           "--out-dir", str(BUILD), "--commit", source_id()]
    if args.n is not None:
        cmd += ["--n", str(args.n)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"g5bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 5
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
