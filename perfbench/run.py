#!/usr/bin/env python3
"""Builds and runs dip_perfbench from the root of a dip source checkout.

    python3 perfbench/run.py --workload sym_u64 --seed 1 --seconds 10 --trace 0

The benchmark is compiled from source into $CARGO_TARGET_DIR (default
.bench_build), build output going to stderr. The binary's stdout passes
through unchanged; its last line is the JSON result. Run records and span
files land in .bench_out/. To re-pin the reference folds after a change
that is meant to change them:

    python3 perfbench/run.py --pin > perfbench/reference.txt
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def source_id():
    """Content hash of the library and benchmark sources (the checkout may
    not be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build():
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "dip_perfbench"], check=True, stdout=sys.stderr)
    return build_dir / "dip_perfbench"


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no dip sources at " + str(ROOT / "src"), file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("run.py: build failed: " + str(error), file=sys.stderr)
        return 2
    args = [str(binary), *sys.argv[1:]]
    if "--pin" not in args:
        args += ["--reference", str(HERE / "reference.txt"),
                 "--out-dir", str(ROOT / ".bench_out"),
                 "--commit", commit(), "--source-id", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
