#!/usr/bin/env python3
"""Build the GC benchmark from source and run one workload.

    python3 gcbench/run.py --workload mesh_gc --seed 1 --seconds 20 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/gcbench
(default .bench_build/gcbench); trace exports of --trace 1 runs go to its
out/ directory.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  Exits non-zero when the build fails, the
library sources are missing, or a correctness check fails.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "gcbench"


def source_rev() -> str:
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE / "src"):
        for path in sorted(tree.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build(bdir: pathlib.Path) -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("gcbench: library sources not found (expected src/ beside gcbench/)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs], check=True, stdout=sys.stderr)
    return bdir / "gcbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke tests")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"gcbench: build failed: {e}", file=sys.stderr)
        return 3
    out = bdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(out), "--rev", source_rev()]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("gcbench: run exceeded 175 s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
