#!/usr/bin/env python3
"""Build and run raceline's benchmark harness.

    python3 perfbench/run.py --workload overhead|soak --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds `perfbench/` (a cargo package of its
own that links the repository's crates by path) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), prints a provenance line, then
runs the harness, whose last stdout line is the result object. Exits
non-zero when the build fails, the harness fails, or an output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("overhead", "soak")
# A run must end within 180 s; leave the harness a margin under that.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """A digest of the sources the harness builds."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".json", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def code_id():
    """The commit when run from a clean git checkout. With uncommitted
    changes, the commit marked dirty plus the source digest; outside git,
    the source digest alone."""
    top = (git("rev-parse", "--show-toplevel") or "").strip()
    head = (git("rev-parse", "HEAD") or "").strip()
    # A checkout that is not itself a git work tree (an export placed
    # inside some other repository, say) is named by its sources.
    if not head or not top or os.path.realpath(top) != os.path.realpath(ROOT):
        return source_digest()
    if (git("status", "--porcelain") or "").strip():
        return f"{head}-dirty+{source_digest()}"
    return head


def tool_version(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(manifest):
        fail("perfbench/Cargo.toml is missing")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env)
    if build.returncode != 0:
        fail(f"build failed with status {build.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"no harness binary at {binary}")

    provenance = {
        "commit": code_id(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": tool_version(["rustc", "--version"]),
        "profile": "release (lto=thin, codegen-units=1)",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True), flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(run.stdout)
        fail(f"harness exited {run.returncode} without a result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(run.returncode if run.returncode != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
