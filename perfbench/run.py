#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <kv-read-closed|kv-churn-open|native-pq> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The build goes to $CARGO_TARGET_DIR if set,
else to perfbench/target. Results and spans are written under
perfbench/results. The exit code is the benchmark's, or cargo's if the build
fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git revision, or a digest of the sources the benchmark builds."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench/src", "Cargo.lock"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock")))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(target, "release", "hcf-perfbench")
    out = os.path.join(HERE, "results")
    run = subprocess.run(
        [exe, *sys.argv[1:], "--rev", revision(), "--out", out])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
