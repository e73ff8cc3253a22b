#!/usr/bin/env python3
"""Builds and runs the closed-loop planner benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (a package of its own, with path dependencies on the
repository's crates) in release mode, runs it with the same arguments, and
relays its output. The last line of standard output is the run's JSON
result. Build output goes to standard error. The build directory is
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset.

Besides the benchmark's own arguments, `--out <dir>` sets where a traced
run writes its spans (default `.bench_out`).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# The crates the benchmark drives; without them there is nothing to build.
REQUIRED = ["Cargo.toml", "crates/cluster", "crates/online", "crates/service"]
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order: the
    commit stand-in when the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        paths += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """The checkout's git commit, when it is a git repository itself."""
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"run.py: not a repository checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    print(
        f"host: nproc {os.cpu_count()}, build profile release (lto thin), "
        f"commit {commit()}, source sha256 {source_digest()}",
        flush=True,
    )
    try:
        proc = subprocess.run(
            [str(target / "release" / "perfbench"), *sys.argv[1:]],
            cwd=ROOT, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
