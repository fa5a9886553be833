#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 benchmark/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds both binaries in release mode
(into $CARGO_TARGET_DIR, or benchmark/target), then replaces itself with
`ignem-benchmark` for --trace 0 (end-to-end metrics) or with
`ignem-benchmark-traced` for --trace 1 (per-layer metrics; the spans go to
<target>/spans/<workload>.json). The last line of standard output is the
result JSON. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag_value(args, flag):
    """Removes `flag VALUE` from args and returns VALUE (None if absent)."""
    if flag not in args:
        return None
    i = args.index(flag)
    if i + 1 >= len(args):
        sys.exit(f"{flag} needs a value")
    value = args[i + 1]
    del args[i : i + 2]
    return value


def main():
    args = sys.argv[1:]
    trace = flag_value(args, "--trace") or "0"
    if trace not in ("0", "1"):
        sys.exit(f"--trace must be 0 or 1, got {trace!r}")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet", "--bins",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    if trace == "1":
        binary = os.path.join(target, "release", "ignem-benchmark-traced")
        workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "run"
        spans = os.path.join(target, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out", os.path.join(spans, os.path.basename(workload) + ".json")]
    else:
        binary = os.path.join(target, "release", "ignem-benchmark")
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
