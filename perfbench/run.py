#!/usr/bin/env python3
"""Build nocomm and its benchmark, then run one benchmark workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <table-certify|mc-sweep|service-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the repository's `nocomm-service` and `nocomm-shard` binaries and
the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload. The last line of
standard output is the workload's JSON result; build output goes to
standard error. Exits non-zero without a result when the checkout
cannot be built or the workload cannot run.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo(args, env):
    """Runs one cargo build from the checkout root; True on success."""
    done = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    return done.returncode == 0


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("run.py: no Cargo.toml at the checkout root; nothing to build", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["build", "--release", "--offline", "--quiet", "--workspace",
         "--bin", "nocomm-service", "--bin", "nocomm-shard"],
        ["build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for args in builds:
        if not cargo(args, env):
            print("run.py: build failed", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"), *argv,
        "--bin-dir", release,
        "--work-dir", os.path.join(target, "perfbench-work"),
        "--repo-root", ROOT,
    ]
    # The benchmark leads its own process group, so whatever it started
    # (daemon, shard workers) is stopped with it however it
    # ends, even if it dies before it can stop them itself.
    bench = subprocess.Popen(command, cwd=ROOT, start_new_session=True)

    def stop_group(*_):
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, lambda *a: (stop_group(), sys.exit(143)))
    try:
        code = bench.wait()
    finally:
        stop_group()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(bench.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
