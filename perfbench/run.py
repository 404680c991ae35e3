#!/usr/bin/env python3
"""Build diggd and the perfbench command from source, then run one benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 20 --trace 0

Every build and run artefact (Go build cache, binaries, server logs and
data directories) stays under .bench_build/ in the checkout. The last
line of standard output is perfbench's JSON result. The exit code is
perfbench's, or non-zero without a result when the build fails.
"""
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    # XDG_CONFIG_HOME moves the go command's telemetry counters, which
    # it writes under the user config directory, into the checkout too.
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="", GOWORK="off", CGO_ENABLED="0", TMPDIR=env["GOTMPDIR"])
    return env


def build(env):
    bindir = os.path.join(BUILD, "bin")
    diggd, bench = os.path.join(bindir, "diggd"), os.path.join(bindir, "perfbench")
    for cwd, out, pkg in ((ROOT, diggd, "./cmd/diggd"), (HERE, bench, ".")):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if r.returncode != 0:
            sys.exit(f"perfbench: building {pkg} in {cwd} failed")
    return diggd, bench


def reap(proc):
    """Kill whatever is left in the run's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    env = go_env()
    diggd, bench = build(env)
    args = [bench, "--diggd", diggd, "--work", os.path.join(BUILD, "work")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        code = 124
    finally:
        reap(proc)
    sys.exit(code)


if __name__ == "__main__":
    main()
