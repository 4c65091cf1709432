#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 30 --trace 0

It builds cmd/auditserver and the perfbench driver from source into
.bench_build/ (Go build cache included, so nothing is written outside the
checkout), then runs the driver with the same arguments. The driver's
last line of standard output is the result JSON; its exit code is this
script's exit code.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
# Whole-run limit, above the driver's own deadline: the build of a fresh
# checkout is the slow part.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for need in ("go.mod", os.path.join("cmd", "auditserver"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the repository root: %s not found" % need)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    bindir = os.path.join(BUILD, "bin")
    builds = [
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "auditserver"), "./cmd/auditserver"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        try:
            r = subprocess.run(cmd, cwd=cwd, env=env, timeout=BUILD_TIMEOUT_S,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(cmd))
    cmd = [os.path.join(bindir, "perfbench"),
           "--dir", "perfbench",
           "--bin", os.path.join(bindir, "auditserver"),
           "--work", os.path.join(BUILD, "run")] + sys.argv[1:]
    # Its own process group, so a timeout also stops the servers it runs.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver exceeded %ds" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
