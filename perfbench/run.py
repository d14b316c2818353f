#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-local --seed 1 --seconds 15 --trace 0

The Go build cache, the binary, temporary files and trace output all stay
under .bench_build/ in the checkout. The benchmark's own output passes
through unchanged; its last line is the JSON result.
"""
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HERE = os.path.join(ROOT, "perfbench")


def main():
    if not os.path.isfile(os.path.join(HERE, "go.mod")):
        print("perfbench: run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Workers spill into TMPDIR; a private one per run is removed whatever
    # way the run ends.
    tmp = os.path.join(BUILD, "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(sig, _frame):
        proc.send_signal(sig)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if code < 0 else code


if __name__ == "__main__":
    sys.exit(main())
