#!/usr/bin/env python3
"""Build and run the real-stack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stream-triad --seed 1 --seconds 10 --trace 0

With --workload all it runs every workload in turn and prints each
end-to-end (or, with --trace 1, per-layer) metric as "workload metric value
unit" lines, then one JSON line keyed by workload.

The Go program is built into .bench_build/ at the repository root, with the
Go build cache, module cache and temporary files kept there too, so a run
reads and writes nothing outside the checkout. With --trace 1 the traced
run's spans go to .bench_build/traces/<workload>-<seed>.jsonl. The last
line of standard output is the JSON result; the exit code is non-zero when
the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["cache-hot", "stream-triad", "rand-write", "ckpt-cycle"]


def arg(argv, name, default):
    """Value of --name in argv (also --name=value), or default."""
    for i, a in enumerate(argv):
        if a == "--" + name and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith("--" + name + "="):
            return a.split("=", 1)[1]
    return default


def main():
    argv = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: run from a checkout of the repository (no go.mod beside perfbench/)\n")
        return 2
    env = dict(os.environ)
    tmp = os.path.join(OUT, "tmp")
    for d in (OUT, tmp, os.path.join(OUT, "traces")):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    if arg(argv, "workload", "") == "all":
        return run_all(binary, argv, env)
    sys.stdout.flush()
    return subprocess.run(command(binary, argv), cwd=ROOT, env=env).returncode


def command(binary, argv):
    """The benchmark command line; a traced run also writes its spans."""
    if arg(argv, "trace", "0") != "1":
        return [binary] + argv
    name = "%s-%s.jsonl" % (arg(argv, "workload", "none"), arg(argv, "seed", "1"))
    return [binary] + argv + ["--trace-out", os.path.join(OUT, "traces", name)]


def run_all(binary, argv, env):
    """Run every workload; print its metrics by name and one combined line."""
    results, status = {}, 0
    for wl in WORKLOADS:
        args = [wl if a == "all" else "--workload=" + wl if a == "--workload=all" else a for a in argv]
        p = subprocess.run(command(binary, args), cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write("perfbench: %s failed\n" % wl)
            return p.returncode or 1
        res = json.loads(lines[-1])
        results[wl] = res
        if not res["correct"]:
            status = 1
        print("%s correct=%s attempted=%d failed=%d" % (wl, res["correct"], res["attempted"], res["failed"]))
        for name, m in sorted(res["metrics"].items()):
            print("%s %s %.6g %s" % (wl, name, m["value"], m["unit"]))
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
