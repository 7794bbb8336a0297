#!/usr/bin/env python3
"""Builds and runs the PUP benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds `perfbench/` (a Cargo
package of its own) in release mode, makes the workload's seeded fixture in
one process (cached under the build directory), and runs the workload in a
second process, so the run's peak RSS belongs to the workload alone. The
last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, and the layer tables print
above the result. Every result is also written, with the environment
fingerprint and the seed, to <build dir>/perfbench-results/ for
`perfbench/compare.py`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("serve-scan", "train-eval")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """Digest of the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]
    for top in tops:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, subdirs, names in os.walk(path):
                subdirs[:] = sorted(s for s in subdirs if s not in ("target", "__pycache__"))
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(root):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    rev = out(["git", "rev-parse", "HEAD"])
    if rev and out(["git", "status", "--porcelain"]):
        rev += "-dirty"
    return {
        "nproc": os.cpu_count(),
        "profile": "release",
        "revision": rev if rev else "src-" + source_digest(root),
        "rustc": out(["rustc", "--version"]) or "unknown",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "crates", "serve", "Cargo.toml")):
        log("no crates/ here: run from the root of a full checkout")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        log("build failed")
        return 2
    binary = os.path.join(target, "release", "pup-perfbench")
    fixtures = os.path.join(target, "perfbench-fixtures")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--fixtures", fixtures]

    made = subprocess.run([binary, "fixture", *common], stdout=subprocess.DEVNULL, env=env)
    if made.returncode != 0:
        log("fixture build failed")
        return 2
    run = subprocess.run(
        [binary, "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, env=env)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        print(run.stdout, end="", file=sys.stderr)
        log(f"run failed with exit code {run.returncode}")
        return run.returncode or 2
    record = {}
    for line in lines[:-1]:
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
        else:
            print(line)
    result = json.loads(lines[-1])
    # The result line carries exactly the metrics BENCHMARK.json declares
    # for this kind of run; the record keeps everything measured.
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    measured = result["metrics"]
    missing = [name for name in declared if name not in measured]
    if missing:
        log(f"run did not measure declared metrics {missing}")
        return 2
    result["metrics"] = {name: measured[name] for name in declared}
    record["measured"] = measured
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, fingerprint=fingerprint(root), result=result)
    out_dir = os.path.join(target, "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-t{args.trace}-s{args.seed}-{time.time_ns()}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
