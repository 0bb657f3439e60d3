#!/usr/bin/env python3
"""Builds and runs the autobal benchmark.

    python3 perfbench/run.py --workload drain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record

Run from the repository root. `--trace 0` runs the untraced binary and
prints the end-to-end metrics; `--trace 1` runs the traced binary (with
the counting allocator) and prints the per-layer metrics. The last line
of standard output is the JSON result. `--smoke` runs every workload at
a tiny size through both binaries and checks the output against
BENCHMARK.json. `--record` rewrites `digests.txt` with the outcome
digests of the default seed, for a change that alters outcomes on
purpose. The build goes to $CARGO_TARGET_DIR, or `.bench_build`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["drain", "random_churn", "smart_neighbor", "event_smart"]
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds both binaries; returns the directory holding them, or None."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        log("error: the repository's crates are missing; run from a full checkout")
        return None
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("error: the benchmark failed to build")
        return None
    return os.path.join(target, "release")


def commit():
    """The git revision, or a digest of the sources when not in git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    tops = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if "/target" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run(bindir, trace, args):
    """Runs one binary; returns (exit code, stdout)."""
    exe = os.path.join(bindir, "perfbench-traced" if trace else "perfbench")
    try:
        r = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {os.path.basename(exe)} {' '.join(args)} timed out")
        return 1, ""
    return r.returncode, r.stdout


def last_json(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke(bindir, rev):
    """Runs every workload at smoke size through both binaries."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", w, "--seed", "1", "--seconds", "1",
                    "--smoke", "--commit", rev]
            code, out = run(bindir, trace, args)
            res = last_json(out)
            what = f"{w} --trace {trace}"
            if code != 0 or res is None:
                problems.append(f"{what}: exit {code}, no result")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{what}: metrics {sorted(got.items())} "
                                f"differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{what}: {res['failed']} of "
                                f"{res['attempted']} runs failed")
            log(f"smoke {what}: {res['attempted']} runs, "
                f"{res['failed']} failed")
    # A corrupted digest must count as a failed run, not pass or crash.
    code, out = run(bindir, 0, ["--workload", "drain", "--seed", "1",
                                "--seconds", "1", "--smoke",
                                "--corrupt-digest"])
    res = last_json(out)
    if code != 0 or res is None or res["correct"] or res["failed"] < 1:
        problems.append(f"corrupted digest was not counted as failed: {res}")
    else:
        log(f"smoke corrupt digest: {res['failed']} of "
            f"{res['attempted']} runs failed, as expected")
    for p in problems:
        log(f"smoke FAILED: {p}")
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 1 if problems else 0


def record(bindir):
    """Rewrites digests.txt from one untraced pass at the default seed."""
    lines = []
    for smoke_flag in ([], ["--smoke"]):
        for w in WORKLOADS:
            code, out = run(bindir, 0, ["--workload", w, "--seed", "1",
                                        "--seconds", "1"] + smoke_flag)
            meta = next((json.loads(l)["meta"] for l in out.splitlines()
                         if l.startswith('{"meta"')), None)
            if code != 0 or meta is None:
                log(f"error: no digests from {w} {' '.join(smoke_flag)}")
                return 1
            lines += meta["digests"]
    with open(os.path.join(HERE, "digests.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    log(f"recorded {len(lines)} digests")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at a tiny size and self-check")
    p.add_argument("--record", action="store_true",
                   help="rewrite digests.txt from the default seed")
    a = p.parse_args()
    if not (a.smoke or a.record) and a.workload is None:
        p.error("--workload is required unless --smoke or --record is given")
    bindir = build()
    if bindir is None:
        return 2
    rev = commit()
    if a.record:
        return record(bindir)
    if a.smoke:
        return smoke(bindir, rev)
    code, out = run(bindir, a.trace, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--commit", rev])
    sys.stdout.write(out)
    return code if last_json(out) is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
