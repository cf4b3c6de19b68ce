#!/usr/bin/env python3
"""Builds the benchmark package and runs it.

One workload, as the benchmark contract runs it (the last line of
standard output is the result object):

    python3 perfbench/run.py --workload serve_small --seed 3 --seconds 20 --trace 0

Every workload, each in its own process, untraced then traced; prints
every metric with its unit and writes perfbench/out/results.json:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout of the repository. The build goes to
$CARGO_TARGET_DIR, or .bench_build/ when that is unset.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def tool_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build():
    """Builds the release binary and returns its path and the run environment."""
    for needed in ("Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a checkout of the repository")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env["PERFBENCH_COMMIT"] = tool_output(["git", "rev-parse", "HEAD"])
    else:
        env["PERFBENCH_COMMIT"] = "unknown (not a git checkout)"
    return os.path.join(target, "release", "perfbench"), env


def run_all(binary, env, seed, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    results = {}
    ok = True
    for name in names:
        for trace in (0, 1):
            argv = [binary, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                fail(f"{name} (trace {trace}) exited with {done.returncode}")
            result = json.loads(lines[-1])
            meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), {})
            notes = [l[5:] for l in lines if l.startswith("note ")]
            results[f"{name}/trace{trace}"] = {"meta": meta, "notes": notes, "result": result}
            ok = ok and result["correct"]
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for note in notes:
                print(f"   note {note}")
            for metric, v in result["metrics"].items():
                print(f"   {metric:40s} {v['value']:>16.6g} {v['unit']}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")
    binary, env = build()
    os.chdir(ROOT)
    if args.all:
        sys.exit(run_all(binary, env, args.seed, args.seconds))
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    os.execve(binary, argv, env)


if __name__ == "__main__":
    main()
