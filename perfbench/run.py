#!/usr/bin/env python3
"""Build and run the serving-stack benchmark.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`) and runs it from the current directory, pinned to one CPU;
the last line of standard output is the JSON result.

The benchmark, and with it the in-process server, runs on a single CPU:
on a 2-vCPU virtual machine the placement of the client and server
threads across CPUs (and the cost of waking an idle vCPU) swung
throughput by 30-75% from run to run; pinned, runs agree within a few
percent. See perfbench/README.md, "Noise".

Repeat mode runs one workload N times untraced, with seeds 1 to N, and
prints the median and quartiles of every end-to-end metric with its
spread (interquartile range over median) next to the bound in
BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 --workload NAME [--seconds S]
        [--save FILE] [--against FILE]

It stops at the first run that fails, checks out incorrect or has a
failed operation. `--save` writes the raw values; `--against` compares
these medians with those of an earlier saved set and flags any metric
that got worse by more than its bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode)
    return os.path.join(target, "release", "blsm-perfbench")


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def flag(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 >= len(args):
            sys.exit(f"{name} needs a value")
        value = args[i + 1]
        del args[i : i + 2]
        return value
    return default


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def repeat(binary, args):
    n = int(flag(args, "--repeat"))
    workload = flag(args, "--workload")
    seconds = flag(args, "--seconds", "25")
    save = flag(args, "--save")
    against = flag(args, "--against")
    if args or not workload:
        sys.exit(f"usage: see {__file__}")
    with open(SPEC) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in meta}
    for seed in range(1, n + 1):
        out = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n" + "\n".join(lines))
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect or failed operations\n" + "\n".join(lines))
        for name in meta:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    old = None
    if against:
        with open(against) as f:
            old = json.load(f)["values"]
    print(f"\n{workload}: {n} runs, every answer checked out, no operation failed")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, vals in values.items():
        med, q1, q3, sp = spread(vals)
        bound = meta[name]["bound"]
        verdict = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
        if old is not None:
            before = statistics.median(old[name])
            worse = (med - before) / before if meta[name]["better"] == "lower" else (before - med) / before
            verdict += f"; vs saved {worse:+.1%}" + (" REGRESSED" if worse > bound else "")
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.1%} {bound:6.2f}  {verdict}")
    if save:
        with open(save, "w") as f:
            json.dump({"workload": workload, "values": values}, f)


def main():
    args = sys.argv[1:]
    binary = build()
    pin_to_one_cpu()
    if "--repeat" in args:
        repeat(binary, args)
        return
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
