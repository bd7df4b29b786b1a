#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. The first form builds
perfbench/sbbench.exe with dune and runs one workload; the last line of
its standard output is the result object. The second runs every workload
of BENCHMARK.json in turn, one result line each. --selftest runs every workload
at a tiny size on two seeds, traced and untraced, and checks that each
run is correct and reports every metric BENCHMARK.json names, with its
unit, and that the deterministic control-plane figures repeat exactly
for one seed.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "sbbench.exe")
OUT_DIR = ".bench_out"
BUILD_TIMEOUT = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    """Build inside the checkout only: no shared dune cache."""
    cmd = dune()
    if cmd is None:
        log("run.py: dune not found")
        return False
    try:
        r = subprocess.run(
            cmd + ["build", "--root", ".", "--cache=disabled",
                   "./perfbench/sbbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        log("run.py: build timed out")
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


def run_timeout(args):
    """A run measures for --seconds plus its set-ups."""
    try:
        seconds = float(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 30.0
    return 2 * seconds + 110


def run(args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, env=env, timeout=run_timeout(args),
                           text=True)
    except subprocess.TimeoutExpired:
        log("run.py: run timed out")
        return 1, []
    return r.returncode, r.stdout.splitlines()


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    repeat = ["dp_routing.satisfied", "dp_routing.rerouted",
              "system.rollout_sim_ms", "bus.wan_bytes_per_epoch"]
    bad = []
    for w in spec["workloads"]:
        name = w["name"]
        seen = {}
        for seed, trace in (("1", "0"), ("2", "0"), ("1", "1"), ("1", "1")):
            args = ["--workload", name, "--seed", seed, "--seconds", "1",
                    "--trace", trace, "--smoke"]
            code, lines = run(args)
            tag = " ".join(args)
            if code != 0 or not lines:
                bad.append(f"{tag}: exit {code}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                bad.append(f"{tag}: incorrect result")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                bad.append(f"{tag}: metrics {sorted(got)} differ from BENCHMARK.json")
            if trace == "1":
                figs = [res["metrics"][k]["value"] for k in repeat]
                if name == "ctl_epochs" and name in seen and seen[name] != figs:
                    bad.append(f"{tag}: {repeat} differ between two runs: "
                               f"{seen[name]} vs {figs}")
                seen[name] = figs
            log(f"selftest ok so far: {tag}")
    for b in bad:
        log("SELFTEST FAILED: " + b)
    log("selftest " + ("failed" if bad else "passed"))
    return 1 if bad else 0


def main():
    if not build():
        log("run.py: build failed")
        return 1
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        i = args.index("--workload") + 1
        runs = [args[:i] + [name] + args[i + 1:] for name in names]
    worst = 0
    for a in runs:
        code, lines = run(a)
        for line in lines:
            print(line, flush=True)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
