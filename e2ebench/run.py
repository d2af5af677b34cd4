#!/usr/bin/env python3
"""Builds the e2ebench driver from source and runs it.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test
    python3 e2ebench/run.py --workload all [--seed <n>] [--seconds <s>]

The last line of standard output is the driver's JSON result. With
`--workload all` every workload runs untraced and traced, and a table of
every metric (name, value, unit, sample count) is printed instead.
Build output goes to standard error; the build tree is .bench_build/e2ebench
under the checkout root.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ["cleartext_100k", "secure_dealer_n40", "secure_ot_n10"]


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "e2ebench")


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args and args.index(flag) + 1 < len(args) else default


def report_all(driver, args):
    seed = arg_value(args, "--seed", "1")
    seconds = arg_value(args, "--seconds", "10")
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run([driver, "--workload", workload, "--seed", seed, "--seconds", seconds,
                                  "--trace", trace], stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: driver exited {out.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"== {workload}, {'traced' if trace == '1' else 'untraced'} ==")
            print("\n".join(line for line in lines[:-1] if not line.startswith("span ")))
            attempted, failed = result["attempted"], result["failed"]
            print(f"  {'failed_frac':32s} {failed / attempted:14.6g} ratio  ({failed}/{attempted} samples)")
            for name, m in result["metrics"].items():
                print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
            ok = ok and result["correct"]
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2
    if arg_value(args, "--workload", None) == "all":
        return report_all(driver, args)
    sys.stdout.flush()
    return subprocess.run([driver] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
