#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is the Cargo package beside this file. It is built in release
mode into `$CARGO_TARGET_DIR` (default `perfbench/target`); cargo's own
output goes to standard error.

The harness prints each metric by name and value. This script attaches the
units from `BENCHMARK.json`, the one list of metric names and units, and
prints the result as the last line of standard output. With `--trace 0`
the harness must print exactly the end-to-end metrics. With `--trace 1`
it prints the per-layer metrics its workload measures; the others read 0.
A metric `BENCHMARK.json` does not name fails the run. The exit code is
the harness's, or 1 when the build fails or the metrics do not match.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def with_units(raw, section, complete):
    """The harness's `{name: value}` metrics as `{name: {value, unit}}`, in
    `BENCHMARK.json` order, or None when they do not match the section."""
    units = {m["name"]: m["unit"] for m in section}
    unknown = sorted(set(raw) - set(units))
    missing = sorted(set(units) - set(raw))
    if unknown or (complete and missing):
        print(f"perfbench: metrics not in BENCHMARK.json: {unknown}; "
              f"missing: {missing}", file=sys.stderr)
        return None
    return {name: {"value": raw.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def unique_keys(pairs):
    """A JSON object that names no key twice."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    traced = parser.parse_known_args()[0].trace != "0"

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    section = spec["per_layer" if traced else "end_to_end"]
    metrics = with_units(result["metrics"], section, complete=not traced)
    if metrics is None:
        return 1
    result["metrics"] = metrics
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
