#!/usr/bin/env python3
"""Run one workload of the CRISP benchmark and print its result.

    python3 perfbench/run.py --workload pair --seed 3 --seconds 20 --trace 0

Run from the repository root. Builds the measuring binary from source
(`cargo build --release --offline`, into $CARGO_TARGET_DIR or
`.bench_build/`), runs the workload, compares its simulated outputs with
the recorded references in `reference.json`, and prints every metric by
name and unit. The last line of standard output is the JSON result:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. Any failed check or mismatch exits with code 1.

Maintenance modes:

    python3 perfbench/run.py --record     # re-record reference.json
    python3 perfbench/run.py --selftest   # seeded-input self-test
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".bench_work")

# The camera variants a seed selects on `pair` and `resume` (src/pairs.rs).
VARIANTS = 8

# A run must finish within 180 s; a stuck one is stopped before that.
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the binary from the sources in this checkout; return its path."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    """Run one workload; return the binary's JSON report."""
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", WORK]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """A digest of the sources the binary is built from, for runs outside
    a git checkout."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for f in sorted(files):
                if f.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def host_context():
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""
    commit = out(["git", "rev-parse", "--short=12", "HEAD"]) or source_digest()
    return {"nproc": os.cpu_count(), "rustc": out(["rustc", "--version"]),
            "commit": commit}


def check_outputs(report, reference):
    """Compare the run's outputs with the recorded references, byte for
    byte. Returns (compared, mismatches)."""
    compared, mismatches = 0, []
    for key, value in sorted(report["outputs"].items()):
        if key not in reference:
            report["notes"].append(f"no reference recorded for {key}")
            continue
        compared += 1
        if value != reference[key]:
            mismatches.append(f"{key}: output differs from the reference\n"
                              f"  got:  {value[:300]!r}\n"
                              f"  want: {reference[key][:300]!r}")
    return compared, mismatches


def select_metrics(report, spec, trace):
    """The metrics of the result: every end-to-end metric of BENCHMARK.json
    (trace 0) or every per-layer one (trace 1). A layer the workload does
    not exercise reads 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in report["metrics"].items():
        if known.get(name) != m["unit"]:
            fail(f"metric {name} [{m['unit']}] is not in BENCHMARK.json")
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None and not trace:
            fail(f"end-to-end metric {m['name']} was not measured")
        value = 0.0 if got is None else got["value"]
        if value is None:
            fail(f"metric {m['name']} has no value")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def measure(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build()
    context = host_context()
    context["loadavg_start"] = os.getloadavg()
    report = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    context["loadavg_end"] = os.getloadavg()
    with open(REFERENCE) as f:
        reference = json.load(f)
    compared, mismatches = check_outputs(report, reference)
    attempted = report["attempted"] + compared
    failed = report["failed"] + len(mismatches)
    metrics = select_metrics(report, spec, args.trace)

    print(f"== {args.workload} seed {args.seed} ({args.seconds} s, "
          f"trace {args.trace}) ==")
    for name, m in list(metrics.items()) + list(report["extras"].items()):
        value = float("nan") if m["value"] is None else m["value"]
        print(f"  {name:<30} {value:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<30} {failed / max(attempted, 1):>16.6g} fraction "
          f"({failed} of {attempted})")
    for note in report["notes"] + mismatches:
        print(f"  note: {note}")
    print("host: " + json.dumps(context))
    coverage = report["metrics"].get("bench.coverage")
    if args.trace and coverage and coverage["value"] < 0.9:
        print(f"  FLAG: timed layer calls cover only {coverage['value']:.1%} "
              "of the traced wall time (need 90%)")
        failed += 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if failed else 0)


def record():
    """Re-record reference.json: every camera variant of `pair` and
    `resume`, every `repro` table and every `serve` job."""
    binary = build()
    plan = [("pair", s, 0) for s in range(VARIANTS)]
    plan += [("resume", s, 0) for s in range(VARIANTS)]
    plan += [("repro", 0, 0), ("serve", 0, 5)]
    reference = {}
    for workload, seed, seconds in plan:
        report = run_binary(binary, workload, seed, seconds, 0)
        if report["failed"]:
            fail(f"{workload} seed {seed} failed its own checks: {report['notes']}")
        reference.update(report["outputs"])
        print(f"recorded {workload} seed {seed}: {len(report['outputs'])} outputs")
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def selftest(seed):
    report = run_binary(build(), "selftest", seed, 0, 0)
    for note in report["notes"]:
        print(note)
    if report["failed"]:
        fail("self-test failed")
    print(f"self-test passed ({report['attempted']} checks)")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    os.makedirs(WORK, exist_ok=True)
    if args.record:
        record()
    elif args.selftest:
        selftest(args.seed)
    elif args.workload:
        measure(args)
    else:
        p.error("--workload is required")


if __name__ == "__main__":
    main()
