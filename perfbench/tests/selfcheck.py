#!/usr/bin/env python3
"""Quick self-check of the repository benchmark.

Runs every workload briefly through perfbench/run.py, untraced and traced,
on the default seed and the held-out seed, and asserts:

  * every metric BENCHMARK.json names is printed, with its unit, and the
    run is correct (no failed items);
  * normalized and raw host values differ exactly by the run's
    reference-loop factor;
  * the per-item tail is reported as p99 only when at least 1000 items
    were timed (otherwise it is the highest percentile with ten samples
    beyond it);
  * the simulated metrics are identical across all runs, traced or not;
  * the traced fuzz run's per-call spans account for its item time, and
    the spans file was written.

Usage (from the repository root; takes a few minutes):

    python3 perfbench/tests/selfcheck.py
"""
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIMULATED = ["hypernel_overhead_pct", "paper_err_pct", "mbm_word_trap_pct",
             "detect_cycles_p50", "detect_cycles_max"]
EXACT_LAYER_PREFIXES = ("sim.mcycles.", "sim.tlb", "sim.s1", "kvm.", "hypersec.",
                        "mbm.snooped", "mbm.detections.", "mbm.bitmap",
                        "mbm.fifo", "attacks.hits", "attacks.attributed",
                        "attacks.false")
# (workload, seed, trace): both seeds on every workload untraced, traced
# on the default seed.
CASES = [(w["name"], seed, trace) for w in SPEC["workloads"]
         for seed, trace in ((1, 0), (1, 1), (2, 0))]

failures = []


def check(cond, message):
    if not cond:
        failures.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def run(workload, seed, trace, report):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--report",
           str(report)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    check(done.returncode == 0, f"{workload} seed {seed} trace {trace}: exit "
          f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    simulated = {}
    exact_layers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, trace in CASES:
            case = f"{workload} seed {seed} trace {trace}"
            report_path = Path(tmp) / f"{workload}-{seed}-{trace}.json"
            result = run(workload, seed, trace, report_path)
            report = json.loads(report_path.read_text())
            print(f"ok: {case}: {result['attempted']} attempted", file=sys.stderr)

            # Every named metric, with its unit; the run is correct.
            section = SPEC["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in section}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{case}: metric names/units differ from BENCHMARK.json")
            check(result["correct"] and result["failed"] == 0, f"{case}: not correct")

            e2e = report["end_to_end"]
            layer = report["per_layer"]
            factor = layer["bench.speed_factor"]["value"]
            # Normalized = raw scaled by the reference-loop factor, exactly.
            check(close(layer["bench.raw_execs_per_s"]["value"],
                        layer["bench.norm_execs_per_s"]["value"] * factor)
                  if trace else
                  close(layer["bench.raw_execs_per_s"]["value"],
                        e2e["execs_per_s"]["value"] * factor),
                  f"{case}: execs_per_s is not raw / factor")
            if not trace:
                check(close(layer["setup.raw_ms"]["value"] * factor / 1000.0,
                            e2e["setup_s"]["value"]),
                      f"{case}: setup_s is not raw * factor")

            # The tail is p99 only with >= 1000 timed items.
            count = layer["item.count"]["value"]
            tail = layer["item.tail_pct"]["value"]
            check((tail == 99.0) == (count >= 1000),
                  f"{case}: tail p{tail} reported for {count} items")

            for name in SIMULATED:
                simulated.setdefault(name, set()).add(e2e[name]["value"])
            for name, metric in layer.items():
                if name.startswith(EXACT_LAYER_PREFIXES):
                    exact_layers.setdefault(name, set()).add(metric["value"])

            if trace and workload == "fuzz_campaign":
                coverage = layer["fuzz.span_coverage_pct"]["value"]
                check(95.0 <= coverage <= 100.0 + 1e-9,
                      f"{case}: fuzz spans cover {coverage}% of item time")
            if trace:
                build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
                if not build.is_absolute():
                    build = ROOT / build
                spans = build / "perfbench" / "spans" / f"{workload}-seed{seed}.jsonl"
                lines = spans.read_text().splitlines() if spans.exists() else []
                check(len(lines) > 0, f"{case}: no spans written to {spans}")
                if lines:
                    span = json.loads(lines[0])
                    check(set(span) == {"id", "name", "start_ns", "end_ns", "parent"},
                          f"{case}: malformed span {span}")

    # Simulated metrics repeat bit for bit across workloads, seeds, tracing.
    for name, values in {**simulated, **exact_layers}.items():
        check(len(values) == 1, f"simulated metric {name} varies: {sorted(values)}")

    if failures:
        print(f"selfcheck: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("selfcheck: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
