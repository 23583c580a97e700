#!/usr/bin/env python3
"""Compare two BENCH_scale.json files and fail on metric regressions.

Usage:
  tools/bench_compare.py BASELINE CURRENT [--metric bytes_per_round]
                         [--tolerance 0.10] [--peers 1000]
                         [--parallelism 1]

Configs are matched on (topology, peers, parallelism, value_budget,
probe_ttl) — the budget defaults to 0 for pre-v5 baselines and the TTL to 2
for pre-v7 ones, so exact 2-cycle rows keep matching across schema versions
while quantized rows only ever compare against quantized rows and
long-cycle rows against long-cycle rows. Rows present in only one file are ignored (the CI smoke
run covers a subset of the checked-in sweep). For each matched pair the relative *regression* of `--metric` over
the baseline is computed — an increase for lower-is-better metrics
(bytes_per_round, key_bytes_per_round, ...), a decrease for
higher-is-better ones (rounds_per_sec, speedup_vs_serial) — and any
regression above `--tolerance` fails the run with a per-config report.

A zero baseline (e.g. key_bytes_per_round once alias negotiation settles)
is a hard floor: any nonzero current value counts as an unbounded
regression rather than being silently skipped.

When both files carry an `adversary_runs` section (schema v6+), the
Byzantine-resilience floors are additionally re-checked on the CURRENT
file regardless of the baseline: every adversarial row must keep
demotion recall >= 0.95 and honest_posterior_delta <= 0.25, and the
clean guarded row must keep false_positive_rate < 0.01. A current file
that *dropped* the section while the baseline had it is an error — the
resilience sweep must not silently disappear.

Independently of `--metric`, every matched row whose baseline records
`discover_probe_messages` (schema v7+) fails if the current count is larger
at all: the count is deterministic for a workload, so any growth means
discovery floods more than it did.

The `fault_runs` section (schema v4+) is re-checked the same way: every
CURRENT row that reports `converged` must have landed within
max_posterior_error <= 1e-6 of the fault-free run (a converged verdict
under loss means the lossless fixpoint), and a current file that dropped
the section while the baseline had it is an error.
"""

import argparse
import json
import sys

# Metrics where bigger numbers are good; everything else is lower-is-better.
HIGHER_IS_BETTER = {"rounds_per_sec", "speedup_vs_serial"}


def load_configs(path, peers_filter, parallelism_filter):
    with open(path) as f:
        data = json.load(f)
    configs = {}
    for row in data.get("configs", []):
        if peers_filter is not None and row["peers"] != peers_filter:
            continue
        if (parallelism_filter is not None
                and row["parallelism"] != parallelism_filter):
            continue
        configs[(row["topology"], row["peers"], row["parallelism"],
                 row.get("value_budget", 0), row.get("probe_ttl", 2))] = row
    return data.get("schema_version"), configs, data


RECALL_FLOOR = 0.95
HONEST_DELTA_CEILING = 0.25
FALSE_POSITIVE_CEILING = 0.01


def check_adversary_runs(base_data, cur_data):
    """Absolute Byzantine-resilience floors on the current file.

    Returns the number of failures (0 = all floors hold or the section is
    legitimately absent from both files).
    """
    base_runs = base_data.get("adversary_runs")
    cur_runs = cur_data.get("adversary_runs")
    if cur_runs is None:
        if base_runs:
            print("[FAIL] baseline has adversary_runs but current dropped "
                  "the section")
            return 1
        return 0

    failures = 0
    for run in cur_runs:
        fraction = run.get("byzantine_fraction", 0.0)
        if run.get("adversary_count", 0) == 0:
            fp = run.get("false_positive_rate", 0.0)
            verdict = "FAIL" if fp >= FALSE_POSITIVE_CEILING else "ok"
            print(f"[{verdict}] adversary clean run: false positives "
                  f"{fp:.2%} (< {FALSE_POSITIVE_CEILING:.0%} required)")
            failures += verdict == "FAIL"
            continue
        recall = run.get("demotion_recall", 0.0)
        verdict = "FAIL" if recall < RECALL_FLOOR else "ok"
        print(f"[{verdict}] adversary {fraction:.0%} run: demotion recall "
              f"{recall:.2%} (>= {RECALL_FLOOR:.0%} required)")
        failures += verdict == "FAIL"
        delta = run.get("honest_posterior_delta", 0.0)
        verdict = "FAIL" if delta > HONEST_DELTA_CEILING else "ok"
        print(f"[{verdict}] adversary {fraction:.0%} run: honest posterior "
              f"drift {delta:.3f} (<= {HONEST_DELTA_CEILING} required)")
        failures += verdict == "FAIL"
    return failures


CONVERGED_ERROR_CEILING = 1e-6


def check_fault_runs(base_data, cur_data):
    """A converged verdict under injected faults must mean the fixpoint.

    Returns the number of failures (0 = every converged row is within the
    ceiling or the section is legitimately absent from both files).
    """
    base_runs = base_data.get("fault_runs")
    cur_runs = cur_data.get("fault_runs")
    if cur_runs is None:
        if base_runs:
            print("[FAIL] baseline has fault_runs but current dropped the "
                  "section")
            return 1
        return 0

    failures = 0
    for run in cur_runs:
        if not run.get("converged", False):
            continue
        error = run.get("max_posterior_error", 0.0)
        verdict = "FAIL" if error > CONVERGED_ERROR_CEILING else "ok"
        print(f"[{verdict}] fault run drop={run.get('drop_rate', 0.0):.2f} "
              f"dup={run.get('duplicate_rate', 0.0):.2f} "
              f"reorder={run.get('reorder_rate', 0.0):.2f}: converged with "
              f"max posterior error {error:.2e} "
              f"(<= {CONVERGED_ERROR_CEILING:.0e} required)")
        failures += verdict == "FAIL"
    return failures


def row_tag(key):
    topology, peers, parallelism, value_budget, probe_ttl = key
    budget_tag = f" eps={value_budget:.0e}" if value_budget else ""
    ttl_tag = f" ttl={probe_ttl}" if probe_ttl != 2 else ""
    return f"{topology} n={peers} p={parallelism}{budget_tag}{ttl_tag}"


def check_probe_messages(baseline, current, matched):
    """Zero-tolerance gate on the discovery probe count of matched rows.

    Returns the number of rows whose count grew. Rows whose baseline
    predates the field are skipped.
    """
    failures = 0
    for key in matched:
        base_value = baseline[key].get("discover_probe_messages")
        if base_value is None:
            continue
        cur_value = current[key].get("discover_probe_messages")
        if cur_value is None:
            print(f"[FAIL] {row_tag(key)} dropped discover_probe_messages")
            failures += 1
            continue
        verdict = "FAIL" if cur_value > base_value else "ok"
        print(f"[{verdict}] {row_tag(key)} discover_probe_messages: "
              f"{base_value} -> {cur_value} (must not grow)")
        failures += verdict == "FAIL"
    return failures


def regression(metric, base_value, cur_value):
    """Relative regression of `cur_value` vs `base_value` (positive = worse)."""
    if base_value == 0:
        # Lower-is-better from a zero baseline is a hard floor: any nonzero
        # value is an unbounded regression. Higher-is-better from zero can
        # only improve or stay put.
        if metric in HIGHER_IS_BETTER:
            return 0.0
        return float("inf") if cur_value > 0 else 0.0
    if metric in HIGHER_IS_BETTER:
        return (base_value - cur_value) / base_value
    return (cur_value - base_value) / base_value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--metric", default="bytes_per_round")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max allowed relative regression (0.10 = 10%%)")
    parser.add_argument("--peers", type=int, default=None,
                        help="only compare configs with this peer count")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="only compare configs with this parallelism")
    args = parser.parse_args()

    base_version, baseline, base_data = load_configs(args.baseline, args.peers,
                                                     args.parallelism)
    cur_version, current, cur_data = load_configs(args.current, args.peers,
                                                  args.parallelism)
    if base_version != cur_version:
        print(f"note: schema_version differs (baseline v{base_version}, "
              f"current v{cur_version}); comparing shared fields")

    matched = sorted(set(baseline) & set(current))
    if not matched:
        print("error: no matching (topology, peers, parallelism) configs")
        return 2

    direction = "higher" if args.metric in HIGHER_IS_BETTER else "lower"
    failures = 0
    for key in matched:
        base_row, cur_row = baseline[key], current[key]
        if args.metric not in base_row or args.metric not in cur_row:
            print(f"error: metric '{args.metric}' missing for {key}")
            return 2
        base_value, cur_value = base_row[args.metric], cur_row[args.metric]
        delta = regression(args.metric, base_value, cur_value)
        verdict = "FAIL" if delta > args.tolerance else "ok"
        if verdict == "FAIL":
            failures += 1
        print(f"[{verdict}] {row_tag(key)} "
              f"{args.metric} ({direction} is better): "
              f"{base_value:.1f} -> {cur_value:.1f} "
              f"(regression {delta:+.1%}, tolerance +{args.tolerance:.0%})")

    probe_failures = check_probe_messages(baseline, current, matched)
    adversary_failures = check_adversary_runs(base_data, cur_data)
    fault_failures = check_fault_runs(base_data, cur_data)
    if failures or probe_failures or adversary_failures or fault_failures:
        if failures:
            print(f"{failures}/{len(matched)} configs regressed on "
                  f"'{args.metric}'")
        if probe_failures:
            print(f"{probe_failures} configs sent more discovery probes")
        if adversary_failures:
            print(f"{adversary_failures} Byzantine-resilience floors broken")
        if fault_failures:
            print(f"{fault_failures} fault runs converged away from the "
                  f"fault-free fixpoint")
        return 1
    print(f"all {len(matched)} matched configs within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
