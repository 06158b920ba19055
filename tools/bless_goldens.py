#!/usr/bin/env python3
"""Golden-output guard for the bench and example binaries.

Every bench entry below runs one bench at reduced scale (--sizes=200,1000
--seeds=1), and every example entry runs one example as is (the examples
ignore argv and fix their own scale), in a fresh temporary directory. Each
compares its stdout -- plus any artifact files the run writes -- byte for
byte with the checked-in copies under tests/golden/. Message counts, hops
and simulated ticks are deterministic per seed, so any difference is a
behaviour change.
Artifacts too large to check in (the Chrome trace runs to tens of MB) are
kept as a SHA-256 digest plus byte count: still a byte-exact comparison,
just without a readable diff.

ctest registers one test per tests/golden/<name>.stdout, each running
`--check <name>`. Re-blessing is deliberate: run it after a change that is
*meant* to alter bench output, and say why in the commit message.

  tools/bless_goldens.py --bin-dir=build               # re-bless everything
  tools/bless_goldens.py --bin-dir=build fig8a_join_leave faults
  tools/bless_goldens.py --bin-dir=build --check cache  # what ctest runs
  tools/bless_goldens.py --list

Command lines use only flags their bench reads, so they stay valid when a
bench's flag set shrinks.
"""

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
SCALE = ["--sizes=200,1000", "--seeds=1"]
DIGEST_OVER_BYTES = 256 * 1024

# name -> (binary, extra args, artifact files the args make the bench write)
BENCHES = {
    "fig8a_join_leave": ("bench_fig8a_join_leave", [], []),
    "fig8b_update_tables": ("bench_fig8b_update_tables", [], []),
    "fig8c_insert_delete": ("bench_fig8c_insert_delete", [], []),
    "fig8d_exact_query": ("bench_fig8d_exact_query", [], []),
    "fig8e_range_query": ("bench_fig8e_range_query", [], []),
    "fig8f_access_load": ("bench_fig8f_access_load", [], []),
    "fig8g_load_balance": ("bench_fig8g_load_balance", [], []),
    "fig8h_shift_size": ("bench_fig8h_shift_size", [], []),
    "fig8i_dynamics": ("bench_fig8i_dynamics", [], []),
    "ablation_fanout": ("bench_ablation_fanout", [], []),
    "ablation_load_balance": ("bench_ablation_load_balance", [], []),
    # N=1000 alone (the last --sizes wins): the size at which equally light
    # leaves tie in the recruit directory often enough to pin its tie-break.
    "ablation_load_balance_n1000": (
        "bench_ablation_load_balance", ["--sizes=1000"], []),
    "durability_churn": ("bench_durability_churn", [], []),
    "compare_overlays": ("bench_compare_overlays", [], []),
    "compare_overlays_obs": (
        "bench_compare_overlays",
        ["--latency=uniform:5,20", "--trace=trace.json",
         "--metrics=metrics.json"],
        ["trace.json", "metrics.json"],
    ),
    "latency_query": ("bench_latency_query", [], []),
    "faults": ("bench_faults", [], []),
    "cache": ("bench_cache", [], []),
    "throughput": ("bench_throughput", [], []),
    # Bounded serving: drops, timeouts, straggler overrides and equal-tick
    # arrival/continuation ordering, none of which the default run reaches.
    "throughput_bounded": (
        "bench_throughput",
        ["--arrivals=fixed", "--service-ticks=2", "--max-queue=8",
         "--timeout-ticks=100", "--stragglers=4:3"],
        [],
    ),
}

# name -> (binary, extra args, artifact files the example writes)
EXAMPLES = {
    "quickstart": ("quickstart", [], []),
    "churn_and_failures": ("churn_and_failures", [], []),
    "distributed_index": ("distributed_index", [], []),
    "event_driven_sim": ("event_driven_sim", [], []),
    "load_balancing_demo": ("load_balancing_demo", [], []),
    "observability_demo": (
        "observability_demo", [], ["observability_demo_trace.json"]),
}

GOLDENS = {**BENCHES, **EXAMPLES}


def golden_path(name, artifact=None):
    suffix = "stdout" if artifact is None else artifact
    return os.path.join(GOLDEN_DIR, f"{name}.{suffix}")


def digested(path, data):
    """Large outputs are compared (and stored) as `<sha256> <bytes>`."""
    if len(data) <= DIGEST_OVER_BYTES:
        return path, data
    line = f"{hashlib.sha256(data).hexdigest()} {len(data)}\n"
    return path + ".sha256", line.encode()


def run(bin_dir, name):
    """Runs entry `name`; returns {golden path: produced bytes}."""
    binary, args, artifacts = GOLDENS[name]
    exe = os.path.join(os.path.abspath(bin_dir), binary)
    scale = SCALE if name in BENCHES else []
    with tempfile.TemporaryDirectory(prefix=f"golden_{name}_") as cwd:
        proc = subprocess.run([exe] + scale + args, cwd=cwd,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"{name}: {binary} exited {proc.returncode}")
        out = dict([digested(golden_path(name), proc.stdout)])
        for art in artifacts:
            with open(os.path.join(cwd, art), "rb") as f:
                path, data = digested(golden_path(name, art), f.read())
            out[path] = data
    return out


def check(bin_dir, name):
    failed = False
    for path, got in run(bin_dir, name).items():
        try:
            with open(path, "rb") as f:
                want = f.read()
        except FileNotFoundError:
            want = b""
        if got == want:
            continue
        failed = True
        diff = difflib.unified_diff(
            want.decode(errors="replace").splitlines(keepends=True),
            got.decode(errors="replace").splitlines(keepends=True),
            fromfile=os.path.relpath(path, ROOT), tofile="produced")
        sys.stdout.writelines(list(diff)[:200])
    if failed:
        print(f"\n{name}: output differs from the blessed golden; if the "
              f"change is intended, re-bless with tools/bless_goldens.py")
        return 1
    print(f"{name}: identical")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bin-dir", default=os.path.join(ROOT, "build"),
                    help="directory holding the built bench binaries")
    ap.add_argument("--check", metavar="NAME",
                    help="compare one entry instead of blessing")
    ap.add_argument("--list", action="store_true", help="print entry names")
    ap.add_argument("names", nargs="*", help="entries to bless (default all)")
    opts = ap.parse_args()

    if opts.list:
        print("\n".join(GOLDENS))
        return 0
    if opts.check:
        if opts.check not in GOLDENS:
            raise SystemExit(f"unknown golden entry {opts.check}")
        return check(opts.bin_dir, opts.check)
    unknown = [n for n in opts.names if n not in GOLDENS]
    if unknown:
        raise SystemExit(f"unknown golden entries: {', '.join(unknown)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in opts.names or GOLDENS:
        for path, data in run(opts.bin_dir, name).items():
            with open(path, "wb") as f:
                f.write(data)
            print(f"blessed {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
