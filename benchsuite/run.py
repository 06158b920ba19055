#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md next to this file).

One run (the interface BENCHMARK.json names):
  python3 benchsuite/run.py --workload lookup-uniform --seed 7 --seconds 10 --trace 0
    Builds bench_suite (Release) under .bench_build/, runs one workload in one
    process and prints its JSON result as the last line of stdout.

Suite:
  python3 benchsuite/run.py [--reps 5] [--seed S | --seeds a,b,...] [--sets 1]
                            [--trace] [--out FILE]
    Runs every workload --reps times per set (one process at a time, order
    alternating between reps), prints each end-to-end metric's median and
    quartiles, and exits non-zero on any wrong answer. --trace adds one
    traced run per workload (alone, --trace runs only those) and prints the
    per-layer metrics and each workload's layers ranked by self time.
  python3 benchsuite/run.py --smoke
    Every workload once at N <= 2,000 with the correctness gate.

Compare:
  python3 benchsuite/run.py compare A.json [B.json]
    Verdict per (end-to-end metric, workload): B's runs against A's (with one
    file, its second set against its first).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent
BUILD = ROOT / ".bench_build" / "benchsuite"
BINARY = BUILD / "bench_suite"
OUT = BUILD / "out"
DEFAULT_SEED = 20260608
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds bench_suite; a no-op rebuild when up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = [
        ["cmake", "-S", str(SUITE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", "2"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log: %s)" % log_path)


def run_once(spec, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in one process; returns its parsed result."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(OUT)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out after %d s" % (workload, seed,
                                                  RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s seed %d exited %d without a result" % (workload, seed,
                                                        proc.returncode))
    result = json.loads(lines[-1])
    expected = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics disagree with BENCHMARK.json: missing %s, extra %s, "
             "or a unit differs" % (missing, extra))
    result["exit_code"] = proc.returncode
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def stamp(seeds):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1]
                out = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                                     text=True).stdout
                compiler = out.splitlines()[0] if out else cxx
    sha, dirty = "unknown", None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if git.returncode == 0:
            sha = git.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    stdout=subprocess.PIPE, text=True)
            dirty = bool(status.stdout.strip())
    except OSError:
        pass
    return {"seeds": seeds, "nproc": os.cpu_count(), "cpu": cpu,
            "compiler": compiler, "build_type": "Release", "git_sha": sha,
            "git_dirty": dirty, "python": platform.python_version(),
            "date": time.strftime("%Y-%m-%d")}


def print_set(spec, runs, title):
    print("\n== %s (%d runs) ==" % (title, len(runs)))
    print("%-20s %-16s %-7s %14s %14s %14s %8s" %
          ("workload", "metric", "unit", "median", "q1", "q3", "iqr%"))
    for w in [x["name"] for x in spec["workloads"]]:
        mine = [r for r in runs if r["workload"] == w]
        if not mine:
            continue
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in mine]
            q1, med, q3 = quartiles(vals)
            iqr = 100.0 * (q3 - q1) / med if med else 0.0
            print("%-20s %-16s %-7s %14.6g %14.6g %14.6g %8.2f" %
                  (w, m["name"], m["unit"], med, q1, q3, iqr))
        bad = sum(1 for r in mine if not r["correct"])
        failed = sum(r["failed"] for r in mine)
        attempted = sum(r["attempted"] for r in mine)
        print("%-20s correct %d/%d runs, failed ops %d of %d" %
              (w, len(mine) - bad, len(mine), failed, attempted))


LAYERS = ["workload", "overlay", "baton", "net", "sim", "cache", "fault",
          "obs", "serve", "trace"]


def print_traced(spec, runs):
    for r in runs:
        m = r["metrics"]
        print("\n== traced: %s seed %d ==" % (r["workload"], r["seed"]))
        for layer in LAYERS:
            rows = [x for x in spec["per_layer"]
                    if x["name"].split(".")[0] == layer]
            for x in rows:
                print("  %-34s %14.6g %s" % (x["name"], m[x["name"]]["value"],
                                             x["unit"]))
        ranked = sorted(((m[l + ".self_pct"]["value"], l) for l in LAYERS
                         if l + ".self_pct" in m), reverse=True)
        print("  layers by self time: " + ", ".join(
            "%s %.1f%%" % (l, v) for v, l in ranked if v > 0))
        print("  attach overhead: " + ", ".join(
            "%s %+.1f%%" % (l, m[l + ".attach_overhead_pct"]["value"])
            for l in ["sim", "cache", "fault", "obs"]) +
            "; tracing overhead %+.1f%%" % m["trace.overhead_pct"]["value"])


def suite(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else [args.seed] * args.reps)
    seconds = 0.25 if args.smoke else spec["run_seconds"]
    sets = args.sets if args.sets is not None else (0 if args.trace else 1)
    if args.smoke:
        seeds, sets = [args.seed], 1
    build()
    doc = {"meta": stamp(sorted(set(seeds))), "sets": [], "traced": []}
    ok = True
    for s in range(sets):
        runs = []
        for rep, seed in enumerate(seeds):
            order = names if (rep + s) % 2 == 0 else names[::-1]
            for w in order:
                t0 = time.time()
                r = run_once(spec, w, seed, seconds, False, args.smoke)
                r.update({"workload": w, "seed": seed, "rep": rep,
                          "wall_s": round(time.time() - t0, 2)})
                print("run.py: set %d rep %d %s seed %d: %.1f s%s" %
                      (s + 1, rep + 1, w, seed, r["wall_s"],
                       "" if r["correct"] else "  WRONG ANSWERS"),
                      file=sys.stderr)
                ok = ok and r["correct"] and r["exit_code"] == 0
                runs.append(r)
        doc["sets"].append({"runs": runs})
        print_set(spec, runs, "set %d" % (s + 1))
    if args.trace:
        for w in names:
            r = run_once(spec, w, seeds[0], seconds, True, args.smoke)
            r.update({"workload": w, "seed": seeds[0]})
            ok = ok and r["correct"] and r["exit_code"] == 0
            doc["traced"].append(r)
        print_traced(spec, doc["traced"])
    out = Path(args.out) if args.out else BUILD / "suite-latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\nrun.py: results written to %s" % out)
    if not ok:
        fail("wrong answers or a failed run (see above)")


def compare(paths, spec):
    docs = [json.loads(Path(p).read_text()) for p in paths]
    if len(docs) == 1:
        if len(docs[0]["sets"]) < 2:
            fail("one file needs two sets to compare")
        a, b = docs[0]["sets"][0]["runs"], docs[0]["sets"][1]["runs"]
    else:
        a = [r for s in docs[0]["sets"] for r in s["runs"]]
        b = [r for s in docs[1]["sets"] for r in s["runs"]]
    print("%-20s %-16s %-6s %12s %12s %12s %12s %7s  %s" %
          ("workload", "metric", "bound", "A median", "A iqr", "B median",
           "B iqr", "wins", "verdict"))
    regressions = 0
    for w in [x["name"] for x in spec["workloads"]]:
        ra = [r for r in a if r["workload"] == w]
        rb = [r for r in b if r["workload"] == w]
        if not ra or not rb:
            continue
        more_failed = sum(r["failed"] for r in rb) > sum(r["failed"]
                                                         for r in ra)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = -1.0 if m["better"] == "lower" else 1.0
            va = [r["metrics"][name]["value"] for r in ra]
            vb = [r["metrics"][name]["value"] for r in rb]
            qa1, ma, qa3 = quartiles(va)
            qb1, mb, qb3 = quartiles(vb)
            spread = max((qa3 - qa1) / ma if ma else 0,
                         (qb3 - qb1) / mb if mb else 0)
            worse = sign * (ma - mb) / ma if ma else 0.0
            pairs = list(zip(va, vb))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            all_better = min(sign * y for y in vb) > max(sign * x for x in va)
            gap = abs(mb - ma)
            if worse > bound and not all_better:
                verdict = "REGRESSION (%.1f%% worse)" % (100 * worse)
                regressions += 1
            elif (wins >= 0.9 * len(pairs) and gap > qa3 - qa1 and
                  sign * (mb - ma) > 0):
                verdict = ("gain (%.1f%%)" % (100 * abs(mb - ma) / ma)
                           if not more_failed else
                           "gain void: more failed ops than A")
            elif spread > bound and not all_better:
                verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
            else:
                verdict = "same within bound"
            # Counted metrics repeat exactly per seed, so with the same seed
            # list on both sides a change below the bound still shows here.
            moved = [sign * (y - x) for x, y in pairs if y != x]
            if pairs and len(moved) == len(pairs) and (
                    all(v > 0 for v in moved) or all(v < 0 for v in moved)):
                verdict += " (moved on every pair)"
            print("%-20s %-16s %5.0f%% %12.6g %12.6g %12.6g %12.6g %3d/%-3d  %s"
                  % (w, name, 100 * bound, ma, qa3 - qa1, mb, qb3 - qb1, wins,
                     len(pairs), verdict))
        bad = sum(1 for r in ra + rb if not r["correct"])
        if bad or more_failed:
            print("%-20s correctness: %d incorrect runs; failed ops A %d, B %d"
                  % (w, bad, sum(r["failed"] for r in ra),
                     sum(r["failed"] for r in rb)))
    if regressions:
        fail("%d regressions" % regressions)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) not in (3, 4):
            fail("usage: run.py compare A.json [B.json]")
        compare(sys.argv[2:], load_spec())
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seeds")
    p.add_argument("--sets", type=int)
    p.add_argument("--out")
    args = p.parse_args()
    spec = load_spec()
    if args.workload is None:
        suite(args, spec)
        return
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    build()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    r = run_once(spec, args.workload, args.seed, seconds, bool(args.trace),
                 args.smoke)
    code = r.pop("exit_code")
    print(json.dumps(r))
    sys.exit(code)


if __name__ == "__main__":
    main()
