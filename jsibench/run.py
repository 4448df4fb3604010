#!/usr/bin/env python3
"""The jsi benchmark: one command for every workload and metric.

    python3 jsibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 jsibench/run.py --smoke        # every workload once, all checks
    python3 -m unittest discover -s jsibench -p 'test_*.py'

Run from the root of a checkout. The first call builds the program from
source (jsibench/CMakeLists.txt: the repo's libraries and `jsi` CLI plus
the jsi_bench driver) into .bench_build/, or $CARGO_TARGET_DIR when set.
gen.py turns (workload, seed) into scenario texts; the driver runs them
through the program's entry points, checks every output, and returns raw
samples; this script folds them into the metrics (stats.py) and prints
them by name and unit, then, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer split.
The exit status is non-zero when the build, a check, or the run fails.
See README.md in this directory for the metric definitions.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import stats  # noqa: E402

ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# End-to-end metrics, printed for every workload (see README.md for what
# each means on each workload).
END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("campaign_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run, as <module>.<metric>.
PER_LAYER = (
    ("scenario.parse_ms", "ms"),
    ("scenario.build_ms", "ms"),
    ("scenario.unit_us", "us"),
    ("scenario.render_ms", "ms"),
    ("si.bus.build_us", "us"),
    ("si.bus.minor_faults_per_die", "count"),
    ("si.tables.precompile_ms", "ms"),
    ("si.tables.hit_rate", "ratio"),
    ("si.kernel.transitions_per_s", "1/s"),
    ("si.kernel.ns_per_sample", "ns"),
    ("si.memo.hit_rate", "ratio"),
    ("si.detectors.observations", "count"),
    ("si.detectors.ns_per_observation", "ns"),
    ("core.plan.us", "us"),
    ("core.plan.ops", "count"),
    ("core.engine.ms", "ms"),
    ("core.engine.tcks", "count"),
    ("core.engine.ns_per_tck", "ns"),
    ("core.engine.self_ms", "ms"),
    ("core.campaign.chunks", "count"),
    ("core.campaign.busy_frac", "ratio"),
    ("core.campaign.tail_idle_ms", "ms"),
    ("obs.merge_us_per_unit", "us"),
    ("obs.to_json_ms", "ms"),
    ("core.checkpoint.write_us_per_chunk", "us"),
    ("core.checkpoint.bytes_per_chunk", "bytes"),
    ("core.checkpoint.load_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.job_wall_ms", "ms"),
    ("serve.result_bytes", "bytes"),
    ("serve.refused", "count"),
    ("util.json.parse_mb_per_s", "MB/s"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build the driver and `jsi`; returns their paths."""
    out = build_dir() / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "jsi_bench", "jsi_cli"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            log(r.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return out / "jsi_bench", out / "jsi" / "tools" / "jsi_cli" / "jsi"


def provenance(record):
    """Where the numbers come from: source identity and build."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        p = ROOT / top
        files = sorted(p.rglob("*")) if p.is_dir() else [p]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if r.returncode == 0:
            commit = r.stdout.decode().strip()
    b = record["build"]
    return {
        "git_commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "cmake_build_type": b["cmake_build_type"],
        "sanitizer": b["sanitizer"],
        "jsi_native": "-march=native" in b["cxx_flags"],
        "cxx_flags": b["cxx_flags"].strip(),
        "compiler": b["compiler"],
        "hw_threads": b["hw_threads"],
    }


def default_build(prov):
    return (prov["cmake_build_type"] == BUILD_TYPE and not prov["sanitizer"]
            and not prov["jsi_native"])


def run_driver(workload, seed, seconds, trace, smoke, binaries):
    bench, jsi = binaries
    work = build_dir() / "work" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    manifest = gen.generate(workload, seed, work, smoke=smoke)
    cmd = [str(bench), "--workload", workload, "--manifest", str(manifest),
           "--work", str(work), "--jsi", str(jsi), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    # Own process group, so a timeout also takes down the `jsi serve`
    # child the driver may have started.
    p = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    lines = out.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"jsi_bench exited {p.returncode} on {workload}")
    (work / "record.json").write_text(lines[-1] + "\n")
    rec = json.loads(lines[-1])
    # Failed operations arrive as null latencies: beyond any limit.
    rec["samples"] = {k: [math.inf if x is None else x for x in v]
                      for k, v in rec["samples"].items()}
    return rec, work


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def end_to_end(rec):
    """Each end-to-end metric and its sample count."""
    s, v = rec["samples"], rec["values"]
    out, base = {}, {}
    for name, key in (("setup_s", "setup_s"), ("units_per_s", "units_per_s"),
                      ("campaign_p50_ms", "campaign_ms")):
        out[name], base[name] = stats.median(s[key]), len(s[key])
    out["peak_rss_mb"], base["peak_rss_mb"] = v["peak_rss_kb"] / 1024.0, 1
    if "closed.jobs" in v:  # serve_jobs: one closed-loop window of N jobs
        base["units_per_s"] = v["closed.jobs"]
    return out, base


def serve_lines(rec):
    """serve_jobs' per-phase job latency and capacity, by name."""
    s, v = rec["samples"], rec["values"]
    for phase in ("low", "high", "closed"):
        xs = s.get(f"job_ms.{phase}")
        if not xs:
            continue
        rate = (f" at {fmt(v[f'rate.{phase}'])} jobs/s"
                if f"rate.{phase}" in v else "")
        print(f"job_p50_ms.{phase} = {fmt(stats.median(xs))} ms  "
              f"n={len(xs)}{rate}")
        t = stats.tail(xs)
        if t is not None:
            print(f"job_p{fmt(t[0])}_ms.{phase} = {fmt(t[1])} ms  n={len(xs)}")
    if "jobs_per_s" in s:
        print(f"jobs_per_s = {fmt(s['jobs_per_s'][0])} 1/s  "
              f"base={fmt(v['closed.jobs'])} jobs")


def per_layer(rec):
    s, v = rec["samples"], rec["values"]
    out, base = {}, {}
    for name, _ in PER_LAYER:
        key = "L:" + name
        if key in s and s[key]:
            out[name], base[name] = stats.median(s[key]), len(s[key])
        else:
            out[name], base[name] = v.get(key, 0.0), v.get("B:" + name, 0.0)
    return out, base


def report(rec, prov, metrics, units, base):
    """Human-readable lines before the result: provenance, every metric
    with its unit and sample count, the sample distributions."""
    print(f"# jsi benchmark: workload={rec['workload']} seed={rec['seed']} "
          f"trace={int(rec['trace'])}")
    print("# provenance: " + json.dumps(prov, sort_keys=True))
    v = rec["values"]
    knobs = {k: v[k] for k in ("shards", "pool", "clients") if k in v}
    print("# run: " + json.dumps(knobs, sort_keys=True))
    att, failed = rec["attempted"], rec["failed"]
    print(f"failed_frac = {fmt(failed / att if att else 0.0)} ratio "
          f"({failed} failed of {att} attempted)")
    for why in rec["fail_reasons"]:
        print(f"  failure: {why}")
    for name, unit in units:
        line = f"{name} = {fmt(metrics[name])} {unit}  base={fmt(base[name])}"
        if rec["trace"]:
            layer = name.rsplit(".", 1)[0]
            line += f"  failed={int(v.get('F:' + layer, 0))}"
        print(line)
    if not rec["trace"]:
        serve_lines(rec)
    for key in sorted(rec["samples"]):
        if key.startswith("L:"):
            continue
        xs = rec["samples"][key]
        if not xs:
            continue
        sm = stats.summarize(xs)
        line = (f"  sample {key}: median={fmt(sm['median'])} "
                f"q1={fmt(sm['q1'])} q3={fmt(sm['q3'])} n={sm['n']}")
        if "tail_p" in sm:
            line += f" p{fmt(sm['tail_p'])}={fmt(sm['tail'])}"
        print(line)
    if rec["trace"]:
        s = rec["samples"]
        untraced = stats.median(s["trace.untraced_ms"])
        traced = stats.median(s["trace.traced_ms"])
        print(f"tracing_overhead = {fmt(traced / untraced - 1.0)} ratio "
              f"(traced {fmt(traced)} ms vs untraced {fmt(untraced)} ms, "
              f"n={len(s['trace.traced_ms'])})")


def measure(workload, seed, seconds, trace, smoke, binaries):
    rec, work = run_driver(workload, seed, seconds, trace, smoke, binaries)
    prov = provenance(rec)
    if trace:
        metrics, base = per_layer(rec)
        units = PER_LAYER
    else:
        metrics, base = end_to_end(rec)
        units = END_TO_END
    report(rec, prov, metrics, units, base)
    correct = rec["failed"] == 0
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: {"value": metrics[n] if math.isfinite(metrics[n])
                        else None, "unit": u} for n, u in units},
    }
    (work / "result.json").write_text(json.dumps(
        {"result": result, "provenance": prov, "seed": seed,
         "workload": workload}, indent=2) + "\n")
    if not default_build(prov):
        log("jsibench: refusing numbers from a non-default build "
            f"({json.dumps(prov)})")
        return None
    return result


def smoke(binaries):
    """Every workload once, untraced and traced, on shrunk inputs."""
    ok = True
    for workload in gen.WORKLOADS:
        for trace in (False, True):
            result = measure(workload, 1, 1, trace, True, binaries)
            good = result is not None and result["correct"]
            log(f"smoke {workload} trace={int(trace)}: "
                f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    try:
        binaries = build()
        if args.smoke:
            return 0 if smoke(binaries) else 1
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), False, binaries)
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            ValueError, KeyError) as e:
        log(f"jsibench: {e}")
        return 2
    if result is None:
        return 3
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
