"""Seeded input generator of the jsi benchmark.

Each workload's scenario texts are a pure function of (workload, seed):
the benchmark seed only ever reaches the program as generated scenario
files, never as a flag, so any number can be rerun on a held-out seed.
The templates under templates/ are copies of shipped scenarios taken when
the benchmark was defined, so later edits to scenarios/ do not move it.

generate() writes the texts plus a line-oriented manifest the C++ driver
reads:

    seed N              the benchmark seed
    input PATH          in-process workloads: scenario files, cycled per rep
    shards N            campaign shards of every in-process repetition
    checkpoint 0|1      run with a checkpoint sidecar
    job PATH            serve_jobs: one distinct job text
    order I I I ...     serve_jobs: the job sequence, as indices into jobs
    pool N / clients N  serve_jobs: daemon pool, outstanding jobs
    block N             serve_jobs: every N jobs of the order hold the same mix
    rates LOW HIGH      serve_jobs: open-loop jobs/s of the two phases
"""

import json
import random
from pathlib import Path

TEMPLATES = Path(__file__).resolve().parent / "templates"

WORKLOADS = ("sweep_rc", "sweep_low_swing", "table5_n64", "serve_jobs")

# sweep_rc: 6 grid points x 29 dies = 174 dies. Past the 128-unit
# transcript threshold, so the campaign takes the aggregate chunk fold,
# and not a multiple of the 64-unit chunk.
SWEEP_RC_SAMPLES = 29
# sweep_low_swing: 8 x 15 = 120 dies, the shipped size, at or below the
# threshold (per-unit transcript path); two seeded campaigns alternate.
LOW_SWING_CAMPAIGNS = 2
# In-process campaign shards and the serve daemon pool (half of a
# 4-thread box); clients = outstanding jobs in the closed loop, more than
# the pool and at most the hardware threads.
SHARDS = 2
POOL = 2
CLIENTS = 3
# serve_jobs: 8 campaign_8bit-shaped texts and 2 short sweeps (4 grid
# points x 5 dies); one job in 8 is a sweep, at a seeded place in its
# block, so head-of-line blocking reaches the tail.
SERVE_CAMPAIGNS = 8
SERVE_SWEEPS = 2
SERVE_SWEEP_SAMPLES = 5
SERVE_BLOCK = 8
SERVE_ORDER = 800
# Open-loop rates in jobs/s: low is a lightly used daemon; high sits
# below the closed-loop capacity on a 4-thread box.
LOW_RATE = 5.0
HIGH_RATE = 10.0


def _template(name):
    return json.loads((TEMPLATES / f"{name}.scenario.json").read_text())


def _write(path, spec):
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return path


def _campaign_seed(rng):
    return rng.randrange(1, 2**31)


def generate(workload, seed, out_dir, smoke=False):
    """Write the inputs of `workload` for `seed` into out_dir; return the
    manifest path. `smoke` shrinks the sweeps for the quick self-check."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"seed {seed}"]

    if workload == "sweep_rc":
        spec = _template("yield_mc_sweep")
        spec["name"] = "sweep_rc"
        spec["sweep"]["samples"] = 23 if smoke else SWEEP_RC_SAMPLES
        spec["campaign"]["seed"] = _campaign_seed(rng)
        spec["campaign"]["shards"] = SHARDS
        lines += [f"input {_write(out / 'sweep_rc.json', spec)}",
                  f"shards {SHARDS}", "checkpoint 1"]
    elif workload == "sweep_low_swing":
        lines.append(f"shards {SHARDS}")
        for k in range(1 if smoke else LOW_SWING_CAMPAIGNS):
            spec = _template("low_swing_sweep")
            spec["name"] = f"sweep_low_swing_{k}"
            if smoke:
                spec["sweep"]["samples"] = 2
            spec["campaign"]["seed"] = _campaign_seed(rng)
            spec["campaign"]["shards"] = SHARDS
            lines.append(f"input {_write(out / f'low_swing_{k}.json', spec)}")
    elif workload == "table5_n64":
        # The shipped file, byte for byte: deterministic, so no seed.
        path = out / "table5_n64.json"
        path.write_bytes((TEMPLATES / "table5_n64.scenario.json").read_bytes())
        lines += [f"input {path}", "shards 1"]
    else:
        jobs = []
        for k in range(SERVE_CAMPAIGNS):
            spec = _template("campaign_8bit")
            spec["name"] = f"serve_campaign_{k}"
            spec["campaign"]["shards"] = 1
            for s in spec["sessions"]:
                for d in s.get("defects", []):
                    if d["kind"] == "crosstalk":
                        d["wire"] = rng.randrange(spec["topology"]["n_wires"])
            jobs.append(_write(out / f"job_campaign_{k}.json", spec))
        for k in range(SERVE_SWEEPS):
            spec = _template("yield_mc_sweep")
            spec["name"] = f"serve_sweep_{k}"
            spec["sweep"]["samples"] = SERVE_SWEEP_SAMPLES
            spec["sweep"]["nd_vhthr_frac"] = [0.3, 0.65]
            spec["campaign"]["seed"] = _campaign_seed(rng)
            spec["campaign"]["shards"] = 1
            jobs.append(_write(out / f"job_sweep_{k}.json", spec))
        order = []
        while len(order) < SERVE_ORDER:
            block = [rng.randrange(SERVE_CAMPAIGNS) for _ in range(SERVE_BLOCK)]
            block[rng.randrange(SERVE_BLOCK)] = (SERVE_CAMPAIGNS +
                                                 rng.randrange(SERVE_SWEEPS))
            order += block
        lines += [f"job {p}" for p in jobs]
        lines += ["order " + " ".join(map(str, order)), f"pool {POOL}",
                  f"clients {CLIENTS}", f"block {SERVE_BLOCK}",
                  f"rates {LOW_RATE} {HIGH_RATE}"]

    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
