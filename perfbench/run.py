#!/usr/bin/env python3
"""Run one workload of the darl benchmark and print its metrics.

    python3 perfbench/run.py --workload {campaign|serve|distributed} \
        --seed N --seconds S --trace {0|1}

Builds the harness and darl_worker from the enclosing source tree (Release,
into $CARGO_TARGET_DIR or .bench_build), runs perfbench_harness, checks its
outputs and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run also writes a Chrome trace under <build>/perfbench/runs/.
Exits non-zero, without a result line, when the sources are missing or the
harness fails, and non-zero after the result line when an output check
failed. See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
import metrics as m  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "serve", "distributed")
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def scratch_env(out):
    """Environment for the build and the harness: temporary files (the
    compiler's included) stay inside the build directory."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "darl").is_dir():
        die(f"darl sources not found under {ROOT}")
    env = scratch_env(out)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_harness",
                  "darl_worker", "-j", "4"])
    with open(log, "w") as lf:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT, env=env,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                die(f"build timed out; see {log}")
            if rc != 0:
                sys.stderr.write(log.read_text()[-4000:])
                die(f"build failed: {' '.join(cmd)}")
    return out / "perfbench_harness", out / "darl" / "tools" / "darl_worker"


def source_digest():
    """sha256 over the program's sources and build files, a commit stand-in
    for checkouts that are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_harness(cmd, cwd, env):
    """Run the harness in its own process group, so a timeout also stops
    the actor processes it spawned. Returns (returncode, stderr)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"harness timed out after {HARNESS_TIMEOUT_S} s")
    return proc.returncode, err


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(raw, seed):
    host = dict(raw["host"])
    host.update(cpu=cpu_model(), nproc=os.cpu_count(), commit=git_commit(),
                source_sha256=source_digest(), seed=seed)
    return host


# --- end-to-end metrics ------------------------------------------------------

# Each returns the metric values and, per metric, a note with what it
# means on this workload (campaign_s, serve_rps, dist_iter_ms, ...) and
# its sample count.

def e2e_campaign(c):
    walls = [j["wall_s"] for j in c["jobs"]]
    trials = [t["wall_s"] for j in c["jobs"] for t in j["trials"]]
    p, tail = m.tail(trials)
    values = {
        "job_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(trials),
        "setup_s": statistics.median(c["setup_s"]),
    }
    notes = {
        "job_s": f"campaign_s: Study::run over 18 trials, median of {len(walls)}",
        "op_p50_ms": f"trial wall p50; p{p:g} = {1e3 * tail:.6g} ms; n={len(trials)}",
    }
    return values, notes


def serve_p99_us(bursts):
    """Closed-loop p99, taken per burst (p99 has 60 samples beyond it in a
    burst of 6,000) and reported as the median over bursts, so a burst the
    host disturbs moves only its own sample."""
    assert all(m.tail_percentile(b["requests"]) == 99.0 for b in bursts)
    return statistics.median(b["p99_us"] for b in bursts)


def e2e_serve(s):
    bursts = s["bursts"]
    walls = [b["wall_s"] for b in bursts]
    reqs = bursts[0]["requests"]
    open_lat = s["open"]["latency_us"]
    values = {
        "job_s": statistics.median(walls),
        "op_p50_ms": s["p50_us"] / 1e3,
        "setup_s": statistics.median(s["setup_s"]),
    }
    notes = {
        "job_s": f"one phase-A burst of {reqs:g} requests from {s['clients']:g} clients, "
                 f"median of {len(walls)}: serve_rps = {reqs / values['job_s']:.6g} 1/s",
        "op_p50_ms": f"serve_p50_us = {s['p50_us']:.6g}, n={len(bursts) * reqs:g}; "
                     f"serve_p99_us = {serve_p99_us(bursts):.6g}, median over "
                     f"{len(bursts)} bursts; open loop at {s['open']['rate_per_s']:g}/s: "
                     f"serve_open_p50_us = {m.percentile(open_lat, 50):.6g}, n={len(open_lat)}",
    }
    return values, notes


def e2e_distributed(d):
    jobs = d["jobs"]
    iter_ms = [m.per_iter_ms(j, "collect", "learn", "sync") for j in jobs]
    setups = [j["wall_s"] - j["collect_s"] - j["learn_s"] - j["sync_s"] for j in jobs]
    p, tail = m.tail(iter_ms)
    values = {
        "job_s": statistics.median(j["wall_s"] for j in jobs),
        "op_p50_ms": statistics.median(iter_ms),
        "setup_s": statistics.median(setups),
    }
    notes = {
        "job_s": f"Backend::run wall, median of {len(jobs)} runs of {jobs[0]['iterations']} iterations",
        "op_p50_ms": f"dist_iter_ms: (collect + learn + sync) / iterations, median; "
                     f"p{p:g} = {tail:.6g} ms; n={len(jobs)}",
        "setup_s": "run() wall minus the iteration phases",
    }
    return values, notes


E2E = {"campaign": e2e_campaign, "serve": e2e_serve, "distributed": e2e_distributed}
E2E_UNITS = {"job_s": "s", "op_p50_ms": "ms", "setup_s": "s"}


# --- per-layer metrics (traced runs) -----------------------------------------

LAYER_UNITS = {
    "core.trial_s.sac": "s", "core.trial_s.ppo": "s", "core.lane_idle_frac": "ratio",
    "frameworks.learn_frac": "ratio", "frameworks.eval_s": "s",
    "frameworks.collect_ms_per_iter": "ms", "frameworks.learn_ms_per_iter": "ms",
    "frameworks.sync_ms_per_iter": "ms", "frameworks.remote_overhead_ms_per_iter": "ms",
    "rl.sac_learn_ms_per_kstep": "ms", "rl.ppo_learn_ms_per_kstep": "ms",
    "nn.learn_gflops": "GFLOP/s", "nn.batch_rows_mean": "rows",
    "nn.eval_batch_us.b1": "us", "nn.eval_batch_us.b4": "us",
    "linalg.gemm_gflops.nt_b64_h64": "GFLOP/s", "linalg.gemm_gflops.tn_b64_h64": "GFLOP/s",
    "linalg.gemm_gflops.nn_b64_h64": "GFLOP/s", "linalg.gemm_gflops.nt_b1_h64": "GFLOP/s",
    "airdrop.step_us.rk3": "us", "airdrop.step_us.rk5": "us", "airdrop.step_us.rk8": "us",
    "ode.rhs_evals_per_step": "count",
    "serve.p99_us": "us", "serve.batch_rows_mean": "rows", "serve.execute_us": "us",
    "serve.wait_us": "us",
    "serve.open_p50_us": "us", "serve.open_p99_us": "us",
    "serve.open_gen_late_us.p50": "us", "serve.open_gen_late_us.max": "us",
    "serve.open_sent": "count", "serve.open_ok": "count", "serve.open_failed": "count",
    "serve.requests_ok": "count", "serve.requests_failed": "count",
    "net.bytes_per_iter.sent": "B", "net.bytes_per_iter.received": "B",
    "net.frames_per_iter": "count",
    "net.weights_encode_us": "us", "net.weights_decode_us": "us",
    "net.batch_encode_us": "us", "net.batch_decode_us": "us",
    "net.frame_roundtrip_us": "us",
    "obs.trace_overhead_frac": "ratio",
}


def ratio(num, den):
    return num / den if den else 0.0


def hist_mean(histograms, name, label=""):
    """Mean of a histogram over all its label sets (instrument keys `name`
    or `name{...}`) whose key contains `label`."""
    n = total = 0.0
    for key, (count, s) in histograms.items():
        if (key == name or key.startswith(name + "{")) and label in key:
            n += count
            total += s
    return ratio(total, n)


def span_total(section, name):
    """(count, seconds) of one span name in a section's traced jobs."""
    count, seconds = section["spans"].get(name, [0.0, 0.0])
    return count, seconds


def traced_overhead(jobs):
    return m.overhead_frac([j["wall_s"] for j in jobs if j["traced"]],
                           [j["wall_s"] for j in jobs if not j["traced"]])


def layers_probes(pr, out):
    for shape, v in pr["gemm_gflops"].items():
        out[f"linalg.gemm_gflops.{shape}"] = v
    for b, v in pr["nn_eval_batch_us"].items():
        out[f"nn.eval_batch_us.{b}"] = v
    for rk, v in pr["airdrop_step_us"].items():
        out[f"airdrop.step_us.{rk}"] = v
    for k in ("weights_encode_us", "weights_decode_us", "batch_encode_us",
              "batch_decode_us", "frame_roundtrip_us"):
        out[f"net.{k}"] = pr["net"][k]


def layers_campaign(c, out):
    trials = [t for j in c["jobs"] for t in j["trials"]]
    sac = [t for t in trials if t["algo"] == "SAC"]
    ppo = [t for t in trials if t["algo"] == "PPO"]
    out["core.trial_s.sac"] = statistics.median(t["wall_s"] for t in sac)
    out["core.trial_s.ppo"] = statistics.median(t["wall_s"] for t in ppo)
    out["core.lane_idle_frac"] = statistics.median(
        m.lane_idle_frac(c["width"], j["wall_s"], [t["wall_s"] for t in j["trials"]])
        for j in c["jobs"])
    out["frameworks.learn_frac"] = ratio(sum(t["learn_s"] for t in trials),
                                         sum(t["wall_s"] for t in trials))
    n_eval, eval_s = span_total(c, "backend.eval")
    out["frameworks.eval_s"] = ratio(eval_s, n_eval)
    ksteps = c["timesteps"] / 1e3
    for name, group in (("sac", sac), ("ppo", ppo)):
        out[f"rl.{name}_learn_ms_per_kstep"] = 1e3 * ratio(
            sum(t["learn_s"] for t in group), len(group) * ksteps)
    _, learn_s = span_total(c, "backend.learn")
    out["nn.learn_gflops"] = 1e-9 * ratio(c["registry"]["values"].get("nn.batched_flops", 0.0),
                                          learn_s)


def layers_serve(s, out):
    out["serve.p99_us"] = serve_p99_us(s["bursts"])
    h = s["registry"]["histograms"]
    out["serve.batch_rows_mean"] = hist_mean(h, "serve.batch_rows")
    n_exec, exec_s = span_total(s, "serve.execute")
    out["serve.execute_us"] = 1e6 * ratio(exec_s, n_exec)
    out["serve.wait_us"] = hist_mean(h, "serve.latency_us", 'outcome="ok"') - out["serve.execute_us"]
    o = s["open"]
    out["serve.open_p50_us"] = m.percentile(o["latency_us"], 50)
    out["serve.open_p99_us"] = m.percentile(o["latency_us"], 99)
    out["serve.open_gen_late_us.p50"] = m.percentile(o["gen_late_us"], 50)
    out["serve.open_gen_late_us.max"] = max(o["gen_late_us"])
    out["serve.open_sent"] = o["sent"]
    out["serve.open_ok"] = o["sent"] - o["failed"]
    out["serve.open_failed"] = o["failed"]
    out["serve.requests_ok"] = s["requests"] - s["failed"]
    out["serve.requests_failed"] = s["failed"]


def layers_distributed(d, out):
    jobs = d["jobs"]
    for phase in ("collect", "learn", "sync"):
        out[f"frameworks.{phase}_ms_per_iter"] = statistics.median(
            m.per_iter_ms(j, phase) for j in jobs)
    out["frameworks.remote_overhead_ms_per_iter"] = m.remote_overhead_ms(jobs, d["inproc"])
    c = d["registry"]["values"]
    traced_iters = sum(j["iterations"] for j in jobs if j["traced"])
    out["net.bytes_per_iter.sent"] = ratio(c.get("net.bytes_sent", 0.0), traced_iters)
    out["net.bytes_per_iter.received"] = ratio(c.get("net.bytes_received", 0.0), traced_iters)
    out["net.frames_per_iter"] = ratio(
        c.get("net.frames_sent", 0.0) + c.get("net.frames_received", 0.0), traced_iters)


LAYERS = {"campaign": layers_campaign, "serve": layers_serve, "distributed": layers_distributed}
JOBS = {"campaign": "jobs", "serve": "bursts", "distributed": "jobs"}


def per_layer(workload, sections):
    """Every per-layer metric. Each layer is read from the section that
    exercises it: the workload itself, or the short probe version of
    another workload that a traced run adds."""
    out = {}
    layers_probes(sections["probes"], out)
    for name, layers in LAYERS.items():
        layers(sections[name], out)
    own = sections[workload]
    out["nn.batch_rows_mean"] = hist_mean(own["registry"]["histograms"], "nn.batch_rows")
    values = own["registry"]["values"]
    out["ode.rhs_evals_per_step"] = ratio(values.get("ode.rhs_evals", 0.0), values.get("ode.steps", 0.0))
    out["obs.trace_overhead_frac"] = traced_overhead(own[JOBS[workload]])
    assert set(out) == set(LAYER_UNITS), set(out) ^ set(LAYER_UNITS)
    return out


# -----------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    harness, worker = build(out_dir)
    runs = out_dir / "runs"
    runs.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    raw_path = runs / f"{tag}.raw.json"
    trace_path = runs / f"{tag}.trace.json"
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
           "--out", raw_path.name, "--worker-bin", str(worker), "--sock-dir", "."]
    if args.trace:
        cmd += ["--trace-out", trace_path.name]
    # The harness runs inside runs/, so the distributed workload's Unix
    # socket path stays short and relative whatever the checkout's path.
    rc, err = run_harness(cmd, runs, scratch_env(out_dir))
    if rc != 0:
        sys.stderr.write(err[-4000:])
        die(f"harness exited with status {rc}")
    raw = json.loads(raw_path.read_text())

    print("host: " + json.dumps(fingerprint(raw, args.seed), sort_keys=True))
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    print(f"{args.workload}: attempted {attempted}, failed {failed}, "
          f"fail_frac {m.fail_frac(attempted, failed):.6g}, "
          f"peak RSS {raw['peak_rss_mb']:.1f} MB")

    if args.trace:
        values = per_layer(args.workload, raw["sections"])
        units = LAYER_UNITS
        dropped = sum(v.get("spans_dropped", 0) for v in raw["sections"].values())
        print(f"{args.workload}: Chrome trace {trace_path} ({dropped} spans dropped)")
    else:
        values, notes = E2E[args.workload](raw["sections"][args.workload])
        units = E2E_UNITS
    for name in sorted(values):
        note = f"  ({notes[name]})" if not args.trace and name in notes else ""
        print(f"{args.workload}: {name} = {values[name]:.6g} {units[name]}{note}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }
    print(json.dumps(result))
    sys.stdout.flush()
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
