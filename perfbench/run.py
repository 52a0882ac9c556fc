#!/usr/bin/env python3
"""DeepServe benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout. It builds the `perfbench` package next
to this file and the gateway's `serve` binary in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), measures workload W for about
S seconds, checks every output, prints a readable report, and ends with one
JSON line:

    {"correct": true, "attempted": n, "failed": n, "metrics": {...}}

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json and
`--trace 1` the per-layer metrics of a traced run, whose Chrome trace-event
file lands in perfbench/out/. `--smoke` shrinks every workload to a few
dozen requests. README.md explains the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

OFFLINE = ("fanout256", "chat2k", "codegen-pd")
GATEWAY = "gateway-sse"

# Fresh processes per run (and set-up samples for the gateway) at least;
# offline repetitions continue until --seconds have passed.
MIN_REPS = 3
SETUP_SAMPLES = 21

# The gateway at the README settings, driven by one closed-loop client
# (two clients on two TEs collide on a TE now and then, which made the
# simulated TTFT p99 jump between runs). About GATEWAY_RPS requests
# complete per wall second; at least 1,000 leave ten samples beyond p99.
TIMESCALE = 20
GATEWAY_TES = 2
GATEWAY_RPS = 50
GATEWAY_MIN_REQUESTS = 1000
SMOKE_GATEWAY_REQUESTS = 24

# SLO limits of the sim_*_slo_frac metrics.
TTFT_SLO_MS = 3000.0
TPOT_SLO_MS = 50.0

# Per-layer self times must cover at least this share of the traced run.
# Smoke runs last a few hundred microseconds, where one interrupt in the
# stepping loop costs a few percent, so they get a lower floor.
MIN_COVERAGE = 0.95
SMOKE_MIN_COVERAGE = 0.90

# After the build, the whole run, children included, ends within --seconds
# plus this margin (the last repetition, set-up spawns, a traced replay): a
# child still running then is killed.
RUN_MARGIN_S = 150
deadline = None


def remaining_s():
    return max(1.0, deadline - time.monotonic())


def log(msg=""):
    print(msg, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    # The program runs at its defaults: one thread, fast-forward on.
    env.pop("DEEPSERVE_THREADS", None)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return env


ENV = child_env()
TARGET = os.path.join(ROOT, ENV["CARGO_TARGET_DIR"])
BENCH_BIN = os.path.join(TARGET, "release", "perfbench")
SERVE_BIN = os.path.join(TARGET, "release", "serve")


def build():
    """Builds the benchmark and the gateway binary (a no-op when fresh)."""
    cmds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "deepserve-gateway", "--bin", "serve"],
    ]
    for cmd in cmds:
        done = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


class Child:
    """A child process whose stdout we read and whose peak RSS we collect
    with wait4 when it exits. It is killed if it outlives the timeout."""

    def __init__(self, args):
        self.proc = subprocess.Popen(args, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(remaining_s(), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def finish(self):
        """Reads the rest of stdout, reaps the process; returns
        (stdout, exit code, peak RSS in MB)."""
        out = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return out, self.proc.returncode, usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish()


def run_json(args):
    """Runs a perfbench subcommand; returns (its JSON, peak RSS in MB)."""
    child = Child([BENCH_BIN] + args)
    out, code, rss = child.finish()
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"{' '.join(args[:3])} exited with {code}")
    return json.loads(lines[-1]), rss


def repeat(seconds, one):
    """Calls `one()` at least MIN_REPS times and until `seconds` passed."""
    out = []
    until = time.monotonic() + seconds
    while len(out) < MIN_REPS or time.monotonic() < until:
        out.append(one())
    return out


def offline_checks(outcome):
    o = outcome
    return {
        "every generated request was sent": o["sent"] == o["generated"],
        "every sent request completed": o["completed"] == o["sent"],
        "no request failed": o["failed"] == 0,
        "engine output tokens equal the requested total":
            o["output_tokens_engine"] == o["output_tokens_requested"] == o["output_tokens_report"],
    }


def print_inputs(rows):
    log("inputs:")
    for label, text in rows:
        log(f"  {label:<22}{text}")


def token_rows(inputs):
    """Input rows every workload reports, from an inputs dict."""
    return [
        ("mean prompt tokens", f"{inputs['mean_prompt_tokens']:.1f}"),
        ("mean output tokens", f"{inputs['mean_output_tokens']:.1f}"),
        ("shared token share", f"{inputs['shared_token_share']:.4f}"),
        ("rtc hit share", f"{inputs['rtc_hit_share']:.4f}"),
    ]


def print_checks(checks):
    log("checks:")
    for name, ok in checks.items():
        log(f"  [{'ok' if ok else 'FAILED'}] {name}")


def digest(data):
    """Digest of a rendered report, so two commits can be compared byte for
    byte without shipping the report."""
    return hashlib.sha256(data).hexdigest()[:16]


def sim_metrics_of(report, sent):
    """Simulated-system latency of a rendered `RunReport`: its own
    nearest-rank percentiles, and SLO shares over requests sent (a request
    that did not complete misses both limits)."""
    def share(name, limit_ms):
        values = report["metrics"][name]["values"]
        return sum(v <= limit_ms for v in values) / sent if sent else 0.0

    ttft, tpot = report["ttft_ms"], report["tpot_ms"]
    return {
        "sim_ttft_p50_ms": ttft["p50"],
        "sim_ttft_p99_ms": ttft["p99"],
        "sim_tpot_p50_ms": tpot["p50"],
        "sim_tpot_p99_ms": tpot["p99"],
        "sim_ttft_slo_frac": share("cluster.ttft_ms", TTFT_SLO_MS),
        "sim_tpot_slo_frac": share("cluster.tpot_ms", TPOT_SLO_MS),
    }


def hit_share(report, prompt_tokens):
    """Prompt tokens served from the prefix cache, over prompt tokens sent."""
    hits = report["metrics"].get("engine.cache_hit_tokens", {}).get("value", 0)
    return hits / prompt_tokens if prompt_tokens else 0.0


def offline_e2e(workload, seed, seconds, smoke):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}.report.json")
    args = ["offline", "--workload", workload, "--seed", str(seed), "--report", path]
    args += ["--smoke"] if smoke else []

    def one():
        out, rss = run_json(args)
        with open(path, "rb") as f:
            return out, rss, f.read()

    reps = repeat(seconds, one)
    first, _, report_bytes = reps[0]
    checks = {}
    for name in offline_checks(first["outcome"]):
        checks[name] = all(offline_checks(r["outcome"])[name] for r, _, _ in reps)
    digests = {digest(data) for _, _, data in reps}
    checks["every repetition rendered a byte-identical report"] = len(digests) == 1
    sent = sum(r["outcome"]["sent"] for r, _, _ in reps)
    completed = sum(r["outcome"]["completed"] for r, _, _ in reps)
    # Medians over the repetitions. On a shared host whose memory latency
    # swings within seconds, the median spread least between runs; the
    # fastest repetition or the lower quartile spread more (README.md).
    metrics = {
        "setup_s": statistics.median([r["setup_s"] for r, _, _ in reps]),
        "run_s": statistics.median([r["run_s"] for r, _, _ in reps]),
        "peak_rss_mb": statistics.median([rss for _, rss, _ in reps]),
    }
    report = json.loads(report_bytes)
    metrics.update(sim_metrics_of(report, first["outcome"]["sent"]))
    inputs = first["inputs"]
    inputs["rtc_hit_share"] = hit_share(report, inputs["prompt_tokens"])
    print_inputs([
        ("TEs", f"{inputs['tes']} ({inputs['roles']})"),
        ("requests", f"{inputs['requests']}" + ("  (streamed)" if inputs["streamed"] else "")),
        ("offered rps", f"{inputs['offered_rps']:g} (measured {inputs['measured_rps']:.2f})"),
    ] + token_rows(inputs) + [
        ("percentile samples", f"TTFT {report['ttft_ms']['count']}, TPOT {report['tpot_ms']['count']}"),
    ])
    log(f"requests: sent {sent}, succeeded {completed}, failed {sent - completed}"
        f" over {len(reps)} fresh-process repetitions")
    runs = sorted(r["run_s"] for r, _, _ in reps)
    log(f"run_s of the repetitions: {', '.join(f'{x:.3f}' for x in runs)} s")
    log(f"report digest: {digest(report_bytes)}")
    log("  (wall_ttft/wall_tpot: not applicable, the offline workloads serve no wall-clock clients)")
    return metrics, checks, sent, sent - completed


def offline_traced(workload, seed, seconds, smoke):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}.trace.json")
    args = ["trace", "--workload", workload, "--seed", str(seed), "--out", path]
    args += ["--smoke"] if smoke else []
    reps = repeat(seconds, lambda: run_json(args)[0])
    first = reps[0]
    checks = offline_checks(first["outcome"])
    checks["traced report is byte-identical to the untraced one"] = all(r["identical"] for r in reps)
    floor = SMOKE_MIN_COVERAGE if smoke else MIN_COVERAGE
    checks[f"per-layer self times cover at least {floor:.0%} of the traced run_s"] = all(
        r["coverage"] >= floor for r in reps)
    metrics = {k: statistics.median([r["metrics"][k] for r in reps]) for k in first["metrics"]}
    log(f"self time of the traced run (first of {len(reps)}):")
    log(first["table"])
    log(f"chrome trace: {os.path.relpath(path, ROOT)}")
    sent = first["outcome"]["sent"]
    return metrics, checks, sent, sent - first["outcome"]["completed"]


def start_serve(max_requests, extra):
    """Spawns `serve` on a free loopback port; returns (child, address,
    seconds until it was listening, its RSS in MB at that point)."""
    args = [SERVE_BIN, "--addr", "127.0.0.1:0", "--timescale", str(TIMESCALE),
            "--tes", str(GATEWAY_TES), "--max-requests", str(max_requests),
            "--max-wall-ms", str(int(1000 * remaining_s()))] + extra
    t0 = time.perf_counter()
    child = Child(args)
    line = child.proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    prefix = "gateway listening on http://"
    if not line.startswith(prefix):
        child.kill()
        fail(f"serve did not start: {line!r}")
    rss = 0.0
    try:
        with open(f"/proc/{child.proc.pid}/status") as f:
            for row in f:
                if row.startswith("VmRSS:"):
                    rss = int(row.split()[1]) / 1024.0
    except OSError:
        pass
    return child, line[len(prefix):].strip(), setup_s, rss


def session_inputs(path, report):
    """Input properties of a served session log. A request's shared tokens
    are the prefix it has in common with the previous request of its
    session (`cache_id`)."""
    with open(path) as f:
        ingress = json.load(f)["ingress"]
    prompt_tokens = sum(len(r["prompt"]) for r in ingress)
    shared = 0
    last = {}
    for r in ingress:
        prev = last.get(r["cache_id"])
        if prev is not None:
            shared += next((i for i, (a, b) in enumerate(zip(prev, r["prompt"])) if a != b),
                           min(len(prev), len(r["prompt"])))
        if r["cache_id"] is not None:
            last[r["cache_id"]] = r["prompt"]
    n = max(1, len(ingress))
    return {
        "requests": len(ingress),
        "mean_prompt_tokens": prompt_tokens / n,
        "mean_output_tokens": sum(r["target_output"] for r in ingress) / n,
        "shared_token_share": shared / prompt_tokens if prompt_tokens else 0.0,
        "rtc_hit_share": hit_share(report, prompt_tokens),
    }


def gateway(seed, seconds, smoke, traced):
    if smoke:
        requests = SMOKE_GATEWAY_REQUESTS
    else:
        requests = max(GATEWAY_MIN_REQUESTS, int(seconds * GATEWAY_RPS))
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        child, _, setup_s, _ = start_serve(0, [])
        child.finish()
        setups.append(setup_s)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"gateway-seed{seed}")
    live_report, session_log = stem + ".report.json", stem + ".session.json"
    serve, addr, setup_s, setup_rss = start_serve(
        requests, ["--report", live_report, "--session-log", session_log, "--replay-check"])
    setups.append(setup_s)
    client_args = ["client", "--addr", addr, "--seed", str(seed), "--requests", str(requests)]
    if traced:
        client_args += ["--out", stem + ".client.trace.json"]
    try:
        client, _ = run_json(client_args)
    except BaseException:
        serve.kill()
        raise
    out, code, peak_rss = serve.finish()
    with open(live_report, "rb") as f:
        report_bytes = f.read()
    report = json.loads(report_bytes)
    sim = sim_metrics_of(report, client["sent"])
    inputs = session_inputs(session_log, report)

    checks = {
        "every request was sent": client["sent"] == requests,
        "every stream: 200, well-formed SSE JSON frames, exactly max_tokens words, "
        "finish_reason stop, [DONE]": client["succeeded"] == client["sent"],
        "serve --replay-check passed (log::replay reproduces the live report)":
            code == 0 and "replay check passed" in out,
        "the gateway's sim completed every request":
            report["completed"] == client["sent"] and report["failed"] == 0,
    }
    wall, gw = client["wall"], client["gateway"]
    rate = client["sent"] / client["run_s"]
    print_inputs([
        ("TEs", f"{GATEWAY_TES} (colocated), timescale {TIMESCALE}"),
        ("requests", f"{inputs['requests']} from one closed-loop client, {client['turns']}-turn "
                     f"sessions, user turns of {client['turn_words']} words on average, "
                     f"max_tokens {client['max_tokens']}"),
        ("offered rps", f"closed loop: {rate:.2f} wall, {TIMESCALE * rate:.2f} simulated"),
    ] + token_rows(inputs) + [
        ("percentile samples", f"wall TTFT {wall['ttft_samples']:.0f}, wall TPOT "
                               f"{wall['tpot_samples']:.0f}, frame gaps {gw['frame_gaps']:.0f}, "
                               f"sim TTFT/TPOT {report['ttft_ms']['count']}"),
    ])
    log(f"requests: sent {client['sent']}, succeeded {client['succeeded']}, "
        f"failed {client['failed']}")
    log(f"live report digest: {digest(report_bytes)}")
    # The pacer holds each request for its simulated job completion time
    # (JCT) over the timescale; what the client waits beyond that is the
    # gateway's own wall time. gateway-sse's run_s is that time per request
    # (median connect-to-[DONE] minus median paced JCT) times the requests
    # sent: a sum would follow the host's rare multi-millisecond stalls.
    paced_ms = report["jct_ms"]["p50"] / TIMESCALE
    own_ms = client["busy_ms_p50"] - paced_ms
    overhead_s = client["sent"] * own_ms / 1e3
    log(f"gateway's own time per request: median connect to [DONE] {client['busy_ms_p50']:.4f} ms "
        f"- median simulated JCT / timescale {paced_ms:.4f} ms = {own_ms:.4f} ms; "
        f"x {client['sent']} requests = {overhead_s:.4f} s (client wall {client['run_s']:.4f} s)")
    log("wall-clock latency seen by the clients:")
    for k in ("wall_ttft_p50_ms", "wall_ttft_p99_ms", "wall_tpot_p50_ms", "wall_tpot_p99_ms"):
        log(f"  {k:<28} {wall[k]:.4f} ms")
    log("gateway layer:")
    for k in ("gateway.head_ms_p50", "gateway.head_ms_p99", "gateway.first_token_ms_p50",
              "gateway.frame_gap_ms_p99"):
        log(f"  {k:<28} {gw[k]:.4f} ms")

    if traced:
        replay_trace = stem + ".replay.trace.json"
        replay, _ = run_json(["replay", "--log", session_log, "--report", live_report,
                              "--tes", str(GATEWAY_TES), "--out", replay_trace])
        checks["log::replay of the session log reproduces the live report"] = replay["identical"]
        checks["the traced replay reproduces the live report"] = replay["traced_identical"]
        floor = SMOKE_MIN_COVERAGE if smoke else MIN_COVERAGE
        checks[f"per-layer self times cover at least {floor:.0%} of the client's wall time "
               "and of the traced replay"] = min(client["coverage"], replay["coverage"]) >= floor
        metrics = dict(replay["metrics"])
        metrics["rss.setup_mb"] = setup_rss
        metrics["workloads.shared_token_share"] = inputs["shared_token_share"]
        log(f"  {'gateway.replay_s':<28} {replay['replay_s']:.6f} s")
        log("self time of the client's closed loop:")
        log(client["table"])
        log("self time of the traced replay:")
        log(replay["table"])
        log(f"chrome traces: {os.path.relpath(stem, ROOT)}.client.trace.json, "
            f"{os.path.relpath(replay_trace, ROOT)}")
    else:
        metrics = {"setup_s": statistics.median(setups), "run_s": overhead_s, "peak_rss_mb": peak_rss}
        metrics.update(sim)
    return metrics, checks, client["sent"], client["failed"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=OFFLINE + (GATEWAY, "all"),
                    help="a workload, or `all` to run every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny workloads (for the smoke test)")
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isfile(spec_path):
        fail("run from the root of a DeepServe checkout (Cargo.toml, BENCHMARK.json)")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    if a.workload == "all":
        # One child run per workload; each prints its report and JSON line.
        rest = ["--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
        rest += ["--smoke"] if a.smoke else []
        codes = [subprocess.run([sys.executable, __file__, "--workload", w] + rest).returncode
                 for w in OFFLINE + (GATEWAY,)]
        sys.exit(max(codes))

    build()
    global deadline
    deadline = time.monotonic() + max(0.0, a.seconds) + RUN_MARGIN_S
    log(f"== {a.workload}  seed {a.seed}  trace {a.trace}  ({os.cpu_count()} cores)")
    if a.workload == GATEWAY:
        metrics, checks, attempted, failed = gateway(a.seed, a.seconds, a.smoke, a.trace == 1)
    elif a.trace:
        metrics, checks, attempted, failed = offline_traced(a.workload, a.seed, a.seconds, a.smoke)
    else:
        metrics, checks, attempted, failed = offline_e2e(a.workload, a.seed, a.seconds, a.smoke)

    checks["reports exactly the metrics BENCHMARK.json lists"] = set(metrics) == {
        m["name"] for m in wanted}
    print_checks(checks)
    log("metrics:")
    result = {}
    for m in wanted:
        value = metrics.get(m["name"], 0.0)
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"  {m['name']:<28} {value:.6g} {m['unit']}")
    correct = all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}), flush=True)


if __name__ == "__main__":
    main()
