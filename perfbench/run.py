#!/usr/bin/env python3
"""bfsx benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the bfsx libraries
from src/ plus the C++ binary in cpp/) into $CARGO_TARGET_DIR or .bench_build,
runs the workload in a child process with pinned thread counts, checks
its answers, and prints the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1) as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A line starting with "# " before it records the host, the tail
percentile and its sample count, and the other run details.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> workload family. See README.md for why each workload exists.
WORKLOADS = {
    "rmat20-g500": "g500",
    "grid1k-g500": "g500",
    "serve-rmat18-read": "serve",
    "serve-rmat18-churn": "serve",
}

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.rmat_s": "s",
    "graph.build_csr_s": "s",
    "graph.csr_mb": "MB",
    "bfs.td_ms": "ms",
    "bfs.bu_ms": "ms",
    "bfs.overhead_ms": "ms",
    "bfs.us_per_level": "us",
    "bfs.levels": "count",
    "bfs.bu_levels": "count",
    "bfs.td_edges": "count",
    "bfs.bu_edges_scanned": "count",
    "bfs.bu_hit_ratio": "ratio",
    "bfs.td_ns_per_edge": "ns",
    "bfs.bu_ns_per_edge": "ns",
    "bfs.msbfs_pass_ms": "ms",
    "bfs.msbfs_pass_delta_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.batch_mean": "count",
    "serve.single_share": "ratio",
    "serve.dispatches": "count",
    "serve.gen_late_ms_tail": "ms",
    "serve.rejected": "count",
    "serve.publish_ms_p50": "ms",
    "serve.publish_ms_max": "ms",
    "serve.graph_publish_ms_p50": "ms",
    "serve.cache_rearm_ms_p50": "ms",
    "serve.cache_repairs": "count",
    "serve.cache_rebuilds": "count",
    "serve.repair_lowered_per_relaxed": "ratio",
    "serve.patched_fraction_max": "ratio",
    "serve.compactions": "count",
    "serve.live_epochs_max": "count",
    "trace.p50_gap_ms": "ms",
    "trace.p50_gap_share": "ratio",
}

# Set-up repetitions per run; setup_s is their median. Traced runs
# report no setup_s and set up once.
SETUP_REPS = 3
# Slack on the level-time reconciliation: the levels run inside the
# timed engine call, so their sum may exceed its wall time only by
# clock granularity.
RECONCILE_EPS_MS = 0.001
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures once, then builds the binary; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def thread_plan(family):
    """Threads for the main thread and for each serve worker's team.

    Graph 500 roots run one at a time on a team of every CPU. The serve
    engine runs 2 workers, each opening its own OpenMP team, next to the
    generator and (churn) the writer thread; the team is sized so
    workers x team + generator + writer <= nproc.
    """
    nproc = len(os.sched_getaffinity(0))
    if family == "g500":
        return nproc, nproc
    return nproc, max(1, (nproc - 2) // 2)


def run_binary(binary, args, family):
    threads, team = thread_plan(family)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "KMP_"))}
    # OpenMP sizes the teams of new threads (the serve workers) from
    # OMP_NUM_THREADS; the binary sets its own main thread to `threads`.
    env.update({"OMP_NUM_THREADS": str(team), "OMP_DYNAMIC": "false",
                "OMP_PROC_BIND": "false"})
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--team", str(team),
           "--setup-reps", str(1 if args.trace else SETUP_REPS)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if proc.returncode != 0:
        fail(f"workload exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing")
    return json.loads(lines[-1])


def latencies(raw, prefix=""):
    """Per-operation latency in ms (and serve generator lateness)."""
    if prefix + "due_s" in raw:
        return stats.open_loop(raw[prefix + "due_s"], raw[prefix + "submit_s"],
                               raw[prefix + "service_s"])
    key = "trace_wall_ms" if prefix else "latency_ms"
    return raw[key], []


def end_to_end(raw, family, info):
    latency, late = latencies(raw)
    tail, pct, n = stats.tail(latency)
    info["latency_ms_tail"] = {"percentile": round(pct, 2), "samples": n,
                               "beyond": stats.TAIL_BEYOND}
    if family == "g500":
        throughput = stats.harmonic_mean(raw["teps"])
        info["throughput"] = f"harmonic-mean TEPS over {len(raw['teps'])} roots"
    else:
        throughput = raw["sat_answered"] / raw["sat_seconds"]
        info["throughput"] = (f"{raw['sat_answered']:.0f} answers in "
                              f"{raw['sat_seconds']:.3f} s of saturation")
        late_tail, late_pct, _ = stats.tail(late)
        info["gen_late_ms"] = {"p50": stats.median(late), "tail": late_tail,
                               "tail_percentile": round(late_pct, 2)}
        info["offered_rate_per_s"] = raw["offered_rate"]
    info["setup_s_reps"] = raw["setup_s"]
    return {
        "throughput_per_s": throughput,
        "latency_ms_p50": stats.median(latency),
        "latency_ms_tail": tail,
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def g500_layers(raw):
    """Per-root level tallies of the traced half -> bfs.* metrics."""
    wall = raw["trace_wall_ms"]
    td, bu = raw["trace_td_ms"], raw["trace_bu_ms"]
    levels, bu_levels = raw["trace_levels"], raw["trace_bu_levels"]
    td_edges, bu_scanned = raw["trace_td_edges"], raw["trace_bu_scanned"]
    if not len(wall) == len(td) == len(levels):
        raise ValueError("trace: one tally per traced root expected")
    overhead = [w - t - b for w, t, b in zip(wall, td, bu)]
    reconciles = all(o >= -RECONCILE_EPS_MS for o in overhead)

    def rate(total_ms, work):
        return total_ms * 1e6 / work if work > 0 else 0.0

    return {
        "bfs.td_ms": stats.median(td),
        "bfs.bu_ms": stats.median(bu),
        "bfs.overhead_ms": stats.median(overhead),
        "bfs.us_per_level": stats.median([w * 1e3 / l for w, l in zip(wall, levels)]),
        "bfs.levels": stats.median(levels),
        "bfs.bu_levels": stats.median(bu_levels),
        "bfs.td_edges": stats.median(td_edges),
        "bfs.bu_edges_scanned": stats.median(bu_scanned),
        "bfs.bu_hit_ratio": (sum(raw["trace_bu_hit"]) / sum(bu_scanned)
                             if sum(bu_scanned) > 0 else 0.0),
        "bfs.td_ns_per_edge": rate(sum(td), sum(td_edges)),
        "bfs.bu_ns_per_edge": rate(sum(bu), sum(bu_scanned)),
    }, reconciles


def per_layer(raw, family, info):
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(raw.get("layers", {}))
    untraced, _ = latencies(raw)
    traced, late = latencies(raw, "trace_")
    reconciles = True
    if family == "g500":
        bfs, reconciles = g500_layers(raw)
        layers.update(bfs)
    else:
        layers["serve.gen_late_ms_tail"] = stats.tail(late)[0]
        info["trace_events"] = raw["trace_events"]
    gap = stats.median(traced) - stats.median(untraced)
    layers["trace.p50_gap_ms"] = gap
    layers["trace.p50_gap_share"] = gap / stats.median(untraced)
    info["reconciled"] = {
        "level_time_within_root_wall": reconciles,
        "publish_eq_graph_publish_plus_rearm": raw["consistent"],
        "eps_ms": RECONCILE_EPS_MS,
    }
    info["export_metrics"] = raw.get("export_metrics", {})
    info["perf_counters"] = {k: v for k, v in raw.items() if k.startswith("perf_")}
    return {k: layers[k] for k in PER_LAYER}, reconciles


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    family = WORKLOADS[args.workload]
    raw = run_binary(build(), args, family)
    info = {key: raw[key] for key in raw if key.startswith("host_")}
    info["workload"] = args.workload
    info["seed"] = args.seed
    if args.trace:
        values, consistent = per_layer(raw, family, info)
        units = PER_LAYER
    else:
        values, consistent = end_to_end(raw, family, info), True
        units = END_TO_END
    consistent = consistent and raw["consistent"]
    info["failure_share"] = stats.failure_share(raw["attempted"], raw["failed"])
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": consistent and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
