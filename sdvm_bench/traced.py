"""The traced run: one untraced reference, then the same job with every
layer's entry points wrapped by the ledger, folded into per-layer metrics.

The untraced reference gives ``trace.overhead_frac`` and the virtual-time
figures the traced job must reproduce exactly (the wrappers only observe).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from typing import Any, Dict

from repro.common.config import SDVMConfig
from repro.trace.blame import blame_cluster

from sdvm_bench.ledger import Ledger, LayerTable, install_layer_spans
from sdvm_bench.metrics import LAYER_SELF_METRIC, PER_LAYER
from sdvm_bench.workloads import (LIVE_NAME, LIVE_SITES, SIM_WORKLOADS,
                                  RunResult, SimWorkload, calibration_loop,
                                  live_loop, live_setup, sent_total, sim_job,
                                  sim_setup, virtual_counts, warm_up_sim)

#: blame category -> per-layer metric
_BLAME = {
    "compute": "blame.compute_frac",
    "protocol": "blame.protocol_frac",
    "steal-wait": "blame.steal_wait_frac",
    "code-fetch": "blame.code_fetch_frac",
    "checkpoint-pause": "blame.checkpoint_pause_frac",
    "message-latency": "blame.message_latency_frac",
    "idle": "blame.idle_frac",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(cluster: Any) -> Dict[str, float]:
    """Per-layer counts read from ``cluster_report()``: its merged
    counters (``total_stats()`` on a SimCluster) and derived metrics."""
    report = cluster.cluster_report()
    stats, derived = report.merged, report.derived

    def count(name: str) -> float:
        return float(stats.get(name).count)

    reads_local, reads_remote = count("reads_local"), count("reads_remote")
    return {
        "msgmgr.sent": count("sent"),
        "msgmgr.received": count("received"),
        "msgmgr.malformed": count("malformed"),
        "msgmgr.orphan_replies": count("orphan_replies"),
        "cpu.busy_fraction_mean": derived.get("busy_fraction_mean", 0.0),
        "sched.help_sent": count("help_sent"),
        "sched.steal_grants": derived["steal_grants"],
        "sched.steal_success": derived["steal_success_rate"],
        "sched.gossip_sent": derived["gossip_sent"],
        "sched.gossip_share": _ratio(derived["gossip_sent"],
                                     derived["messages_sent"]),
        "sched.help_timeouts": derived["help_timeouts"],
        "sched.frames_pushed": derived["frames_pushed"],
        "memory.reads_local": reads_local,
        "memory.reads_remote": reads_remote,
        "memory.local_ratio": _ratio(reads_local, reads_local + reads_remote),
        "memory.writes": (count("writes_local") + count("writes_sent")
                          + count("writes_migrated")),
        "memory.dir_updates_sent": count("dir_updates_sent"),
        "code.compiles": count("compiles"),
        "code.compile_virtual_s": stats.get("compile_seconds").total,
        "code.hit_rate": derived["code_hit_rate"],
        "proc.executions": derived["executions"],
        "proc.work_units": derived["work_units"],
        "proc.context_switches": count("context_switches"),
        "crash.waves": derived["checkpoint_waves"],
        "crash.wave_mean_virtual_s": derived["wave_mean_seconds"],
    }


def ledger_metrics(table: LayerTable, window: float) -> Dict[str, float]:
    """Per-layer host seconds and span counts from the ledger."""
    out = {metric: 0.0 for metric in LAYER_SELF_METRIC.values()}
    for layer, seconds in table.layer_self().items():
        out[LAYER_SELF_METRIC[layer]] = seconds
    count, incl, nbytes = table.count, table.inclusive, table.nbytes
    out.update({
        "messages.encodes": float(count.get("serde.dumps", 0)),
        "messages.decodes": float(count.get("serde.loads", 0)),
        "messages.bytes": float(nbytes.get("serde.dumps", 0)),
        "messages.encode_host_s": incl.get("messages.encode", 0.0),
        "messages.decode_host_s": incl.get("messages.decode", 0.0),
        "net.sends": float(count.get("net.send", 0)),
        "net.bytes": float(nbytes.get("net.send", 0)),
        "trace.emits": float(count.get("trace.emit", 0)),
        "trace.spans": float(sum(count.values())),
        "trace.traced_host_s": window,
        "trace.unattributed_frac": 1.0 - table.total_self() / window,
    })
    return out


def _finish(result: RunResult, ledger: Ledger, table: LayerTable,
            metrics: Dict[str, float], out_dir: str) -> None:
    missing = sorted(set(PER_LAYER) - set(metrics))
    metrics.update({name: 0.0 for name in missing})
    result.layer_metrics = {name: metrics[name] for name in PER_LAYER}
    result.context["spans"] = ledger.span_count()
    result.context["open_spans"] = table.open_spans
    result.context["calibration_s"] = calibration_loop()
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, result.workload)
    ledger.write_spans(stem + ".spans.gz")
    layer_self = table.layer_self()
    window = metrics["trace.traced_host_s"]
    doc = {
        "run_id": ledger.run_id,
        "workload": result.workload,
        "traced_host_s": window,
        "layers": {layer: {"self_s": seconds,
                           "share": seconds / window}
                   for layer, seconds in layer_self.items()},
        "unattributed_s": window - table.total_self(),
        "spans": {name: {"count": table.count[name],
                         "inclusive_s": table.inclusive[name],
                         "self_s": table.self_time[name],
                         "bytes": table.nbytes.get(name, 0)}
                  for name in sorted(table.count)},
        "metrics": result.layer_metrics,
    }
    with open(stem + ".ledger.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    result.report_lines.append(f"ledger written to {stem}.ledger.json "
                               f"and {stem}.spans.gz")


def traced_sim(workload: SimWorkload, seed: int, out_dir: str) -> RunResult:
    result = RunResult(workload.name)
    warm_up_sim(seed)
    gc.collect()
    cluster, setup_u = sim_setup(workload, seed)
    formation_u = (cluster.sim.now, float(sent_total(cluster)))
    sample_u, _handle = sim_job(cluster, workload, None)
    result.samples.append(sample_u)
    events_u = cluster.sim.events_executed
    if sample_u.ok:
        for name, value in virtual_counts(cluster, sample_u).items():
            result.note_repeat(name, value)
    cluster = None
    gc.collect()

    ledger = Ledger(run_id=f"{workload.name}-seed{seed}-{os.getpid()}")
    config = workload.make_config(seed).with_(trace=True)
    install_layer_spans(ledger)
    try:
        lo = time.perf_counter()
        cluster, _setup = sim_setup(workload, seed, config=config)
        formation_t = (cluster.sim.now, float(sent_total(cluster)))
        sample_t, _handle = sim_job(cluster, workload, None)
        hi = time.perf_counter()
    finally:
        ledger.uninstall()
    result.samples.append(sample_t)
    for name, pair in (("cluster.formation_virtual_s", 0),
                       ("cluster.formation_msgs", 1)):
        result.note_repeat(name, formation_u[pair])
        result.note_repeat(name, formation_t[pair])
    if not (sample_u.ok and sample_t.ok):
        return result
    for name, value in virtual_counts(cluster, sample_t).items():
        result.note_repeat(name, value)

    window_u = setup_u + sample_u.host_raw
    window_t = hi - lo
    table = ledger.table(lo, hi)
    metrics = counter_metrics(cluster)
    metrics.update(ledger_metrics(table, window_t))
    blame = blame_cluster(cluster)
    denom = blame.cluster_seconds or 1.0
    for category, seconds in blame.totals.items():
        metrics[_BLAME[category]] = seconds / denom
    network = cluster.network_stats()
    metrics.update({
        "sim.events": float(cluster.sim.events_executed),
        "sim.us_per_event": 1e6 * window_u / events_u,
        "cluster.formation_virtual_s": formation_t[0],
        "cluster.formation_msgs": formation_t[1],
        "net.dead_letters": float(network.get("dropped_dead_dst").count),
        "trace.overhead_frac": window_t / window_u - 1.0,
    })
    result.context.update({
        "events": float(cluster.sim.events_executed),
        "messages": metrics["msgmgr.sent"],
        "untraced_host_s": window_u,
    })
    _finish(result, ledger, table, metrics, out_dir)
    return result


def traced_live(seed: int, seconds: float, out_dir: str) -> RunResult:
    result = RunResult(LIVE_NAME)
    cluster, _setup = live_setup(seed)
    try:
        untraced = live_loop(cluster, seconds / 2.0)
    finally:
        cluster.shutdown()
    result.samples.extend(untraced)

    ledger = Ledger(run_id=f"{LIVE_NAME}-seed{seed}-{os.getpid()}")
    install_layer_spans(ledger)
    try:
        cluster, _setup = live_setup(seed, SDVMConfig(seed=seed, trace=True))
        try:
            lo = time.perf_counter()
            traced = live_loop(cluster, seconds / 2.0)
            hi = time.perf_counter()
            metrics = counter_metrics(cluster)
            reactor = cluster.wall_clock_metrics()
            transport = [site.kernel.transport_stats()
                         for site in cluster.sites]
        finally:
            cluster.shutdown()
    finally:
        ledger.uninstall()
    result.samples.extend(traced)
    good_u = [s.host_raw for s in untraced if s.ok]
    good_t = [s.host_raw for s in traced if s.ok]
    if not (good_u and good_t):
        return result
    window = hi - lo
    table = ledger.table(lo, hi)
    metrics.update(ledger_metrics(table, window))
    busy = sum(seconds for name, seconds in table.inclusive.items()
               if name.endswith(".reactor"))
    metrics.update({
        "runtime.reactor_events": reactor["events_executed"],
        "runtime.reactor_busy_frac": busy / (window * LIVE_SITES),
        "net.tcp_retries": sum(t.get("send_retries", 0.0)
                               for t in transport),
        "net.dead_letters": sum(t.get("dead_letters", 0.0)
                                for t in transport),
        "trace.overhead_frac": (statistics.median(good_t)
                                / statistics.median(good_u) - 1.0),
    })
    result.context.update({
        "events": reactor["events_executed"],
        "messages": metrics["msgmgr.sent"],
        "programs_traced": len(good_t),
    })
    _finish(result, ledger, table, metrics, out_dir)
    return result


def traced_run(workload: str, seed: int, seconds: float,
               out_dir: str) -> RunResult:
    if workload == LIVE_NAME:
        return traced_live(seed, seconds, out_dir)
    return traced_sim(SIM_WORKLOADS[workload], seed, out_dir)
