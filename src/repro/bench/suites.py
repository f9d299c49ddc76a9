"""Deterministic gate suites for the benchmark regression gate.

Each suite is a small, fully deterministic sim-kernel run (fixed seed,
fixed workload) that produces a flat metric dict plus per-metric
tolerances.  ``repro bench`` runs them, writes ``BENCH_<suite>.json``
artifacts, and ``repro bench --check`` diffs them against the committed
baselines under ``benchmarks/baselines/``.

Tolerances are headroom for *intentional* small changes (e.g. a wire
format tweak shifts every virtual timestamp slightly); an unchanged
codebase reproduces the baselines exactly.

Wall-clock throughput figures (events/sec, msgs/sec) ride along in each
suite's ``meta`` block.  The comparator never looks at ``meta``, so these
machine-dependent numbers are purely informational and cannot fail the
gate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Tuple

from repro.bench.harness import (bench_config, cluster_bench_metrics,
                                 run_primes, run_treesum, wall_clock_meta)

#: (metrics, tolerances, meta) — ``metrics`` are gated against baselines,
#: ``meta`` is informational only
SuiteResult = Tuple[Dict[str, float], Dict[str, float], Dict[str, object]]

#: loose bounds for inherently schedule-sensitive metrics; timings and
#: counts fall back to the comparator's default (5%)
_RATE_TOL = 0.30
_BLAME_TOL = 0.35


def _gate_config():
    # trace=True unconditionally: the blame fractions are part of the gate
    return bench_config(trace=True)


def primes_speedup_suite() -> SuiteResult:
    """primes(25, w=6) on 1/4/8 sites: timings, speedups, blame split."""
    p, width, scale, base = 25, 6, 400.0, 4000.0
    timings: Dict[int, float] = {}
    clusters = []
    cluster8 = None
    for nsites in (1, 4, 8):
        duration, cluster = run_primes(p, width, nsites, scale, base,
                                       config=_gate_config())
        timings[nsites] = duration
        clusters.append(cluster)
        if nsites == 8:
            cluster8 = cluster
    metrics: Dict[str, float] = {
        "t_1": timings[1],
        "t_4": timings[4],
        "t_8": timings[8],
        "speedup_4": timings[1] / timings[4],
        "speedup_8": timings[1] / timings[8],
    }
    metrics.update(cluster_bench_metrics(cluster8, prefix="s8_"))
    tolerances = {
        "s8_steal_success_rate": _RATE_TOL,
        "s8_messages_sent": 0.15,
        "s8_bytes_sent": 0.15,
        "s8_steals_in": _RATE_TOL,
        "s8_steal_grants": _RATE_TOL,
        "s8_help_timeouts": _RATE_TOL,
        "s8_frames_pushed": _RATE_TOL,
        "s8_gossip_sent": _RATE_TOL,
    }
    for name in metrics:
        if name.startswith("s8_blame_"):
            tolerances[name] = _BLAME_TOL
    return metrics, tolerances, wall_clock_meta(clusters)


def overhead_1site_suite() -> SuiteResult:
    """Single-site primes run: protocol overhead must stay small."""
    duration, cluster = run_primes(20, 6, 1, 400.0, 4000.0,
                                   config=_gate_config())
    metrics: Dict[str, float] = {"t_1": duration}
    metrics.update(cluster_bench_metrics(cluster, prefix="s1_"))
    tolerances = {}
    for name in metrics:
        if name.startswith("s1_blame_"):
            tolerances[name] = _BLAME_TOL
    return metrics, tolerances, wall_clock_meta([cluster])


def _scaling_config(nsites: int = 256):
    # big-cluster tuning: a report interval an order (or two, at 1024)
    # above the bench default.  From 16 sites on the report budget
    # (gossip_fanout per interval) is spent on the refresh rotation, so
    # the interval sets the report rate: 256 sites at 1e-3 bury the run
    # in reports.  Staleness is stretched to stay ahead of the interval
    # so load info is ever considered fresh.  Untraced — at these sizes
    # wall clock is the scarce resource.
    gossip = 2e-2 if nsites > 256 else 1e-2
    base = bench_config()
    return base.with_(scheduling=replace(base.scheduling,
                                         gossip_interval=gossip,
                                         gossip_staleness=5.0 * gossip))


def scaling_suite() -> SuiteResult:
    """treesum on 1/64/256/1024 sites: speedup must keep RISING.

    Two ladders.  The 4096-leaf ladder (1/64/256 sites) carries the
    original headline metric ``scaling_gain_64_to_256`` = t_64 / t_256:
    above 1.0 the cluster still gains from the 64 -> 256 growth step.
    The 16384-leaf ladder (256/1024 sites) extends the fence to 1024
    sites — 4096 leaves is only 4 per site there, far below saturation,
    so the big step needs the bigger tree to have any work to
    distribute.  ``scaling_gain_256_to_1024`` = t_256 / t_1024 on that
    ladder is the new headline: above 1.0 the 256 -> 1024 step still
    pays.  Baselines pin both gains near their measured values; the
    tolerances leave room for scheduler tuning but a regression back to
    an inverted regime (gain < 1) is outside them.

    treesum, not primes: the primes collector chain is an O(candidates)
    serial spine that tops out long before 256 sites no matter how good
    work distribution is (see :mod:`repro.apps.treesum`).
    """
    leaves, scale = 4096, 16000.0
    timings: Dict[int, float] = {}
    clusters = []
    cluster256 = None
    for nsites in (1, 64, 256):
        duration, cluster = run_treesum(leaves, scale, nsites,
                                        config=_scaling_config(nsites))
        timings[nsites] = duration
        clusters.append(cluster)
        if nsites == 256:
            cluster256 = cluster
    big_leaves = 16384
    big_timings: Dict[int, float] = {}
    cluster1024 = None
    for nsites in (256, 1024):
        duration, cluster = run_treesum(big_leaves, scale, nsites,
                                        config=_scaling_config(nsites))
        big_timings[nsites] = duration
        clusters.append(cluster)
        if nsites == 1024:
            cluster1024 = cluster
    metrics: Dict[str, float] = {
        "t_1": timings[1],
        "t_64": timings[64],
        "t_256": timings[256],
        "speedup_64": timings[1] / timings[64],
        "speedup_256": timings[1] / timings[256],
        "scaling_gain_64_to_256": timings[64] / timings[256],
        "t_256_l16384": big_timings[256],
        "t_1024_l16384": big_timings[1024],
        "scaling_gain_256_to_1024": big_timings[256] / big_timings[1024],
    }
    metrics.update(cluster_bench_metrics(cluster256, prefix="s256_"))
    metrics.update(cluster_bench_metrics(cluster1024, prefix="s1024_"))
    tolerances = {
        # big-cluster timings are schedule-sensitive: any intentional
        # change to steal/gossip policy shifts them more than the 5%
        # default
        "t_64": 0.15,
        "t_256": 0.15,
        "speedup_64": 0.15,
        "speedup_256": 0.20,
        "scaling_gain_64_to_256": 0.25,
        "t_256_l16384": 0.15,
        "t_1024_l16384": 0.15,
        # measured ~1.17; tight enough that a collapse below ~1.0 (the
        # 256 -> 1024 step stops paying) fails the gate
        "scaling_gain_256_to_1024": 0.12,
        "s256_steal_success_rate": _RATE_TOL,
        "s256_messages_sent": 0.20,
        "s256_bytes_sent": 0.20,
        "s256_steals_in": _RATE_TOL,
        "s256_steal_grants": _RATE_TOL,
        "s256_help_timeouts": _RATE_TOL,
        "s256_frames_pushed": _RATE_TOL,
        "s1024_steal_success_rate": _RATE_TOL,
        "s1024_messages_sent": 0.20,
        "s1024_bytes_sent": 0.20,
        "s1024_steals_in": _RATE_TOL,
        "s1024_steal_grants": _RATE_TOL,
        "s1024_help_timeouts": _RATE_TOL,
        "s1024_frames_pushed": _RATE_TOL,
        "s1024_gossip_sent": _RATE_TOL,
        "s256_gossip_sent": _RATE_TOL,
    }
    return metrics, tolerances, wall_clock_meta(clusters)


#: suite name -> callable producing (metrics, tolerances[, meta]); the
#: fast subset run by ``make bench-gate``
GATE_SUITES: Dict[str, Callable[[], SuiteResult]] = {
    "primes_speedup": primes_speedup_suite,
    "overhead_1site": overhead_1site_suite,
    "scaling": scaling_suite,
}
