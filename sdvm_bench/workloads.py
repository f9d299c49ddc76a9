"""The benchmark's four workloads and the measured runs behind them.

Every workload drives the SDVM only through its public API: SimCluster /
LiveCluster, the ``repro.apps`` builders, ``cluster_report()``,
``total_stats()`` and ``repro.trace.blame.blame_cluster``.

Two clocks.  *Virtual* figures (makespan, speedup, counts, blame) come from
the simulator and repeat exactly for a given seed.  *Host* figures are
``perf_counter`` seconds scaled by a pure-Python calibration loop that is
timed in the same process between chunks of work (see ``HostClock``), so a
run on a momentarily slower or faster host reads the same.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import (build_memstress_program, build_primes_program,
                        build_treesum_program, first_n_primes,
                        memstress_expected, treesum_expected)
from repro.apps.primes import sequential_work_units
from repro.bench.calibration import PAPER_TABLE1, calibrated_test_params
from repro.bench.harness import bench_config
from repro.common.config import CheckpointConfig, SDVMConfig
from repro.common.errors import SDVMError
from repro.runtime.live_cluster import LiveCluster
from repro.site.simcluster import SimCluster

#: the calibration loop's time on the machine the benchmark was tuned on
#: (2-core x86-64 VM, CPython 3.11); host seconds are reported as seconds
#: of that machine
CALIBRATION_REFERENCE_S = 0.016

#: simulator events per measured chunk; the calibration loop runs between
#: chunks (about 0.15-0.25 host seconds apart).  Halving the chunk from
#: 10,000 events cut the run-to-run spread of scaled job seconds from
#: about 4% to under 2% of the median.
CHUNK_EVENTS = 5_000

#: membership is polled at this virtual granularity during set-up
FORMATION_STEP_S = 1e-4

#: a sim job that runs longer than this on the host counts as failed
JOB_HOST_LIMIT_S = 120.0


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop (arithmetic, dict and
    list traffic, calls) that never touches the SDVM."""
    start = time.perf_counter()
    acc = 0
    table: Dict[int, Tuple[int, int]] = {}
    items: List[int] = []
    for i in range(50_000):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 1023] = (acc, i)
        if i & 7 == 0:
            items.append(acc)
    items.sort()
    return time.perf_counter() - start


class HostClock:
    """Converts raw host seconds to reference-machine seconds.

    ``scale(raw)`` scales ``raw`` by the calibration loops timed just
    before and just after it; ``calibrations`` keeps every loop time for
    the host-context block.
    """

    def __init__(self) -> None:
        self.calibrations: List[float] = []
        self._last = self.calibrate()

    def calibrate(self) -> float:
        value = calibration_loop()
        self.calibrations.append(value)
        self._last = value
        return value

    def scale(self, raw: float) -> float:
        before = self._last
        after = self.calibrate()
        return raw * CALIBRATION_REFERENCE_S / ((before + after) / 2.0)


@dataclass
class Sample:
    """Outcome of one program run."""

    ok: bool
    failure: str = ""
    makespan: float = 0.0
    host_raw: float = 0.0
    host: float = 0.0


@dataclass
class RunResult:
    """Everything one benchmark invocation measured."""

    workload: str
    samples: List[Sample] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    setup_raw: List[float] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    #: virtual-time figures that must repeat exactly: name -> values seen
    repeats: Dict[str, List[float]] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)
    report_lines: List[str] = field(default_factory=list)

    def note_repeat(self, name: str, value: float) -> None:
        self.repeats.setdefault(name, []).append(value)

    def divergent(self) -> List[str]:
        return sorted(name for name, values in self.repeats.items()
                      if len(set(values)) > 1)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


# ---------------------------------------------------------------------------
# simulated workloads


@dataclass(frozen=True)
class SimWorkload:
    name: str
    why: str
    nsites: int
    make_config: Callable[[int], SDVMConfig]
    build: Callable[[], Any]
    args: tuple
    expected: Any
    #: virtual seconds after which the job counts as timed out
    timeout_virtual: float
    #: timed set-ups per run, the job's own cluster included
    setups: int
    #: about how long one job takes on the reference machine; a run does
    #: ``seconds // job_seconds`` jobs, at least one
    job_seconds: float
    #: ideal sequential seconds; None: charged work x work_unit_time
    ideal_seconds: Optional[float] = None
    #: printed beside the measured makespan, never compared
    reference: str = ""


def _primes_config(seed: int) -> SDVMConfig:
    return bench_config(seed=seed, trace=False)


def _treesum_config(seed: int) -> SDVMConfig:
    # the big-cluster scaling gate's tuning: gossip an order slower than
    # the bench default, staleness stretched to stay ahead of it
    base = bench_config(seed=seed, trace=False)
    return base.with_(scheduling=replace(base.scheduling,
                                         gossip_interval=1e-2,
                                         gossip_staleness=5e-2))


def _memstress_config(seed: int) -> SDVMConfig:
    return bench_config(seed=seed, trace=False,
                        checkpoint=CheckpointConfig(enabled=True,
                                                    interval=0.05))


_PRIMES_SCALE, _PRIMES_BASE = calibrated_test_params(100, 10)

SIM_WORKLOADS: Dict[str, SimWorkload] = {w.name: w for w in (
    SimWorkload(
        name="table1-primes-s8",
        why="the paper's own Table 1 row (p=100, width=10, 8 sites): "
            "sched gossip/steal traffic and a fixed code-compile prefix",
        nsites=8, make_config=_primes_config,
        build=build_primes_program,
        args=(100, 10, _PRIMES_SCALE, _PRIMES_BASE),
        expected=first_n_primes(100), timeout_virtual=60.0, setups=10,
        job_seconds=12.0,
        ideal_seconds=sequential_work_units(
            100, scale=_PRIMES_SCALE, base=_PRIMES_BASE)
        * SDVMConfig().cost.work_unit_time,
        reference="paper Table 1: T8 = %.1f s, S8 = %.2f" % (
            PAPER_TABLE1[(100, 10)][2],
            PAPER_TABLE1[(100, 10)][0] / PAPER_TABLE1[(100, 10)][2])),
    SimWorkload(
        name="treesum-256",
        why="256 sites: cluster formation costs real host time and the "
            ">16-peer sampling, rumor-relay and hot-peer paths run",
        nsites=256, make_config=_treesum_config,
        build=build_treesum_program, args=(4096, 16000.0),
        expected=treesum_expected(4096), timeout_virtual=10.0, setups=5,
        job_seconds=15.0),
    SimWorkload(
        name="memstress-ckpt-s16",
        why="writes beside reads: the only workload that loads the "
            "attraction memory and the checkpoint waves of crash",
        nsites=16, make_config=_memstress_config,
        build=build_memstress_program, args=(2048, 2000.0),
        expected=memstress_expected(2048), timeout_virtual=10.0,
        setups=10, job_seconds=9.5),
)}


def formed(cluster: Any, nsites: int) -> bool:
    """Every site runs and knows every other site as alive."""
    return all(site.running
               and len(site.cluster_manager.sorted_alive_ids()) == nsites - 1
               for site in cluster.sites)


def _form_sim(cluster: SimCluster, nsites: int) -> None:
    while not formed(cluster, nsites):
        before = cluster.sim.events_executed
        cluster.sim.run(until=cluster.sim.now + FORMATION_STEP_S)
        if cluster.sim.now > 10.0 and cluster.sim.events_executed == before:
            raise SDVMError("cluster formation stalled")


def sent_total(cluster: Any) -> int:
    stats = cluster.total_stats()
    return stats.get("sent").count + stats.get("local_messages").count


def sim_setup(workload: SimWorkload, seed: int,
              config: Optional[SDVMConfig] = None,
              ) -> Tuple[SimCluster, float]:
    """Build the cluster and run it to full membership; returns the
    cluster and the raw host seconds that took."""
    config = config or workload.make_config(seed)
    start = time.perf_counter()
    cluster = SimCluster(nsites=workload.nsites, config=config)
    _form_sim(cluster, workload.nsites)
    return cluster, time.perf_counter() - start


def sim_job(cluster: SimCluster, workload: SimWorkload,
            clock: Optional[HostClock]) -> Tuple[Sample, Any]:
    """Submit the workload's program on a formed cluster and run it to
    its result, in chunks of simulator events; the calibration loop runs
    between chunks when ``clock`` is given."""
    sim = cluster.sim
    handle = cluster.submit(workload.build(), args=workload.args,
                            at=sim.now)
    deadline = sim.now + workload.timeout_virtual
    raw = scaled = 0.0
    failure = ""
    if clock is not None:
        clock.calibrate()
    while not handle.done:
        before = sim.events_executed
        start = time.perf_counter()
        sim.run(max_events=CHUNK_EVENTS)
        elapsed = time.perf_counter() - start
        raw += elapsed
        scaled += clock.scale(elapsed) if clock is not None else elapsed
        if sim.events_executed == before:
            failure = "event queue drained before the result"
        elif sim.now > deadline:
            failure = f"no result within {workload.timeout_virtual} virtual s"
        elif raw > JOB_HOST_LIMIT_S:
            failure = f"no result within {JOB_HOST_LIMIT_S} host s"
        if failure:
            return Sample(ok=False, failure=failure, host_raw=raw,
                          host=scaled), handle
    try:
        cluster.run()  # settles the run: raises if the program failed
    except SDVMError as exc:
        return Sample(ok=False, failure=str(exc)), handle
    if handle.result != workload.expected:
        return Sample(ok=False, failure="wrong result"), handle
    return Sample(ok=True, makespan=handle.duration, host_raw=raw,
                  host=scaled), handle


def ideal_seconds(workload: SimWorkload, cluster: Any) -> float:
    if workload.ideal_seconds is not None:
        return workload.ideal_seconds
    return (cluster.cluster_report().derived["work_units"]
            * cluster.config.cost.work_unit_time)


def virtual_counts(cluster: Any, sample: Sample) -> Dict[str, float]:
    """Virtual-time figures of a finished sim run that must repeat
    exactly between the traced and the untraced run."""
    derived = cluster.cluster_report().derived
    return {
        "makespan_s": sample.makespan,
        "messages_sent": derived["messages_sent"],
        "bytes_sent": derived["bytes_sent"],
        "executions": derived["executions"],
        "work_units": derived["work_units"],
        "sim_events": float(cluster.sim.events_executed),
    }


def peak_rss_mb() -> float:
    import resource
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up_sim(seed: int) -> None:
    """Pay one-time import and first-use costs before anything is timed."""
    cluster = SimCluster(nsites=4, config=_primes_config(seed))
    _form_sim(cluster, 4)
    handle = cluster.submit(build_treesum_program(), args=(16, 10.0),
                            at=cluster.sim.now)
    cluster.run()
    if handle.result != treesum_expected(16):
        raise SDVMError("warm-up run returned a wrong result")


def measure_sim(workload: SimWorkload, seed: int,
                seconds: float) -> RunResult:
    """Untraced run: timed set-ups, then ``seconds // job_seconds`` jobs."""
    result = RunResult(workload.name)
    clock = HostClock()
    warm_up_sim(seed)
    cluster = None
    formation: Dict[str, float] = {}
    for _ in range(workload.setups):
        cluster = None
        gc.collect()
        clock.calibrate()
        cluster, raw = sim_setup(workload, seed)
        result.setup_raw.append(raw)
        result.setup.append(clock.scale(raw))
        formation = {"cluster.formation_virtual_s": cluster.sim.now,
                     "cluster.formation_msgs": float(sent_total(cluster))}
        for name, value in formation.items():
            result.note_repeat(name, value)
    ideal = 0.0
    counts: Dict[str, float] = {}
    for _ in range(max(1, int(seconds // workload.job_seconds))):
        if cluster is None:
            gc.collect()
            cluster, _raw = sim_setup(workload, seed)
        sample, _handle = sim_job(cluster, workload, clock)
        result.samples.append(sample)
        if not sample.ok:
            break
        ideal = ideal_seconds(workload, cluster)
        counts = virtual_counts(cluster, sample)
        for name, value in counts.items():
            result.note_repeat(name, value)
        cluster = None
    good = [s for s in result.samples if s.ok]
    if good:
        makespan = statistics.median(s.makespan for s in good)
        host = statistics.median(s.host for s in good)
        result.metrics = {
            "makespan_s": makespan,
            "speedup": ideal / makespan,
            "host_s": host,
            "setup_s": statistics.median(result.setup),
            "peak_rss_mb": peak_rss_mb(),
        }
    result.context = {
        "events": counts.get("sim_events", 0.0),
        "messages": counts.get("messages_sent", 0.0),
        "host_s_raw": [round(s.host_raw, 4) for s in result.samples],
        "setup_s_raw_median": (statistics.median(result.setup_raw)
                               if result.setup_raw else 0.0),
        "calibration_s_median": statistics.median(clock.calibrations),
        "calibration_samples": len(clock.calibrations),
    }
    result.context.update(formation)
    if workload.reference:
        result.report_lines.append(f"reference (not a metric): "
                                   f"{workload.reference}")
    return result


# ---------------------------------------------------------------------------
# the live kernel over loopback TCP

LIVE_NAME = "live-tcp"
LIVE_SITES = 2
LIVE_ARGS = (64, 10.0)
LIVE_EXPECTED = treesum_expected(64)
LIVE_SETUPS = 10
#: a program with no result after this many seconds counts as failed
LIVE_PROGRAM_TIMEOUT_S = 10.0


def live_setup(seed: int, config: Optional[SDVMConfig] = None,
               ) -> Tuple[LiveCluster, float]:
    config = config or SDVMConfig(seed=seed)
    start = time.perf_counter()
    cluster = LiveCluster(nsites=LIVE_SITES, config=config, transport="tcp")
    try:
        deadline = start + LIVE_PROGRAM_TIMEOUT_S
        while not formed(cluster, LIVE_SITES):
            if time.perf_counter() > deadline:
                raise SDVMError("live cluster did not reach full membership")
            time.sleep(0.0005)
    except BaseException:
        cluster.shutdown()
        raise
    return cluster, time.perf_counter() - start


def live_loop(cluster: LiveCluster, seconds: float) -> List[Sample]:
    """Closed loop, one program outstanding, for ``seconds``."""
    program = build_treesum_program()
    samples: List[Sample] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        handle = cluster.submit(program, args=LIVE_ARGS)
        try:
            value = handle.wait(LIVE_PROGRAM_TIMEOUT_S)
        except SDVMError as exc:
            samples.append(Sample(ok=False, failure=str(exc)))
            break
        elapsed = time.perf_counter() - start
        ok = value == LIVE_EXPECTED
        samples.append(Sample(ok=ok, failure="" if ok else "wrong result",
                              makespan=elapsed, host_raw=elapsed,
                              host=elapsed))
    return samples


def latency_line(wall: List[float]) -> str:
    """Median latency plus the highest of p99/p95/p90 that has at least
    ten samples beyond it."""
    line = (f"latency over {len(wall)} programs: "
            f"p50 {1000 * statistics.median(wall):.2f} ms")
    if len(wall) >= 2:
        cuts = statistics.quantiles(wall, n=100)
        for q in (99, 95, 90):
            beyond = sum(1 for w in wall if w > cuts[q - 1])
            if beyond >= 10:
                line += (f", p{q} {1000 * cuts[q - 1]:.2f} ms "
                         f"({beyond} beyond)")
                break
    return line + f", {len(wall) / sum(wall):.2f} programs/s raw"


def measure_live(seed: int, seconds: float) -> RunResult:
    """Untraced run: timed set-ups, then the closed loop for ``seconds``.

    Live host times stay raw: the live kernel's latency is set by thread
    hand-offs and socket wake-ups, which the calibration loop does not
    track (scaling by it widened the run-to-run spread when tried).
    """
    result = RunResult(LIVE_NAME)
    cluster, _raw = live_setup(seed)  # warm-up, untimed
    cluster.shutdown()
    for _ in range(LIVE_SETUPS):
        cluster, raw = live_setup(seed)
        cluster.shutdown()
        result.setup_raw.append(raw)
    result.setup = list(result.setup_raw)
    cluster, _raw = live_setup(seed)
    try:
        result.samples = live_loop(cluster, seconds)
        derived = cluster.cluster_report().derived
        reactor = cluster.wall_clock_metrics()
    finally:
        cluster.shutdown()
    good = [s for s in result.samples if s.ok]
    if good:
        wall = [s.makespan for s in good]
        makespan = statistics.median(wall)
        ideal = (derived["work_units"] / len(result.samples)
                 * SDVMConfig().cost.work_unit_time)
        result.metrics = {
            "makespan_s": makespan,
            "speedup": ideal / makespan,
            "host_s": makespan,
            "setup_s": statistics.median(result.setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        result.report_lines.append(latency_line(wall))
        result.report_lines.append(
            f"slowest program {1000 * max(wall):.1f} ms; mean "
            f"{1000 * statistics.mean(wall):.1f} ms")
    result.context = {
        "events": reactor["events_executed"],
        "messages": derived["messages_sent"],
        "calibration_s": calibration_loop(),
    }
    return result


WORKLOAD_NAMES = tuple(SIM_WORKLOADS) + (LIVE_NAME,)


def measure(workload: str, seed: int, seconds: float) -> RunResult:
    if workload == LIVE_NAME:
        return measure_live(seed, seconds)
    return measure_sim(SIM_WORKLOADS[workload], seed, seconds)
