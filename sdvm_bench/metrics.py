"""Names and units of every metric the benchmark emits.

BENCHMARK.json at the repository root lists the same names; a test keeps
the two in step.  README.md says what each metric means and which clock
it is read on.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "makespan_s": ("s", "lower"),
    "speedup": ("x", "higher"),
    "host_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); ``better`` only says which way is good
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.self_host_s": ("s", "lower"),
    "sim.us_per_event": ("us", "lower"),
    "messages.encodes": ("count", "lower"),
    "messages.decodes": ("count", "lower"),
    "messages.bytes": ("bytes", "lower"),
    "messages.encode_host_s": ("s", "lower"),
    "messages.decode_host_s": ("s", "lower"),
    "messages.host_s": ("s", "lower"),
    "serde.host_s": ("s", "lower"),
    "net.sends": ("count", "lower"),
    "net.bytes": ("bytes", "lower"),
    "net.host_s": ("s", "lower"),
    "net.tcp_retries": ("count", "lower"),
    "net.dead_letters": ("count", "lower"),
    "msgmgr.sent": ("count", "lower"),
    "msgmgr.received": ("count", "lower"),
    "msgmgr.host_s": ("s", "lower"),
    "msgmgr.malformed": ("count", "lower"),
    "msgmgr.orphan_replies": ("count", "lower"),
    "cpu.host_s": ("s", "lower"),
    "cpu.busy_fraction_mean": ("ratio", "higher"),
    "sched.help_sent": ("count", "lower"),
    "sched.steal_grants": ("count", "lower"),
    "sched.steal_success": ("ratio", "higher"),
    "sched.gossip_sent": ("count", "lower"),
    "sched.gossip_share": ("ratio", "lower"),
    "sched.help_timeouts": ("count", "lower"),
    "sched.frames_pushed": ("count", "lower"),
    "sched.host_s": ("s", "lower"),
    "cluster.formation_virtual_s": ("s", "lower"),
    "cluster.formation_msgs": ("count", "lower"),
    "cluster.host_s": ("s", "lower"),
    "memory.reads_local": ("count", "lower"),
    "memory.reads_remote": ("count", "lower"),
    "memory.local_ratio": ("ratio", "higher"),
    "memory.writes": ("count", "lower"),
    "memory.dir_updates_sent": ("count", "lower"),
    "memory.host_s": ("s", "lower"),
    "code.compiles": ("count", "lower"),
    "code.compile_virtual_s": ("s", "lower"),
    "code.hit_rate": ("ratio", "higher"),
    "code.host_s": ("s", "lower"),
    "proc.executions": ("count", "lower"),
    "proc.work_units": ("count", "lower"),
    "proc.context_switches": ("count", "lower"),
    "proc.host_s": ("s", "lower"),
    "crash.waves": ("count", "lower"),
    "crash.wave_mean_virtual_s": ("s", "lower"),
    "crash.host_s": ("s", "lower"),
    "blame.compute_frac": ("ratio", "higher"),
    "blame.protocol_frac": ("ratio", "lower"),
    "blame.steal_wait_frac": ("ratio", "lower"),
    "blame.code_fetch_frac": ("ratio", "lower"),
    "blame.checkpoint_pause_frac": ("ratio", "lower"),
    "blame.message_latency_frac": ("ratio", "lower"),
    "blame.idle_frac": ("ratio", "lower"),
    "runtime.reactor_events": ("count", "lower"),
    "runtime.reactor_busy_frac": ("ratio", "lower"),
    "runtime.host_s": ("s", "lower"),
    "other.host_s": ("s", "lower"),
    "trace.emits": ("count", "lower"),
    "trace.host_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.traced_host_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}

#: layer (as the ledger names it) -> its self-time metric
LAYER_SELF_METRIC = {
    "sim": "sim.self_host_s",
    "messages": "messages.host_s",
    "serde": "serde.host_s",
    "net": "net.host_s",
    "msgmgr": "msgmgr.host_s",
    "cpu": "cpu.host_s",
    "sched": "sched.host_s",
    "cluster": "cluster.host_s",
    "memory": "memory.host_s",
    "code": "code.host_s",
    "proc": "proc.host_s",
    "crash": "crash.host_s",
    "runtime": "runtime.host_s",
    "trace": "trace.host_s",
    "other": "other.host_s",
}
