"""The scheduling manager (paper §3.3, §4, Fig. 5)."""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.common.ids import GlobalAddress, ManagerId
from repro.core.frames import FrameState, Microframe
from repro.core.threads import CompiledMicrothread
from repro.messages import MsgType, SDMessage, make_reply
from repro.sched.policies import (pop_frame, take_batch_for_help,
                                  take_push_batch)
from repro.site.manager_base import Manager


#: load classes a site advertises, as bit flags: a peer acts on a change
#: of class (victim selection, wake-ups, push targets), not on the exact
#: figures, so only a change of class is worth a LOAD_REPORT
_RICH = 1      # stealable queue at or above steal_min_queue
_HUNGRY = 2    # a processing slot is asking for work
_EMPTY = 4     # no stealable frame left


def _is_news(seen: int, cls: int) -> bool:
    """Whether a peer that last saw class ``seen`` must hear ``cls``.

    Crossing ``steal_min_queue`` either way and a hungry flip are news;
    of the empty flag only the way down is: a peer that thinks we hold
    no stealable frame loses little by missing a single one, but one
    that thinks we still hold some keeps begging for it.
    """
    diff = seen ^ cls
    return bool(diff & (_RICH | _HUNGRY) or diff & cls & _EMPTY)


class _HelpRequest:
    """Bookkeeping for one in-flight help request."""

    __slots__ = ("target", "prefetch", "sent_at")

    def __init__(self, target: int, prefetch: bool, sent_at: float) -> None:
        self.target = target
        self.prefetch = prefetch
        self.sent_at = sent_at


class SchedulingManager(Manager):
    manager_id = ManagerId.SCHEDULING

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        #: frames with all parameters, awaiting a code pointer
        self.executable: Deque[Microframe] = deque()
        #: (frame, compiled) pairs ready for the processing manager
        self.ready: Deque[Tuple[Microframe, CompiledMicrothread]] = deque()
        #: frames whose code fetch is in flight (kept here so they can be
        #: relocated if the site leaves mid-fetch)
        self._pending_code: Dict[GlobalAddress, Microframe] = {}
        #: processing-manager slots waiting for work
        self._pm_hungry = 0
        #: in-flight help requests, keyed by message seq — the live-request
        #: fence: only a reply matching one of these may reset backoff and
        #: cooldown state (late replies already fed the failure path)
        self._inflight_helps: Dict[int, _HelpRequest] = {}
        self._help_backoff = 1.0
        self._help_timer = None
        #: peers that recently refused/timed out (logical id -> until time)
        self._cooldown: Dict[int, float] = {}
        #: help requests held for a deferred grant (thief's request seq ->
        #: (message, expiry timer)) — insertion order is grant order
        self._parked_helps: Dict[int, Tuple[SDMessage, object]] = {}
        #: per-frame code-fetch retry budget
        self._code_retries: Dict[GlobalAddress, int] = {}
        #: event-driven LOAD_REPORTs: the armed round and when it is due,
        #: when the last round sent and the class it advertised, the
        #: refresh rotation cursor; per peer, when it last saw our
        #: figures (on any message) and the class they showed, and when
        #: it last got a LOAD_REPORT
        self._report_timer = None
        self._report_due = 0.0
        self._last_report = -inf
        self._reported_class = 0
        self._report_cursor = 0
        #: report budget: starts at one interval's worth and refills only
        #: while the site reports (``_tokens_at`` None: it does not)
        self._report_tokens = float(self.config.cluster.gossip_fanout)
        self._tokens_at: Optional[float] = None
        self._told: Dict[int, Tuple[float, int]] = {}
        self._reported: Dict[int, float] = {}
        #: guards against pushing frames we are adopting right now
        self._adopting = False
        # per-peer state (cooldown, in-flight fence, parked thieves) must
        # not outlive the peer: departed sites would otherwise accumulate
        # forever in long-lived clusters
        site.cluster_manager.on_site_departed.append(self._on_peer_departed)

    # ------------------------------------------------------------------
    # intake

    def enqueue_executable(self, frame: Microframe) -> None:
        """Attraction memory hands over a frame whose last parameter just
        arrived — or a stolen/migrated frame lands here."""
        if not self.site.program_manager.is_active(frame.program):
            self.stats.inc("frames_dropped_terminated")
            return
        frame.created_at = self.kernel.now
        self.kernel.cpu_charge(self.cost.sched_decision_cost)
        self.executable.append(frame)
        self.stats.inc("frames_enqueued")
        tr = self.tracer
        if tr is not None:
            # the frame becomes executable under the current causal context
            # (the message that delivered its last parameter, the stolen
            # frame's HELP_REPLY, or the parent execution) — remember it so
            # exec_begin can link the execution into the DAG.
            frame.cause_node = self.site.cause_node
            frame.cause_origin = self.site.cause_origin
            tr.emit(self.kernel.now, self.local_id, "frame_enqueued",
                    frame.frame_id.pack(), frame.program)
        self._fill_ready()
        if not self._adopting:
            # a frame adopted from a steal must not be re-granted to a
            # parked thief in the same breath: with many starved sites
            # that relays frames around the cluster without ever
            # executing them, and the parameter routing behind each hop
            # is what breaks when a frame's home site dies mid-chain
            self._serve_parked_helps()
        self._maybe_push()
        self._load_changed()

    def stealable_depth(self) -> int:
        """Frames this site could hand to a thief right now (piggybacked on
        every outgoing message as the gossip load view's queue figure)."""
        return len(self.executable) + len(self.ready)

    # ------------------------------------------------------------------
    # executable -> ready (code fetch)

    def _fill_ready(self) -> None:
        """Prefetch code so the ready queue stays at its target depth.

        Critical-path frames are always pulled through immediately (§3.3
        hints), so they never wait behind the prefetch window.
        """
        cfg = self.config.scheduling
        want = cfg.ready_target + self._pm_hungry
        if cfg.use_hints:
            want += sum(1 for f in self.executable if f.critical)
        while (self.executable
               and len(self.ready) + len(self._pending_code) < want):
            frame = pop_frame(self.executable, cfg.local_policy,
                              cfg.use_hints)
            self._pending_code[frame.frame_id] = frame
            self.site.code_manager.get(
                frame.program, frame.thread_id,
                lambda compiled, f=frame: self._code_arrived(f, compiled))
        self._load_changed()

    def _code_arrived(self, frame: Microframe,
                      compiled: Optional[CompiledMicrothread]) -> None:
        if self._pending_code.pop(frame.frame_id, None) is None:
            # frame was exported (sign-off relocation) while we fetched
            return
        if not self.site.program_manager.is_active(frame.program):
            self._code_retries.pop(frame.frame_id, None)
            return
        if compiled is None:
            retries = self._code_retries.get(frame.frame_id, 0)
            if retries < 3:
                self._code_retries[frame.frame_id] = retries + 1
                self.stats.inc("code_retries")
                self.executable.append(frame)
                self._fill_ready()
                return
            self._code_retries.pop(frame.frame_id, None)
            self.stats.inc("code_unavailable")
            self.site.program_manager.local_exit(
                frame.program, None, failed=True,
                failure=f"code for thread {frame.thread_id} unavailable")
            return
        self._code_retries.pop(frame.frame_id, None)
        frame.state = FrameState.READY
        self.ready.append((frame, compiled))
        self.stats.inc("frames_readied")
        self._serve()
        self._fill_ready()

    # ------------------------------------------------------------------
    # ready -> processing manager

    def pm_request_work(self) -> None:
        """The processing manager has a free slot (paper: "If it is idle,
        it requests a pair of an executable microframe and its
        corresponding microthread")."""
        self._pm_hungry += 1
        self._serve()
        if self._pm_hungry:
            self._fill_ready()
            self._maybe_help()

    def _serve(self) -> None:
        if self.site.paused:
            return
        pm = self.site.processing_manager
        while self.ready:
            frame = self.ready[0][0]
            requested = True
            if self._pm_hungry:
                self._pm_hungry -= 1
            elif (self.config.scheduling.use_hints and frame.critical
                  and pm.can_overcommit()):
                # critical-path frames jump the queue into an extra slot
                self.stats.inc("critical_overcommits")
                requested = False
            else:
                break
            frame, compiled = self.ready.popleft()
            self.kernel.cpu_charge(self.cost.sched_decision_cost)
            pm.receive_work(frame, compiled, requested=requested)
        # with everything handed out, consider prefetching the next steal
        self._maybe_help()
        self._load_changed()

    # ------------------------------------------------------------------
    # help requests (work stealing)

    def _maybe_help(self) -> None:
        if self.site.paused or self.site.sleeping:
            return
        if self.ready or self.executable or self._pending_code:
            return
        idle = self._pm_hungry > 0
        if self._inflight_helps:
            if not idle:
                return
            # a prefetch steal in flight must not gag a genuinely idle
            # site for a full timeout: escalate once with a real request
            if any(not req.prefetch
                   for req in self._inflight_helps.values()):
                return
        elif not idle:
            # not idle — but optionally keep one steal in flight so the
            # next frame is local by the time the current one completes
            if not (self.config.scheduling.prefetch_steal
                    and self.site.processing_manager.in_flight > 0):
                return
        if not self.site.program_manager.has_active_programs():
            return
        self._send_help(prefetch=not idle)

    def _steal_want(self) -> int:
        """Thief capacity advertised on a help request: how many frames a
        steal-half reply may batch for us."""
        cfg = self.config.scheduling
        pm = self.site.processing_manager
        free = max(0, pm.max_parallel - pm.in_flight)
        return max(1, min(cfg.steal_batch_max, free + cfg.ready_target))

    def _send_help(self, prefetch: bool = False,
                   exclude: Optional[Set[int]] = None) -> None:
        now = self.kernel.now
        cfg = self.config.scheduling
        excluded = set(exclude or ())
        excluded.update(req.target for req in self._inflight_helps.values())
        excluded.update(s for s, until in self._cooldown.items()
                        if until > now)
        cm = self.site.cluster_manager
        rounds = 1 if prefetch else cfg.help_fanout
        sent = 0
        for _ in range(rounds):
            target = cm.pick_help_target(excluded)
            if target is None:
                break
            excluded.add(target)
            msg = SDMessage(
                type=MsgType.HELP_REQUEST,
                src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
                dst_site=target, dst_manager=ManagerId.SCHEDULING,
                payload={
                    "record": cm.local_record_wire(),
                    "load": self.site.site_manager.current_load(),
                    "want": self._steal_want(),
                    "prefetch": prefetch,
                },
            )
            self.stats.inc("help_sent")
            tr = self.tracer
            if tr is not None:
                tr.emit(now, self.local_id, "help_request", target)
            ok = self.site.message_manager.request(
                msg, self._on_help_reply,
                timeout=max(4 * cfg.help_retry_interval, 0.05),
                on_timeout=lambda m=msg: self._help_timed_out(m.seq))
            if not ok:
                self._help_failed(target)
                continue
            self._inflight_helps[msg.seq] = _HelpRequest(target, prefetch,
                                                         now)
            sent += 1
        if sent == 0:
            self._schedule_retry()

    def _help_timed_out(self, seq: int) -> None:
        request = self._inflight_helps.pop(seq, None)
        if request is None:
            return
        self.stats.inc("help_timeouts")
        self._help_failed(request.target)

    def _help_failed(self, target: int) -> None:
        self._cooldown[target] = (self.kernel.now
                                  + self._help_backoff
                                  * self.config.scheduling.help_retry_interval)
        self._schedule_retry()

    def _on_help_reply(self, msg: SDMessage) -> None:
        request = self._inflight_helps.pop(msg.reply_to, None)
        if request is not None:
            self.stats.observe("help_latency",
                               self.kernel.now - request.sent_at)
        self.site.cluster_manager.note_load(
            msg.src_site, msg.payload.get("load", 0.0),
            queue=msg.payload.get("queue", msg.src_queue))
        if msg.type == MsgType.CANT_HELP:
            self.stats.inc("cant_help_received")
            self._help_failed(msg.src_site)
            # the refusal taught us only that *this* victim was drained,
            # not that the cluster is: an idle thief whose load view
            # still shows a fresh deep queue elsewhere re-targets it now
            # instead of sitting out the backoff delay.  Self-limiting in
            # a small cluster: the refuser just went on cooldown and its
            # piggybacked queue figure stops it counting as deep.  In a
            # large cluster this eager re-targeting is NOT self-limiting
            # — rumor-fed load views nearly always show a deep queue
            # somewhere, so resetting the backoff here melts every
            # refusal into an RTT-rate beg loop; past the sample size,
            # thieves sit out their backoff and rely on the (gated)
            # gossip wake-ups instead.
            cm = self.site.cluster_manager
            if (self._pm_hungry and not self._inflight_helps
                    and len(cm.alive_peers()) <= cm.PICK_SAMPLE):
                cfg = self.config.scheduling
                now = self.kernel.now
                if any(now - r.load_at <= cfg.gossip_staleness
                       and r.queue >= cfg.steal_min_queue
                       and self._cooldown.get(r.logical, 0.0) <= now
                       for r in cm.peer_sample()):
                    if self._help_timer is not None:
                        self.kernel.cancel(self._help_timer)
                        self._help_timer = None
                    self._help_backoff = 1.0
                    self._maybe_help()
            return
        if msg.type != MsgType.HELP_REPLY:
            self.log("unexpected help reply %s", msg.type.name)
            return
        self.stats.inc("steal_grants")
        self._adopt_steal(msg, live=request is not None)

    def _adopt_steal(self, msg: SDMessage, live: bool) -> None:
        """Account for stolen frames arriving via (batched) HELP_REPLY.

        Shared by the correlated reply path and the late-reply path in
        :meth:`handle`, so both count ``steals_in``, journal the steals,
        and enqueue every frame.  Only a *live* reply — one correlated to
        a request still in flight — may reset the help backoff and take
        the victim off cooldown: a late reply's request already timed out
        and fed the congestion state, and wiping that state here would
        erase backoff mid-congestion.
        """
        if msg.payload.get("epoch", self.site.epoch) < self.site.epoch:
            # the victim granted these frames before the last rollback
            # recovery: the checkpoint restored its own copies, so adopting
            # this stale batch would duplicate pre-recovery work — and a
            # stale frame's parameters may reference rolled-back addresses
            self.stats.inc("stale_steals_dropped")
            return
        for info_wire in msg.payload.get("program_infos", ()):
            self.site.program_manager.learn_program_wire(info_wire)
        info_wire = msg.payload.get("program_info")
        if info_wire is not None:
            self.site.program_manager.learn_program_wire(info_wire)
        wires = msg.payload.get("frames")
        if wires is None:
            wires = [msg.payload["frame"]]
        tr = self.tracer
        self._adopting = True
        try:
            for wire in wires:
                frame = Microframe.from_wire(wire)
                self.stats.inc("steals_in")
                self.site.journal_event("steal_in", victim=msg.src_site,
                                        frame=frame.frame_id.pack())
                if tr is not None:
                    tr.emit(self.kernel.now, self.local_id, "steal_in",
                            msg.src_site, frame.frame_id.pack())
                self.enqueue_executable(frame)
        finally:
            self._adopting = False
        if live:
            self._help_backoff = 1.0
            self._cooldown.pop(msg.src_site, None)

    def _on_peer_departed(self, logical: int) -> None:
        """Membership hook: drop all per-peer scheduler state for a site
        that crashed or signed off."""
        self._cooldown.pop(logical, None)
        self._told.pop(logical, None)
        self._reported.pop(logical, None)
        stale = [seq for seq, req in self._inflight_helps.items()
                 if req.target == logical]
        for seq in stale:
            del self._inflight_helps[seq]
            self.stats.inc("help_targets_departed")
        if stale:
            # don't wait out the request timeout to re-target
            self._schedule_retry()
        dead_parks = [rseq for rseq, (msg, _t) in self._parked_helps.items()
                      if int(msg.payload.get("thief", msg.src_site)) == logical]
        for rseq in dead_parks:
            _msg, timer = self._parked_helps.pop(rseq)
            self.kernel.cancel(timer)
            self.stats.inc("help_parks_dropped_dead")

    def _schedule_retry(self) -> None:
        if self._help_timer is not None:
            return
        if not self.site.program_manager.has_active_programs():
            return
        delay = (self.config.scheduling.help_retry_interval
                 * self._help_backoff)
        # the ceiling can sit well above the old 8x now that gossip
        # wake-ups re-arm a backed-off thief the moment any peer's queue
        # deepens: blind retries into a drained cluster only pad the
        # CANT_HELP count, they don't discover work faster than gossip.
        # Past the sample size the ceiling grows with the cluster, so the
        # aggregate blind-retry rate hitting the few busy sites stays
        # constant instead of scaling O(sites)
        cm = self.site.cluster_manager
        ceiling = max(20.0, float(len(cm.alive_peers())))
        self._help_backoff = min(self._help_backoff * 1.5, ceiling)
        self._help_timer = self.kernel.call_later(delay, self._retry_tick)

    def _retry_tick(self) -> None:
        self._help_timer = None
        if not self.site.running:
            return
        self._maybe_help()

    def kick(self) -> None:
        """External nudge (program registered, site joined/unpaused/woken):
        serve anything that accumulated, refill, and retry stealing."""
        self._help_backoff = 1.0
        if self._help_timer is not None:
            self.kernel.cancel(self._help_timer)
            self._help_timer = None
        # frames may have reached the ready queue while we were paused or
        # asleep — hand them out before considering a steal
        self._serve()
        self._fill_ready()
        self._maybe_help()
        # a new program, a join or a wake-up: peers need our figures
        # again even if the class we last reported has not changed
        self._arm_reports(self._last_report
                          + self.config.scheduling.gossip_interval)

    # ------------------------------------------------------------------
    # serving help requests from other sites

    def handle(self, msg: SDMessage) -> None:
        if msg.type == MsgType.HELP_REQUEST:
            self._on_help_request(msg)
        elif msg.type in (MsgType.HELP_REPLY, MsgType.CANT_HELP):
            # late reply whose request timed out: a HELP_REPLY still carries
            # stolen frames, so adopt and count them — but the request
            # already fed the backoff/cooldown failure path when it timed
            # out, so the reply must NOT reset that state (live=False)
            if msg.type == MsgType.HELP_REPLY:
                self.stats.inc("late_steal_grants")
                self._adopt_steal(msg, live=False)
        elif msg.type == MsgType.LOAD_REPORT:
            self._on_load_report(msg)
        else:
            super().handle(msg)

    def _reply_help(self, msg: SDMessage, mtype: MsgType,
                    payload: dict) -> bool:
        """Answer a help request at its *originating* thief — which differs
        from ``msg.src_site`` when an empty victim forwarded the request."""
        return self.site.message_manager.send(SDMessage(
            type=mtype,
            src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
            dst_site=int(msg.payload.get("thief", msg.src_site)),
            dst_manager=ManagerId.SCHEDULING,
            payload=payload,
            reply_to=int(msg.payload.get("rseq", msg.seq))))

    def _thief_alive(self, msg: SDMessage) -> bool:
        record = self.site.cluster_manager.sites.get(
            int(msg.payload.get("thief", msg.src_site)))
        return record is not None and record.alive

    def _cant_help(self, msg: SDMessage, my_load: float) -> None:
        self._reply_help(msg, MsgType.CANT_HELP, {"load": my_load})
        self.stats.inc("cant_help_sent")
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "cant_help",
                    int(msg.payload.get("thief", msg.src_site)))

    def _forward_help(self, msg: SDMessage) -> bool:
        """Refer an unhelpable thief onward instead of bouncing it.

        A victim with nothing to spare often *knows* (from fresh gossip)
        a peer that does have stealable work — forwarding the request
        there turns a guaranteed CANT_HELP plus a thief-side retry round
        trip into a single extra hop.  The originating thief and its
        request seq ride in the payload so the eventual holder's reply
        goes straight back to the thief; a hop budget stops a drained
        cluster from playing pass-the-parcel.
        """
        hops = int(msg.payload.get("hops", 0))
        if hops >= 2:
            return False
        thief = int(msg.payload.get("thief", msg.src_site))
        now = self.kernel.now
        staleness = self.config.scheduling.gossip_staleness
        cm = self.site.cluster_manager
        best = None
        # hot-cache candidates ride along so a referral can point outside
        # the sample window; at small cluster sizes they are the same
        # records the sample already yielded and change nothing
        for r in (*cm.peer_sample(), *cm.hot_peers()):
            if r.logical in (thief, msg.src_site):
                continue
            if (r.load_at >= 0 and now - r.load_at <= staleness
                    and r.queue >= self.config.scheduling.steal_min_queue
                    and (best is None or r.queue > best.queue)):
                best = r
        if best is None:
            return False
        payload = dict(msg.payload)
        payload["hops"] = hops + 1
        payload["thief"] = thief
        payload["rseq"] = int(msg.payload.get("rseq", msg.seq))
        # the load/record figures in the payload are the thief's — they
        # must not be re-attributed to this site by the next victim
        payload["load"] = self.site.site_manager.current_load()
        payload.pop("record", None)
        self.stats.inc("helps_forwarded")
        tr = self.tracer
        if tr is not None:
            tr.emit(now, self.local_id, "help_forward", thief, best.logical)
        return self.site.message_manager.send(SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
            dst_site=best.logical, dst_manager=ManagerId.SCHEDULING,
            payload=payload))

    def _on_help_request(self, msg: SDMessage) -> None:
        record = msg.payload.get("record")
        if record is not None:
            self.site.cluster_manager.learn_record(record)
        self.site.cluster_manager.note_load(
            msg.src_site, msg.payload.get("load", 0.0),
            queue=msg.src_queue)
        my_load = self.site.site_manager.current_load()
        if self.site.paused:
            if not self._forward_help(msg):
                self._cant_help(msg, my_load)
            return
        spare = len(self.executable) + len(self.ready)
        avail = spare - self.config.scheduling.keep_local_min
        if avail <= 0:
            if (not self._forward_help(msg)
                    and not self._park_help(msg)):
                self._cant_help(msg, my_load)
            return
        self._grant_help(msg)

    def _grant_help(self, msg: SDMessage) -> None:
        """Hand a batch of frames to the thief behind ``msg``.

        Steal-half, bounded by the thief's advertised capacity and the
        batch cap: hand over at most half of what we could spare.
        """
        cfg = self.config.scheduling
        avail = (len(self.executable) + len(self.ready)
                 - cfg.keep_local_min)
        want = int(msg.payload.get("want", 1))
        count = max(1, min(want, cfg.steal_batch_max, (avail + 1) // 2))
        frames = take_batch_for_help(self.executable, cfg.help_reply_policy,
                                     count)
        while len(frames) < count and self.ready:
            frame, _compiled = (self.ready.pop()
                                if cfg.help_reply_policy == "lifo"
                                else self.ready.popleft())
            frames.append(frame)
        if not frames:
            # nothing actually takeable: an empty HELP_REPLY would read
            # as generosity (backoff reset) — refuse honestly instead
            self._cant_help(msg, self.site.site_manager.current_load())
            return
        thief = int(msg.payload.get("thief", msg.src_site))
        tr = self.tracer
        if tr is not None:
            for frame in frames:
                tr.emit(self.kernel.now, self.local_id, "steal_out",
                        thief, frame.frame_id.pack())
        payload = {
            "frames": [frame.to_wire() for frame in frames],
            "load": self.site.site_manager.current_load(),
            "queue": float(self.stealable_depth()),
            "program_infos": self._program_infos(frames),
            "epoch": self.site.epoch,
        }
        if not self._reply_help(msg, MsgType.HELP_REPLY, payload):
            # unresolvable thief (crashed between request and grant):
            # keep the frames — handing them to a dead site loses them
            self.stats.inc("grants_undeliverable")
            for frame in frames:
                self.executable.append(frame)
            self._fill_ready()
            return
        for _ in frames:
            self.stats.inc("steals_out")
        self.stats.observe("steal_batch", float(len(frames)))
        self._load_changed()

    # ------------------------------------------------------------------
    # deferred grants: parked help requests

    def _park_help(self, msg: SDMessage) -> bool:
        """Hold an unhelpable request briefly instead of refusing.

        Only an *active* victim parks (executions in flight or code
        fetches pending — a frame may surface within an execution time);
        a truly idle one refuses immediately so the thief tries its luck
        elsewhere.  The thief is quiet while its request is in flight, so
        parking also stops it burning retries on other drained victims.
        """
        hold = self.config.scheduling.help_park_max
        if hold <= 0:
            return False
        if not msg.payload.get("prefetch", False):
            # the thief's lanes are empty right now: a prompt CANT_HELP
            # lets it re-target (or react to gossip) within a retry
            # interval, which beats holding it in limbo here — only a
            # prefetching thief (still computing) can afford the wait
            return False
        pm = self.site.processing_manager
        if pm.in_flight <= 0 and not self._pending_code:
            return False
        rseq = int(msg.payload.get("rseq", msg.seq))
        if rseq in self._parked_helps or len(self._parked_helps) >= 8:
            return False
        timer = self.kernel.call_later(
            hold, lambda: self._park_expired(rseq))
        self._parked_helps[rseq] = (msg, timer)
        self.stats.inc("helps_parked")
        return True

    def _park_expired(self, rseq: int) -> None:
        entry = self._parked_helps.pop(rseq, None)
        if entry is None:
            return
        msg, _timer = entry
        self.stats.inc("help_parks_expired")
        self._cant_help(msg, self.site.site_manager.current_load())

    def _serve_parked_helps(self) -> None:
        """Grant parked thieves from fresh surplus, oldest first."""
        cfg = self.config.scheduling
        while self._parked_helps and not self.site.paused:
            if (len(self.executable) + len(self.ready)
                    - cfg.keep_local_min) <= 0:
                return
            rseq = next(iter(self._parked_helps))
            msg, timer = self._parked_helps.pop(rseq)
            self.kernel.cancel(timer)
            if not self._thief_alive(msg):
                # the thief crashed while parked — granting would ship
                # frames into the void
                continue
            self.stats.inc("help_parks_granted")
            self._grant_help(msg)

    def _flush_parked_helps(self) -> None:
        """Refuse everything parked (stop/pause/sign-off paths)."""
        while self._parked_helps:
            rseq = next(iter(self._parked_helps))
            msg, timer = self._parked_helps.pop(rseq)
            self.kernel.cancel(timer)
            self._cant_help(msg, self.site.site_manager.current_load())

    def _program_infos(self, frames: List[Microframe]) -> List[dict]:
        pm = self.site.program_manager
        return [pm.get(pid).to_wire()
                for pid in sorted({f.program for f in frames})
                if pm.knows(pid)]

    # ------------------------------------------------------------------
    # load gossip + proactive push

    def _on_load_report(self, msg: SDMessage) -> None:
        self.stats.inc("gossip_received")
        cm = self.site.cluster_manager
        cm.note_load(
            msg.src_site, msg.payload.get("load", msg.src_load),
            queue=msg.payload.get("queue", msg.src_queue))
        queue = msg.payload.get("queue", msg.src_queue)
        # second-hand rumors: the deepest queues the sender knows of.
        # Epidemic relay spreads "site X has work" in O(log sites)
        # gossip rounds, where first-hand reports alone need O(sites /
        # fanout) ticks to reach everyone — the difference between a
        # 256-site cluster finding its one busy site now or begging
        # blindly until then.  Rumors deliberately do NOT clear
        # cooldowns: a thief this victim already refused stays backed
        # off, otherwise every gossip round re-arms the whole cluster
        # into a synchronized stampede.
        best_rumor = 0.0
        for row in msg.payload.get("hot", ()):
            logical, rqueue = int(row[0]), float(row[1])
            if logical == self.local_id:
                continue
            cm.note_load_rumor(logical, float(row[2]), rqueue,
                               float(row[3]))
            best_rumor = max(best_rumor, rqueue)
        # the steal_min_queue dampener assumes a queue-1 victim will run
        # the frame itself before a request lands — the right bet for a
        # prefetching thief, the wrong one for a site with empty lanes
        # in the drain phase, where single-frame bursts are all there is
        wake_at = (1 if self._pm_hungry
                   else self.config.scheduling.steal_min_queue)
        # only a site with empty lanes steals on a first-hand report: a
        # report reaches every peer the moment a site's class changes,
        # so waking the ones still computing as well (for a prefetch
        # steal) stampedes the one site that just got work; they pick a
        # victim at their own next scheduling step instead
        has_work = queue is not None and queue >= wake_at
        direct = has_work and self._pm_hungry > 0
        if direct or best_rumor >= wake_at:
            if direct:
                # the sender has stealable work: fresh positive first-hand
                # evidence beats stale failure memory, so take it off
                # cooldown and drop the backoff a streak of startup
                # CANT_HELPs built up, then react now instead of waiting
                # out the retry timer
                self._cooldown.pop(msg.src_site, None)
            elif not self._rumor_wakes_me(cm, best_rumor):
                # rumor-only wake in a large cluster: the rumor reaches
                # nearly everyone within a round, so waking every idle
                # site would bury the busy one under O(sites) begs per
                # frame.  A random gate sizes the responders to the
                # advertised depth instead.
                self._maybe_push()
                return
            self._help_backoff = 1.0
            self._maybe_help()
        elif not has_work:
            # the sender is idle: maybe shed some surplus onto it
            self._maybe_push()

    def _rumor_wakes_me(self, cm, best_rumor: float) -> bool:  # noqa: ANN001
        npeers = len(cm.alive_peers())
        if npeers <= cm.PICK_SAMPLE:
            return True
        chance = min(1.0, 4.0 * best_rumor / npeers)
        return self.kernel.rng.random() < chance

    def _load_class(self) -> int:
        """The class of load this site advertises: ``_RICH``, ``_HUNGRY``
        and ``_EMPTY`` flags."""
        queue = len(self.executable) + len(self.ready)
        cls = _RICH if queue >= self.config.scheduling.steal_min_queue else 0
        if self._pm_hungry:
            cls |= _HUNGRY
        if not queue:
            cls |= _EMPTY
        return cls

    def note_told(self, peer: int) -> None:
        """Message-manager hook: every outgoing message piggybacks this
        site's load figures, so ``peer`` now holds our current class and
        must hear of a change of it.  Only tracked while the site reports
        (between its first round and a pause or the last program's end):
        otherwise it has no class to report."""
        if self._tokens_at is not None:
            self._told[peer] = (self.kernel.now, self._load_class())

    def _load_changed(self) -> None:
        """Queue/slot mutation hook: a change of class since the last
        round arms a report round one ``gossip_interval`` later (or one
        after the previous round, if that is later).  Bursts coalesce,
        and a flip that reverts within the interval costs nothing."""
        interval = self.config.scheduling.gossip_interval
        if interval > 0 and _is_news(self._reported_class,
                                     self._load_class()):
            self._arm_reports(max(self._last_report, self.kernel.now)
                              + interval)

    def _reports_wanted(self) -> bool:
        site = self.site
        return (self.config.scheduling.gossip_interval > 0 and site.running
                and not site.paused and not site.sleeping
                and site.program_manager.has_active_programs())

    def _arm_reports(self, due: float) -> None:
        """Make sure a report round runs by ``due`` (now at the earliest).
        Nothing is armed while the site cannot or need not report."""
        if not self._reports_wanted():
            return
        now = self.kernel.now
        due = max(due, now)
        if self._report_timer is not None:
            if self._report_due <= due:
                return
            self.kernel.cancel(self._report_timer)
        self._report_due = due
        self._report_timer = self.kernel.call_later(due - now,
                                                    self._report_round)

    def _disarm_reports(self) -> None:
        self._tokens_at = None
        if self._report_timer is not None:
            self.kernel.cancel(self._report_timer)
            self._report_timer = None

    def _report_round(self) -> None:
        """Send the LOAD_REPORTs that are due, then arm the next round.

        Two kinds of peer are due.  A peer whose last report would go
        stale before the next round could reach it gets a refresh, in
        rotation order.  A peer whose view of us is still fresh (it saw
        our figures within ``gossip_staleness``, on any message) but
        shows another class gets the news.  Figures piggybacked on other
        traffic count for the news but do not put off a refresh: a
        report also wakes its receiver or prompts a push, which a
        piggybacked figure never does.  Both draw on one budget that
        refills at the fixed-rate heartbeat's pace, ``gossip_fanout`` per
        ``gossip_interval``, and holds one staleness period's worth.  A
        small cluster never runs it dry: every peer's view stays fresh at
        about one report per staleness period, and every class change
        reaches every peer that holds a view.  A large cluster spends it
        on the rotation, as the fixed-rate heartbeat did, and news wait
        for the next round.
        """
        self._report_timer = None
        if not self._reports_wanted():
            self._disarm_reports()
            return
        cfg = self.config.scheduling
        now = self.kernel.now
        interval, staleness = cfg.gossip_interval, cfg.gossip_staleness
        cls = self._load_class()
        fanout = self.config.cluster.gossip_fanout
        tokens = self._report_tokens
        if self._tokens_at is not None:
            tokens += fanout * (now - self._tokens_at) / interval
        tokens = min(tokens, fanout * max(1.0, staleness / interval))
        starved = False
        told, reported = self._told, self._reported
        # views of us gone stale already hold no class to correct, and
        # an old report is as good as none
        for peer in [p for p, (at, _seen) in told.items()
                     if now - at > staleness]:
            del told[peer]
        for peer in [p for p, at in reported.items()
                     if now - at > staleness]:
            del reported[peer]
        # incrementally maintained by the cluster manager — the old
        # per-tick rebuild+sort was O(sites log sites) on every site
        cm = self.site.cluster_manager
        peers = cm.sorted_alive_ids()
        npeers = len(peers)
        # refresh what would expire before the next round could run
        window = staleness - interval
        start = self._report_cursor % npeers if npeers else 0
        scanned = 0
        oldest = now
        targets = []
        while scanned < npeers:
            peer = peers[(start + scanned) % npeers]
            at = reported.get(peer)
            if at is not None and now - at < window:
                oldest = min(oldest, at)
            elif tokens >= 1:
                tokens -= 1
                targets.append(peer)
            else:
                starved = True
                break
            scanned += 1
        self._report_cursor = start + scanned
        refreshed = set(targets)
        for peer, (_at, seen) in told.items():
            if peer not in refreshed and _is_news(seen, cls):
                if tokens < 1:
                    starved = True
                    break
                tokens -= 1
                targets.append(peer)
        self._report_tokens, self._tokens_at = tokens, now
        if targets:
            queue = float(self.stealable_depth())
            load = self.site.site_manager.current_load()
            # rumors only pay off past the sample window; below it
            # every peer is already in everyone's sample, and reports
            # keep the pre-rumor payload
            rumors = cm.hot_rumors() if npeers > cm.PICK_SAMPLE else []
            for peer in targets:
                payload = {"load": load, "queue": queue}
                hot = [row for row in rumors if row[0] != peer]
                if hot:
                    payload["hot"] = hot
                self.site.message_manager.send(SDMessage(
                    type=MsgType.LOAD_REPORT,
                    src_site=self.local_id,
                    src_manager=ManagerId.SCHEDULING,
                    dst_site=peer, dst_manager=ManagerId.SCHEDULING,
                    payload=payload,
                ))
                self.stats.inc("gossip_sent")
                reported[peer] = now
            self._last_report = now
        self._reported_class = cls
        # out of budget: more peers are due as soon as it refills;
        # otherwise the next report to expire sets the time
        due = now if starved else oldest + staleness
        self._arm_reports(max(due, now + interval))

    def _maybe_push(self) -> None:
        """Proactive work sharing: an overloaded site pushes surplus frames
        toward a peer it knows (freshly) to be idle, before that peer asks."""
        cfg = self.config.scheduling
        if not cfg.push_enabled or self._adopting:
            return
        if self.site.paused or self.site.sleeping or self._pm_hungry:
            return
        spare = len(self.executable)
        floor = max(cfg.keep_local_min, cfg.push_min_queue)
        if spare <= floor:
            return
        target = self.site.cluster_manager.pick_push_target()
        if target is None:
            return
        count = min(cfg.steal_batch_max, (spare + 1) // 2, spare - floor)
        frames = take_push_batch(self.executable, cfg.help_reply_policy,
                                 count)
        if not frames:
            return
        tr = self.tracer
        for frame in frames:
            self.stats.inc("frames_pushed")
            self.site.journal_event("push_out", target=target,
                                    frame=frame.frame_id.pack())
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "push_out",
                        target, frame.frame_id.pack())
        self.site.message_manager.send(SDMessage(
            type=MsgType.FRAME_TRANSFER,
            src_site=self.local_id, src_manager=ManagerId.SCHEDULING,
            dst_site=target, dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={
                "frames": [frame.to_wire() for frame in frames],
                "program_infos": self._program_infos(frames),
                "epoch": self.site.epoch,
            },
        ))
        self.site.cluster_manager.note_pushed(target, len(frames))
        self._load_changed()

    # ------------------------------------------------------------------
    # bookkeeping

    def drop_program(self, pid: int) -> None:
        before = self.queue_depth()
        self.executable = deque(f for f in self.executable
                                if f.program != pid)
        self.ready = deque((f, c) for f, c in self.ready if f.program != pid)
        self._pending_code = {fid: f for fid, f in self._pending_code.items()
                              if f.program != pid}
        # every queued frame of the dead program is a termination drop —
        # counted so frame conservation (enqueues vs outcomes) stays exact
        for _ in range(before - self.queue_depth()):
            self.stats.inc("frames_dropped_terminated")
        # retry budgets key off frame ids, so entries for this program's
        # frames would otherwise accumulate across program lifetimes
        if self._code_retries:
            kept = {f.frame_id for f in self.executable}
            kept.update(f.frame_id for f, _c in self.ready)
            kept.update(self._pending_code)
            self._code_retries = {fid: n
                                  for fid, n in self._code_retries.items()
                                  if fid in kept}
        if not self.site.program_manager.has_active_programs():
            self._disarm_reports()  # nothing to report until the next one

    def snapshot_frames(self) -> List[Microframe]:
        """Copy of queued frames (checkpoint wave — queues stay in place)."""
        return (list(self.executable) + [f for f, _c in self.ready]
                + list(self._pending_code.values()))

    def reset_for_recovery(self) -> None:
        """Drop every queued frame (rollback: the checkpoint restores them).

        Clearing ``_pending_code`` matters: stale in-flight code fetches
        would otherwise keep counting against the ready-queue budget and
        wedge ``_fill_ready`` forever.
        """
        self.executable.clear()
        self.ready.clear()
        self._pending_code.clear()
        self._code_retries.clear()
        self._load_changed()

    def export_frames(self) -> List[Microframe]:
        """Drain all queues (including in-flight code fetches) for sign-off
        relocation (§3.4)."""
        frames = (list(self.executable) + [f for f, _c in self.ready]
                  + list(self._pending_code.values()))
        self.executable.clear()
        self.ready.clear()
        self._pending_code.clear()
        # the frames start fresh on their new site; keeping the retry map
        # here would leak one entry per relocated frame forever
        self._code_retries.clear()
        # parked thieves must look elsewhere — this site is signing off
        self._flush_parked_helps()
        self._load_changed()
        return frames

    def queue_depth(self) -> int:
        return (len(self.executable) + len(self.ready)
                + len(self._pending_code))

    def parked_depth(self) -> int:
        """Help requests currently parked awaiting a frame surplus
        (telemetry: a persistently high figure means thieves are queueing
        behind a victim that never frees anything)."""
        return len(self._parked_helps)

    def on_stop(self) -> None:
        if self._help_timer is not None:
            self.kernel.cancel(self._help_timer)
            self._help_timer = None
        self._disarm_reports()
        # drop parked helps without replying: the site is going away and
        # the thieves' request timeouts handle the silence
        for _msg, timer in self._parked_helps.values():
            self.kernel.cancel(timer)
        self._parked_helps.clear()

    def status(self) -> dict:
        base = super().status()
        base["executable"] = len(self.executable)
        base["ready"] = len(self.ready)
        base["pending_code"] = len(self._pending_code)
        base["inflight_helps"] = len(self._inflight_helps)
        base["parked_helps"] = self.parked_depth()
        return base
