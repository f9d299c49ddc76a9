"""Unit tests for the scheduling manager and its queue policies."""

from __future__ import annotations

from collections import deque

import pytest

from repro.common.errors import SchedulingError
from repro.common.ids import GlobalAddress
from repro.core.frames import Microframe
from repro.sched.policies import (pop_frame, take_batch_for_help,
                                  take_for_help, take_push_batch)
from repro.site.simcluster import SimCluster


def frames(count, critical_indices=(), priorities=None):
    out = deque()
    for i in range(count):
        frame = Microframe(GlobalAddress(0, i + 1), thread_id=0,
                           program=1, nparams=0)
        frame.created_at = float(i)
        frame.critical = i in critical_indices
        if priorities:
            frame.priority = priorities[i]
        out.append(frame)
    return out


class TestPolicies:
    def test_fifo_pop(self):
        queue = frames(3)
        assert pop_frame(queue, "fifo", False).frame_id.local == 1
        assert pop_frame(queue, "fifo", False).frame_id.local == 2

    def test_lifo_pop(self):
        queue = frames(3)
        assert pop_frame(queue, "lifo", False).frame_id.local == 3

    def test_hints_pull_critical_first(self):
        queue = frames(4, critical_indices=(2,))
        assert pop_frame(queue, "fifo", True).frame_id.local == 3
        # remaining frames revert to fifo
        assert pop_frame(queue, "fifo", True).frame_id.local == 1

    def test_hints_disabled_ignores_critical(self):
        queue = frames(4, critical_indices=(2,))
        assert pop_frame(queue, "fifo", False).frame_id.local == 1

    def test_priority_policy(self):
        queue = frames(3, priorities=[1.0, 9.0, 5.0])
        assert pop_frame(queue, "priority", True).frame_id.local == 2
        assert pop_frame(queue, "priority", True).frame_id.local == 3

    def test_priority_tie_breaks_by_age(self):
        queue = frames(3, priorities=[5.0, 5.0, 5.0])
        assert pop_frame(queue, "priority", True).frame_id.local == 1

    def test_help_reply_lifo_takes_newest(self):
        queue = frames(3)
        assert take_for_help(queue, "lifo").frame_id.local == 3

    def test_help_reply_fifo_takes_oldest(self):
        queue = frames(3)
        assert take_for_help(queue, "fifo").frame_id.local == 1

    def test_empty_queue_rejected(self):
        with pytest.raises(SchedulingError):
            pop_frame(deque(), "fifo", False)
        with pytest.raises(SchedulingError):
            take_for_help(deque(), "lifo")

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError):
            pop_frame(frames(1), "quantum", False)
        with pytest.raises(SchedulingError):
            take_for_help(frames(1), "sjf")

    def test_batch_lifo_takes_newest_first(self):
        queue = frames(5)
        batch = take_batch_for_help(queue, "lifo", 3)
        assert [f.frame_id.local for f in batch] == [5, 4, 3]
        assert len(queue) == 2

    def test_batch_stops_at_queue_bottom(self):
        queue = frames(2)
        assert len(take_batch_for_help(queue, "fifo", 5)) == 2
        assert not queue

    def test_batch_count_validated(self):
        with pytest.raises(SchedulingError):
            take_batch_for_help(frames(3), "lifo", 0)
        with pytest.raises(SchedulingError):
            take_push_batch(frames(3), "lifo", 0)

    def test_push_batch_skips_critical_and_restores_order(self):
        queue = frames(5, critical_indices=(1, 3))
        batch = take_push_batch(queue, "fifo", 3)
        # the three non-critical frames go; the critical two stay, in order
        assert [f.frame_id.local for f in batch] == [1, 3, 5]
        assert [f.frame_id.local for f in queue] == [2, 4]

    def test_push_batch_lifo_restores_order(self):
        queue = frames(4, critical_indices=(3,))
        batch = take_push_batch(queue, "lifo", 2)
        assert [f.frame_id.local for f in batch] == [3, 2]
        assert [f.frame_id.local for f in queue] == [1, 4]


class TestStarvationFreedom:
    def test_fifo_local_no_starvation(self, fast_config):
        """Every frame of a long run is eventually executed (the paper's
        reason for FIFO locally): total executions == frames created."""
        from repro.apps import build_primes_program, first_n_primes
        cluster = SimCluster(nsites=2, config=fast_config)
        handle = cluster.submit(build_primes_program(),
                                args=(30, 5, 200.0, 2000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(30)


@pytest.fixture
def running_pair(fast_config):
    from repro.apps import build_primes_program
    cluster = SimCluster(nsites=2,
                         config=fast_config.with_(journal=True))
    handle = cluster.submit(build_primes_program(),
                            args=(25, 6, 400.0, 4000.0))
    cluster.sim.run(until=0.05)
    thief, victim = cluster.sites
    assert thief.program_manager.is_active(handle.pid)
    return cluster, thief, victim, handle


class TestLateHelpReply:
    """A HELP_REPLY that arrives after its request timed out still carries
    stolen frames, so it must adopt and account them — but the timed-out
    request already fed the backoff/cooldown failure path, so the late
    reply must NOT reset that congestion state (only a reply correlated
    to a live in-flight request may)."""

    def _late_reply(self, mtype, thief, victim, pid):
        from repro.common.ids import ManagerId
        from repro.messages import MsgType, SDMessage
        payload = {"load": 1.0}
        if mtype is MsgType.HELP_REPLY:
            frame = Microframe(GlobalAddress(victim.site_id, 7777),
                               thread_id=0, program=pid, nparams=0)
            payload["frames"] = [frame.to_wire()]
        return SDMessage(
            type=mtype,
            src_site=victim.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=thief.site_id, dst_manager=ManagerId.SCHEDULING,
            payload=payload)

    def test_late_reply_adopts_but_keeps_backoff(self, running_pair):
        from repro.messages import MsgType
        _cluster, thief, victim, handle = running_pair
        sm = thief.scheduling_manager
        sm._cooldown[victim.site_id] = until = sm.kernel.now + 100.0
        sm._help_backoff = 4.0
        steals = sm.stats.get("steals_in").count
        enqueued = sm.stats.get("frames_enqueued").count
        grants = sm.stats.get("steal_grants").count
        late = sm.stats.get("late_steal_grants").count

        sm.handle(self._late_reply(MsgType.HELP_REPLY, thief, victim,
                                   handle.pid))

        # the frame is adopted and fully accounted...
        assert sm.stats.get("steals_in").count == steals + 1
        assert sm.stats.get("frames_enqueued").count == enqueued + 1
        assert sm.stats.get("late_steal_grants").count == late + 1
        assert any(k == "steal_in" and d.get("victim") == victim.site_id
                   for _t, k, d in thief.journal)
        # ...but the fence holds: a reply to a dead request must not wipe
        # congestion state mid-congestion
        assert sm._help_backoff == 4.0
        assert sm._cooldown[victim.site_id] == until
        # and it is not a correlated grant (success-rate numerator)
        assert sm.stats.get("steal_grants").count == grants

    def test_live_reply_resets_backoff_and_cooldown(self, running_pair):
        from repro.common.ids import ManagerId
        from repro.messages import MsgType, SDMessage
        from repro.sched.manager import _HelpRequest
        _cluster, thief, victim, handle = running_pair
        sm = thief.scheduling_manager
        sm._help_backoff = 4.0
        sm._cooldown[victim.site_id] = sm.kernel.now + 100.0
        sm._cooldown[999] = sm.kernel.now + 100.0
        sm._inflight_helps[4242] = _HelpRequest(
            victim.site_id, prefetch=False, sent_at=sm.kernel.now)
        frame = Microframe(GlobalAddress(victim.site_id, 7778),
                           thread_id=0, program=handle.pid, nparams=0)
        steals = sm.stats.get("steals_in").count
        grants = sm.stats.get("steal_grants").count

        sm._on_help_reply(SDMessage(
            type=MsgType.HELP_REPLY,
            src_site=victim.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=thief.site_id, dst_manager=ManagerId.SCHEDULING,
            reply_to=4242,
            payload={"load": 1.0, "queue": 0.0,
                     "frames": [frame.to_wire()]}))

        assert sm.stats.get("steals_in").count == steals + 1
        assert sm.stats.get("steal_grants").count == grants + 1
        # the victim just proved it can help: off cooldown, backoff reset
        assert sm._help_backoff == 1.0
        assert victim.site_id not in sm._cooldown
        assert 4242 not in sm._inflight_helps
        # unrelated cooldown state is untouched
        assert 999 in sm._cooldown

    def test_late_cant_help_is_ignored(self, running_pair):
        from repro.messages import MsgType
        _cluster, thief, victim, handle = running_pair
        sm = thief.scheduling_manager
        sm._cooldown[victim.site_id] = until = sm.kernel.now + 100.0
        steals = sm.stats.get("steals_in").count
        sm.handle(self._late_reply(MsgType.CANT_HELP, thief, victim,
                                   handle.pid))
        assert sm.stats.get("steals_in").count == steals
        assert sm._cooldown[victim.site_id] == until


class TestBackoffAndCooldown:
    def test_backoff_grows_and_caps(self, running_pair):
        _cluster, thief, _victim, _handle = running_pair
        sm = thief.scheduling_manager
        sm._help_backoff = 1.0
        for expected in (1.5, 2.25, 3.375):
            sm._schedule_retry()
            assert sm._help_backoff == expected
            sm.kernel.cancel(sm._help_timer)
            sm._help_timer = None
        sm._help_backoff = 15.0
        sm._schedule_retry()
        assert sm._help_backoff == 20.0  # capped, not 22.5
        sm.kernel.cancel(sm._help_timer)
        sm._help_timer = None

    def test_kick_resets_backoff(self, running_pair):
        _cluster, thief, _victim, _handle = running_pair
        sm = thief.scheduling_manager
        sm._help_backoff = 8.0
        sm.kick()
        assert sm._help_backoff == 1.0

    def test_victim_cooldown_blocks_then_expires(self, running_pair):
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        # only peer is unknown-freshness: eligible unless on cooldown
        thief.cluster_manager.sites[victim.site_id].load_at = -1.0
        sent = sm.stats.get("help_sent").count
        sm._cooldown[victim.site_id] = sm.kernel.now + 100.0
        sm._send_help()
        assert sm.stats.get("help_sent").count == sent  # victim skipped
        sm._cooldown[victim.site_id] = sm.kernel.now - 1.0  # expired
        sm._send_help()
        assert sm.stats.get("help_sent").count == sent + 1
        assert victim.site_id in {req.target
                                  for req in sm._inflight_helps.values()}

    def test_timed_out_request_counts_as_attempt(self, running_pair):
        """Satellite of the success-rate fix: a request that times out
        with no reply at all must land in the attempt denominator."""
        from repro.trace.aggregate import aggregate_sites
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        thief.cluster_manager.sites[victim.site_id].load_at = -1.0
        sm._cooldown.clear()
        sent = sm.stats.get("help_sent").count
        sm._send_help()
        assert sm.stats.get("help_sent").count == sent + 1
        seq = next(iter(sm._inflight_helps))
        timeouts = sm.stats.get("help_timeouts").count
        sm._help_timed_out(seq)
        assert sm.stats.get("help_timeouts").count == timeouts + 1
        assert not sm._inflight_helps
        grants = sm.stats.get("steal_grants").count
        attempts = sm.stats.get("help_sent").count
        report = aggregate_sites([thief])
        # the timed-out request is in the denominator, not a non-event
        assert report.derived["steal_success_rate"] == pytest.approx(
            grants / attempts)
        assert report.derived["steal_success_rate"] < 1.0


class TestDepartureCleanup:
    """Per-peer scheduler state (cooldown, in-flight fence, parked
    thieves) must be dropped when the peer crashes or signs off — dead
    sites used to accumulate in these maps forever."""

    def test_departure_clears_cooldown_and_inflight(self, running_pair):
        from repro.sched.manager import _HelpRequest
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        sm._cooldown[victim.site_id] = sm.kernel.now + 100.0
        sm._inflight_helps[555] = _HelpRequest(victim.site_id, False,
                                               sm.kernel.now)
        thief.cluster_manager._note_departed(victim.site_id)
        assert victim.site_id not in sm._cooldown
        assert not sm._inflight_helps
        assert sm.stats.get("help_targets_departed").count == 1

    def test_departure_drops_parked_helps_of_dead_thief(self, running_pair):
        from repro.common.ids import ManagerId
        from repro.messages import MsgType, SDMessage
        _cluster, victim_site, thief_site, _handle = running_pair
        sm = victim_site.scheduling_manager
        msg = SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=thief_site.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=victim_site.site_id, dst_manager=ManagerId.SCHEDULING,
            payload={"thief": thief_site.site_id, "rseq": 42})
        timer = sm.kernel.call_later(100.0, lambda: None)
        sm._parked_helps[42] = (msg, timer)
        cant_help = sm.stats.get("cant_help_sent").count
        victim_site.cluster_manager._note_departed(thief_site.site_id)
        assert not sm._parked_helps
        assert sm.stats.get("help_parks_dropped_dead").count == 1
        # no CANT_HELP into the void: the thief is gone
        assert sm.stats.get("cant_help_sent").count == cant_help


class TestVictimSelection:
    @pytest.fixture
    def cm(self, fast_config):
        cluster = SimCluster(nsites=4, config=fast_config)
        cluster.sim.run(until=0.05)
        manager = cluster.sites[0].cluster_manager
        now = manager.kernel.now
        for record in manager.alive_peers():
            record.load_at = now
            record.load = 0.0
            record.queue = 0.0
        return manager

    def test_all_fresh_and_empty_yields_none(self, cm):
        assert cm.pick_help_target(()) is None

    def test_deepest_fresh_queue_wins(self, cm):
        cm.sites[1].queue = 2.0
        cm.sites[2].queue = 5.0
        assert cm.pick_help_target(()) == 2
        assert cm.pick_help_target({2}) == 1

    def test_stale_peers_get_probed(self, cm):
        for record in cm.alive_peers():
            record.load_at = -1.0
        assert cm.pick_help_target(()) in {1, 2, 3}

    def test_fresh_busy_peer_beats_nothing(self, cm):
        # queues empty everywhere, but one peer's load says work may
        # surface: probe it rather than backing off
        cm.sites[3].load = 4.0
        assert cm.pick_help_target(()) == 3

    def test_push_target_needs_fresh_idle_peer(self, cm):
        for record in cm.alive_peers():
            record.load_at = -1.0
        assert cm.pick_push_target() is None
        cm.sites[1].load_at = cm.kernel.now
        assert cm.pick_push_target() == 1
        # pushing marks the peer non-idle so the next push spreads
        cm.note_pushed(1, 2)
        assert cm.pick_push_target() is None


class TestStealBatching:
    def _park_frames(self, sm, pid, count, start=9000):
        for i in range(count):
            sm.executable.append(Microframe(
                GlobalAddress(0, start + i), thread_id=0,
                program=pid, nparams=0))

    def test_steal_half_bounded_by_want(self, running_pair):
        from repro.common.ids import ManagerId
        from repro.messages import MsgType, SDMessage
        _cluster, victim, thief, handle = running_pair
        sm = victim.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        self._park_frames(sm, handle.pid, 12)
        outs = sm.stats.get("steals_out").count
        sm._on_help_request(SDMessage(
            type=MsgType.HELP_REQUEST, seq=777,
            src_site=thief.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=victim.site_id, dst_manager=ManagerId.SCHEDULING,
            payload={"load": 0.0, "want": 3}))
        # min(want=3, steal_batch_max=4, half of 12) = 3 frames granted
        assert sm.stats.get("steals_out").count == outs + 3
        assert len(sm.executable) == 9
        # batch sizes are tracked as a histogram, not a counter
        assert any(name == "steal_batch"
                   for name, _hist in sm.stats.hist_items())

    def test_steal_half_never_takes_more_than_half(self, running_pair):
        from repro.common.ids import ManagerId
        from repro.messages import MsgType, SDMessage
        _cluster, victim, thief, handle = running_pair
        sm = victim.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        self._park_frames(sm, handle.pid, 3)
        outs = sm.stats.get("steals_out").count
        sm._on_help_request(SDMessage(
            type=MsgType.HELP_REQUEST, seq=778,
            src_site=thief.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=victim.site_id, dst_manager=ManagerId.SCHEDULING,
            payload={"load": 0.0, "want": 4}))
        # min(want=4, batch_max=4, (3+1)//2=2) = 2: over half stays home
        assert sm.stats.get("steals_out").count == outs + 2
        assert len(sm.executable) == 1

    def test_batched_reply_lands_every_frame(self, running_pair):
        cluster, victim, thief, handle = running_pair
        sm = victim.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        self._park_frames(sm, handle.pid, 12)
        from repro.common.ids import ManagerId
        from repro.messages import MsgType, SDMessage
        replies = []
        thief.message_manager.request(SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=thief.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=victim.site_id, dst_manager=ManagerId.SCHEDULING,
            payload={"load": 0.0, "want": 3},
        ), replies.append)
        cluster.sim.run(until=0.2)
        assert len(replies) == 1
        assert replies[0].type is MsgType.HELP_REPLY
        assert len(replies[0].payload["frames"]) == 3
        # program info rides along so the thief can adopt immediately
        pids = [w["pid"] for w in replies[0].payload["program_infos"]]
        assert handle.pid in pids


class TestProactivePush:
    def test_push_sheds_surplus_to_known_idle_peer(self, running_pair):
        cluster, pusher, peer, handle = running_pair
        sm = pusher.scheduling_manager
        cm = pusher.cluster_manager
        sm.executable.clear()
        sm.ready.clear()
        sm._pm_hungry = 0
        for i in range(5):
            sm.executable.append(Microframe(
                GlobalAddress(0, 9100 + i), thread_id=0,
                program=handle.pid, nparams=0))
        cm.note_load(peer.site_id, 0.0, queue=0.0)  # fresh & idle
        sm._maybe_push()
        # spare=5, floor=max(keep_local_min=0, push_min_queue=1)=1:
        # count = min(batch_max=4, (5+1)//2=3, 5-1=4) = 3
        assert sm.stats.get("frames_pushed").count == 3
        assert len(sm.executable) == 2
        assert any(k == "push_out" and d.get("target") == peer.site_id
                   for _t, k, d in pusher.journal)
        # the peer adopts the batch once the transfer is delivered
        cluster.sim.run(until=0.2)
        adopted = peer.attraction_memory.stats.get("frames_adopted").count
        assert adopted >= 3

    def test_no_push_without_fresh_idle_view(self, running_pair):
        _cluster, pusher, peer, handle = running_pair
        sm = pusher.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        sm._pm_hungry = 0
        for i in range(5):
            sm.executable.append(Microframe(
                GlobalAddress(0, 9200 + i), thread_id=0,
                program=handle.pid, nparams=0))
        pusher.cluster_manager.sites[peer.site_id].load_at = -1.0
        sm._maybe_push()
        assert sm.stats.get("frames_pushed").count == 0
        assert len(sm.executable) == 5

    def test_critical_frames_stay_home(self, running_pair):
        _cluster, pusher, peer, handle = running_pair
        sm = pusher.scheduling_manager
        sm.executable.clear()
        sm.ready.clear()
        sm._pm_hungry = 0
        for i in range(5):
            frame = Microframe(GlobalAddress(0, 9300 + i), thread_id=0,
                               program=handle.pid, nparams=0)
            frame.critical = True
            sm.executable.append(frame)
        pusher.cluster_manager.note_load(peer.site_id, 0.0, queue=0.0)
        sm._maybe_push()
        assert sm.stats.get("frames_pushed").count == 0
        assert len(sm.executable) == 5


class TestPrefetchEscalation:
    """A prefetched steal in flight must not suppress a genuine idle-time
    help request: an idle site whose only outstanding requests are
    prefetches escalates with a real one."""

    def _drain(self, sm):
        sm.executable.clear()
        sm.ready.clear()
        sm._pending_code.clear()
        sm._cooldown.clear()

    def test_idle_site_escalates_past_prefetch(self, running_pair):
        from repro.sched.manager import _HelpRequest
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        self._drain(sm)
        thief.cluster_manager.sites[victim.site_id].load_at = -1.0
        sm._pm_hungry = 1  # genuinely idle
        sm._inflight_helps = {99: _HelpRequest(999, prefetch=True,
                                               sent_at=sm.kernel.now)}
        sent = sm.stats.get("help_sent").count
        sm._maybe_help()
        assert sm.stats.get("help_sent").count == sent + 1

    def test_real_request_in_flight_suppresses(self, running_pair):
        from repro.sched.manager import _HelpRequest
        _cluster, thief, victim, _handle = running_pair
        sm = thief.scheduling_manager
        self._drain(sm)
        thief.cluster_manager.sites[victim.site_id].load_at = -1.0
        sm._pm_hungry = 1
        sm._inflight_helps = {99: _HelpRequest(999, prefetch=False,
                                               sent_at=sm.kernel.now)}
        sent = sm.stats.get("help_sent").count
        sm._maybe_help()
        assert sm.stats.get("help_sent").count == sent


class TestCodeRetryCleanup:
    """Regression: ``_code_retries`` entries used to outlive their frames
    through program teardown and sign-off relocation."""

    @pytest.fixture
    def manager(self, fast_config):
        cluster = SimCluster(nsites=1, config=fast_config)
        cluster.sim.run(until=0.05)
        return cluster.sites[0].scheduling_manager

    @staticmethod
    def _frame(local, program):
        return Microframe(GlobalAddress(0, local), thread_id=0,
                          program=program, nparams=0)

    def test_drop_program_prunes_stale_budgets(self, manager):
        kept = self._frame(1, program=7)
        manager.executable.append(kept)
        manager._code_retries = {kept.frame_id: 1,
                                 GlobalAddress(0, 2): 2}
        manager.drop_program(8)
        # the orphaned budget (frame no longer queued anywhere) is gone;
        # the live frame's budget survives
        assert manager._code_retries == {kept.frame_id: 1}
        manager.drop_program(7)
        assert manager._code_retries == {}

    def test_export_frames_clears_budgets(self, manager):
        frame = self._frame(3, program=7)
        manager.executable.append(frame)
        manager._code_retries = {frame.frame_id: 2}
        exported = manager.export_frames()
        assert frame in exported
        assert manager._code_retries == {}

    def test_terminated_program_budget_dropped_on_code_arrival(self,
                                                               manager):
        frame = self._frame(4, program=424242)  # never registered
        manager._pending_code[frame.frame_id] = frame
        manager._code_retries[frame.frame_id] = 3
        manager._code_arrived(frame, None)
        assert frame.frame_id not in manager._code_retries


class TestHelpProtocol:
    def test_cant_help_when_queue_low(self, fast_config):
        from dataclasses import replace
        config = fast_config.with_(scheduling=replace(
            fast_config.scheduling, keep_local_min=5))
        cluster = SimCluster(nsites=2, config=config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        # b asks a (empty queue, high keep_local_min): must refuse
        from repro.messages import MsgType, SDMessage
        from repro.common.ids import ManagerId
        replies = []
        b.message_manager.request(SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=b.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=a.site_id, dst_manager=ManagerId.SCHEDULING,
            payload={"load": 0.0},
        ), replies.append)
        cluster.sim.run(until=0.5)
        assert len(replies) == 1
        assert replies[0].type is MsgType.CANT_HELP

    def test_paused_site_refuses_help(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        a.paused = True
        from repro.messages import MsgType, SDMessage
        from repro.common.ids import ManagerId
        replies = []
        b.message_manager.request(SDMessage(
            type=MsgType.HELP_REQUEST,
            src_site=b.site_id, src_manager=ManagerId.SCHEDULING,
            dst_site=a.site_id, dst_manager=ManagerId.SCHEDULING,
            payload={"load": 0.0},
        ), replies.append)
        cluster.sim.run(until=0.5)
        assert replies[0].type is MsgType.CANT_HELP

    def test_steal_counts_balance(self, fast_config):
        """steals_out across the cluster equals steals_in plus late-reply
        recoveries — no frame duplication."""
        from repro.apps import build_primes_program, first_n_primes
        cluster = SimCluster(nsites=4, config=fast_config)
        handle = cluster.submit(build_primes_program(),
                                args=(40, 8, 400.0, 4000.0))
        cluster.run(progress_timeout=120.0)
        assert handle.result == first_n_primes(40)
        stats = cluster.total_stats()
        out = stats.get("steals_out").count
        received = stats.get("steals_in").count
        assert out >= received
        # conservation, outflow form: every enqueued frame ends in exactly
        # one bucket — executed, dropped at program termination, dropped as
        # stale, handed to a thief (steals_out; the thief's re-enqueue is
        # its own enqueue event), pushed to an idle peer (frames_pushed;
        # likewise re-enqueued there), still queued, or in a PM slot.
        # Frames are never duplicated or lost.
        accounted = (stats.get("executions").count
                     + stats.get("frames_dropped_terminated").count
                     + stats.get("stale_work_dropped").count
                     + out
                     + stats.get("frames_pushed").count
                     + sum(s.scheduling_manager.queue_depth()
                           for s in cluster.sites)
                     + sum(s.processing_manager.in_flight
                           for s in cluster.sites))
        assert stats.get("frames_enqueued").count == accounted


class TestHotPeerRumors:
    """The hot-peer cache and epidemic load rumors — the machinery that
    keeps work discovery O(1) once the cluster outgrows the 16-peer
    sample window."""

    @pytest.fixture
    def big_cm(self, fast_config):
        # 20 sites: 19 peers, three more than the sample window holds
        cluster = SimCluster(nsites=20, config=fast_config)
        cluster.sim.run(until=0.05)
        cm = cluster.sites[0].cluster_manager
        now = cm.kernel.now
        for record in cm.alive_peers():
            record.load_at = now
            record.load = 0.0
            record.queue = 0.0
        cm._hot_peers.clear()
        return cm

    def test_rumor_applies_when_fresher(self, big_cm):
        cm = big_cm
        record = cm.sites[5]
        record.load_at = cm.kernel.now - 1.0
        seen = record.last_seen
        cm.note_load_rumor(5, 3.0, 4.0, age=0.0)
        assert record.load == 3.0 and record.queue == 4.0
        # liveness evidence stays first-hand: a relayed rumor must never
        # mask a missing heartbeat
        assert record.last_seen == seen
        assert 5 in {r.logical for r in cm.hot_peers()}

    def test_rumor_older_than_known_is_ignored(self, big_cm):
        cm = big_cm
        cm.note_load(5, 1.0, queue=1.0)
        cm.note_load_rumor(5, 9.0, 9.0, age=1.0)
        record = cm.sites[5]
        assert record.load == 1.0 and record.queue == 1.0

    def test_rumor_about_dead_site_is_ignored(self, big_cm):
        cm = big_cm
        cm.sites[5].alive = False
        cm.note_load_rumor(5, 9.0, 9.0, age=0.0)
        assert cm.sites[5].queue == 0.0
        assert 5 not in {r.logical for r in cm.hot_peers()}

    def test_hot_cache_drops_drained_peer(self, big_cm):
        cm = big_cm
        cm.note_load(7, 5.0, queue=5.0)
        assert 7 in {r.logical for r in cm.hot_peers()}
        cm.note_load(7, 0.0, queue=0.0)
        assert 7 not in {r.logical for r in cm.hot_peers()}

    def test_hot_rumors_deepest_first_and_capped(self, big_cm):
        cm = big_cm
        for logical, queue in ((3, 2.0), (4, 6.0), (5, 4.0), (6, 3.0)):
            cm.note_load(logical, queue, queue=queue)
        rows = cm.hot_rumors()
        assert len(rows) == cm.RUMOR_FANOUT
        assert [row[0] for row in rows] == [4, 5, 6]
        assert all(row[3] >= 0.0 for row in rows)  # ages, not timestamps

    def test_pick_help_target_sees_past_sample_window(self, big_cm):
        cm = big_cm
        cm._pick_cursor = 0  # next window: logicals 1..16
        cm.note_load(19, 6.0, queue=6.0)
        assert cm.pick_help_target(()) == 19

    def test_no_rumor_payload_below_sample_window(self, running_pair):
        # small clusters must gossip byte-identical payloads to the
        # pre-rumor wire format (the bit-reproducibility invariant)
        from dataclasses import replace
        _cluster, thief, victim, _handle = running_pair
        sm = victim.scheduling_manager
        victim.config = victim.config.with_(
            scheduling=replace(victim.config.scheduling,
                               gossip_interval=1e-3))
        victim.cluster_manager.note_load(thief.site_id, 5.0, queue=5.0)
        sent = []
        victim.message_manager.send = sent.append
        sm._reported.clear()  # the thief got no report yet: refresh due
        sm._report_round()
        assert sent, "a report round should refresh the thief's view"
        assert all("hot" not in msg.payload for msg in sent)


class TestEventDrivenReports:
    """LOAD_REPORTs follow changes of load class, not a fixed rate."""

    INTERVAL = 1e-3
    STALENESS = 5e-3

    @pytest.fixture
    def reporter(self, fast_config):
        from dataclasses import replace
        from repro.apps import build_primes_program
        config = fast_config.with_(scheduling=replace(
            fast_config.scheduling, gossip_interval=self.INTERVAL,
            gossip_staleness=self.STALENESS))
        cluster = SimCluster(nsites=4, config=config)
        handle = cluster.submit(build_primes_program(),
                                args=(25, 6, 400.0, 4000.0))
        cluster.sim.run(until=0.05)
        site = cluster.sites[1]
        assert site.program_manager.is_active(handle.pid)
        sm = site.scheduling_manager
        # freeze the site's queues: the tests drive them by hand
        sm.executable.clear()
        sm.ready.clear()
        sm._pm_hungry = 0
        # a full budget: these tests are about who is due, not the rate
        sm._report_tokens = (config.cluster.gossip_fanout
                             * self.STALENESS / self.INTERVAL)
        sent = []

        def send(msg):
            sent.append(msg)
            sm.note_told(msg.dst_site)
            return True

        site.message_manager.send = send
        peers = list(site.cluster_manager.sorted_alive_ids())
        return sm, sent, peers, handle.pid

    def _tell_all(self, sm, peers, age):
        """Every peer got a report of our current class ``age`` seconds
        ago."""
        now = sm.kernel.now
        cls = sm._load_class()
        sm._told = {peer: (now - age, cls) for peer in peers}
        sm._reported = {peer: now - age for peer in peers}
        sm._reported_class = cls

    @staticmethod
    def _frame(local, pid):
        return Microframe(GlobalAddress(1, 9000 + local), thread_id=0,
                          program=pid, nparams=0)

    def _assert_armed_within_interval(self, sm):
        assert sm._report_timer is not None
        assert sm._report_due <= sm.kernel.now + self.INTERVAL + 1e-12

    def test_unchanged_class_sends_nothing_before_refresh_age(
            self, reporter):
        sm, sent, peers, _pid = reporter
        self._tell_all(sm, peers, age=0.5 * self.STALENESS)
        sm._load_changed()
        sm._report_round()
        assert sent == []
        # a view about to go stale gets its refresh, to every peer
        self._tell_all(sm, peers, age=self.STALENESS - 0.5 * self.INTERVAL)
        sm._report_round()
        assert sorted(msg.dst_site for msg in sent) == sorted(peers)

    def test_crossing_steal_min_queue_up_reaches_every_told_peer(
            self, reporter):
        sm, sent, peers, pid = reporter
        self._tell_all(sm, peers, age=0.0)
        min_queue = sm.config.scheduling.steal_min_queue
        for i in range(min_queue):
            sm.executable.append(self._frame(i, pid))
        sm._load_changed()
        self._assert_armed_within_interval(sm)
        sm._report_round()
        assert sorted(msg.dst_site for msg in sent) == sorted(peers)
        assert all(msg.payload["queue"] == min_queue for msg in sent)

    def test_crossing_steal_min_queue_down_reaches_every_told_peer(
            self, reporter):
        sm, sent, peers, pid = reporter
        for i in range(sm.config.scheduling.steal_min_queue + 1):
            sm.executable.append(self._frame(i, pid))
        self._tell_all(sm, peers, age=0.0)
        sm.executable.clear()
        sm._load_changed()
        self._assert_armed_within_interval(sm)
        sm._report_round()
        assert sorted(msg.dst_site for msg in sent) == sorted(peers)
        assert all(msg.payload["queue"] == 0 for msg in sent)

    def test_hungry_flip_sends(self, reporter):
        sm, sent, peers, _pid = reporter
        self._tell_all(sm, peers, age=0.0)
        sm._pm_hungry = 1
        sm._load_changed()
        self._assert_armed_within_interval(sm)
        sm._report_round()
        assert sorted(msg.dst_site for msg in sent) == sorted(peers)
        # and stopping being hungry is news again
        sent.clear()
        sm._pm_hungry = 0
        sm._load_changed()
        sm._report_round()
        assert sorted(msg.dst_site for msg in sent) == sorted(peers)

    def test_piggybacked_view_hears_the_change(self, reporter):
        # a peer that saw our figures only on regular traffic holds our
        # class too; a peer whose view lapsed holds none and is not told
        sm, sent, peers, _pid = reporter
        self._tell_all(sm, peers, age=0.0)
        sm._told = {}
        sm.note_told(peers[0])
        sm._pm_hungry = 1
        sm._load_changed()
        sm._report_round()
        assert [msg.dst_site for msg in sent] == [peers[0]]

    def test_single_frame_is_not_news(self, reporter):
        # of the empty flag only the way down is news
        sm, sent, peers, pid = reporter
        self._tell_all(sm, peers, age=0.0)
        sm.executable.append(self._frame(0, pid))
        sm._load_changed()
        sm._report_round()
        assert sent == []

    def test_no_active_program_arms_no_timer(self, fast_config):
        from dataclasses import replace
        from repro.apps import build_primes_program
        config = fast_config.with_(scheduling=replace(
            fast_config.scheduling, gossip_interval=self.INTERVAL))
        cluster = SimCluster(nsites=3, config=config)
        cluster.sim.run(until=0.05)
        for site in cluster.sites:
            assert site.scheduling_manager._report_timer is None
        cluster.submit(build_primes_program(), args=(12, 4, 400.0, 4000.0))
        cluster.run()
        assert cluster.total_stats().get("gossip_sent").count > 0
        for site in cluster.sites:
            assert site.scheduling_manager._report_timer is None

    def test_gossip_off_sends_nothing(self, fast_config):
        from repro.apps import build_primes_program
        assert fast_config.scheduling.gossip_interval == 0
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.submit(build_primes_program(), args=(12, 4, 400.0, 4000.0))
        cluster.run()
        assert cluster.total_stats().get("gossip_sent").count == 0
        for site in cluster.sites:
            sm = site.scheduling_manager
            assert sm._report_timer is None and not sm._told
