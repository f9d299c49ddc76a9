"""Unit tests for the message manager: routing, replies, timeouts,
rerouting to heirs, and the forwarding (zombie) mode.
"""

from __future__ import annotations

import pytest

from repro.common.config import SDVMConfig
from repro.common.ids import ManagerId
from repro.messages import MsgType, SDMessage, make_reply
from repro.site.simcluster import SimCluster


@pytest.fixture
def pair(fast_config):
    cluster = SimCluster(nsites=2, config=fast_config)
    cluster.sim.run(until=0.2)
    return cluster, cluster.sites[0], cluster.sites[1]


def status_msg(src, dst):
    return SDMessage(
        type=MsgType.STATUS_QUERY,
        src_site=src.site_id, src_manager=ManagerId.SITE,
        dst_site=dst.site_id, dst_manager=ManagerId.SITE,
    )


class TestSendReceive:
    def test_request_reply_roundtrip(self, pair):
        cluster, a, b = pair
        replies = []
        a.message_manager.request(status_msg(a, b), replies.append)
        cluster.sim.run(until=0.5)
        assert len(replies) == 1
        assert replies[0].type is MsgType.STATUS_REPLY
        assert replies[0].payload["site_id"] == b.site_id

    def test_local_loopback(self, pair):
        cluster, a, _b = pair
        replies = []
        a.message_manager.request(status_msg(a, a), replies.append)
        cluster.sim.run(until=0.5)
        assert len(replies) == 1
        assert a.message_manager.stats.get("local_messages").count >= 1

    def test_unresolvable_target(self, pair):
        _cluster, a, _b = pair
        msg = status_msg(a, a)
        msg.dst_site = 999
        assert not a.message_manager.send(msg)
        assert a.message_manager.stats.get("unresolvable").count == 1

    def test_seq_assigned_monotonically(self, pair):
        _cluster, a, b = pair
        m1, m2 = status_msg(a, b), status_msg(a, b)
        a.message_manager.send(m1)
        a.message_manager.send(m2)
        assert 0 < m1.seq < m2.seq

    def test_src_load_piggybacked(self, pair):
        cluster, a, b = pair
        msg = status_msg(a, b)
        a.message_manager.send(msg)
        assert msg.src_load >= 0
        cluster.sim.run(until=0.5)
        record = b.cluster_manager.sites[a.site_id]
        assert record.load == msg.src_load

    def test_timeout_fires_and_late_reply_is_orphan(self, pair):
        cluster, a, b = pair
        timed_out = []
        # impossible timeout: shorter than one-way latency
        a.message_manager.request(status_msg(a, b), lambda m: None,
                                  timeout=1e-6,
                                  on_timeout=lambda: timed_out.append(1))
        cluster.sim.run(until=0.5)
        assert timed_out == [1]
        assert a.message_manager.stats.get("request_timeouts").count == 1
        # the actual reply arrived later and was routed as unsolicited
        assert a.message_manager.stats.get("orphan_replies").count >= 0

    def test_stopped_site_drops_messages(self, pair):
        cluster, a, b = pair
        b.crash()
        assert a.message_manager.send(status_msg(a, b))  # fire and forget
        cluster.sim.run(until=0.5)  # no crash: message swallowed

    def test_reroute_to_heir_after_sign_off(self, fast_config):
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c = cluster.sites
        b_id = b.site_id
        # b leaves; a learns c is the heir
        record = a.cluster_manager.sites[b_id]
        record.alive = False
        record.left = True
        record.heir = c.site_id
        replies = []
        a.message_manager.request(status_msg(a, b), replies.append)
        cluster.sim.run(until=0.5)
        assert len(replies) == 1
        assert replies[0].payload["site_id"] == c.site_id


class TestForwardingMode:
    def test_zombie_forwards_results_to_heir(self, fast_config):
        from repro.common.ids import GlobalAddress
        cluster = SimCluster(nsites=3, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b, c = cluster.sites
        b.forward_to = c.site_id
        msg = SDMessage(
            type=MsgType.APPLY_RESULT,
            src_site=a.site_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=b.site_id, dst_manager=ManagerId.ATTRACTION_MEMORY,
            program=-1,
            payload={"addr": GlobalAddress(b.site_id, 1), "slot": 0,
                     "value": 42},
        )
        a.message_manager.send(msg)
        cluster.sim.run(until=0.5)
        assert b.message_manager.stats.get("forwarded_to_heir").count == 1
        # c buffered the orphan result (program unknown -> dropped is also
        # acceptable; the point is the message reached c)
        received = c.message_manager.stats.get("received").count
        assert received >= 1

    def test_zombie_drops_heartbeats(self, fast_config):
        cluster = SimCluster(nsites=2, config=fast_config)
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        b.forward_to = a.site_id
        hb = SDMessage(
            type=MsgType.HEARTBEAT,
            src_site=a.site_id, src_manager=ManagerId.CLUSTER,
            dst_site=b.site_id, dst_manager=ManagerId.CLUSTER,
            payload={"load": 0.0},
        )
        a.message_manager.send(hb)
        cluster.sim.run(until=0.5)
        assert b.message_manager.stats.get("forwarded_to_heir").count == 0


class TestLiveKernelTimeoutPaths:
    """request() timeout machinery exercised on the live (real-threads)
    kernel: timeout fires, a late reply is routed as an orphan, and
    on_stop cancels pending handles."""

    @staticmethod
    def _cluster():
        import time

        from repro.common.config import CostModel
        from repro.runtime.live_cluster import LiveCluster

        return LiveCluster(nsites=2, config=SDVMConfig(
            cost=CostModel(compile_fixed_cost=1e-4)))

    @staticmethod
    def _swallow_queries(site):
        """Make ``site`` drop STATUS_QUERYs so no reply can race the
        timeout timer."""
        site.kernel.reactor_call(
            lambda: setattr(site.site_manager, "handle", lambda msg: None))

    @staticmethod
    def _await(predicate, timeout=5.0):
        import time
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return False

    def test_timeout_fires_and_clears_pending(self):
        import threading
        with self._cluster() as cluster:
            a, b = cluster.sites
            self._swallow_queries(b)
            timed_out = threading.Event()
            a.kernel.reactor_call(lambda: a.message_manager.request(
                status_msg(a, b), lambda m: None, timeout=0.05,
                on_timeout=timed_out.set))
            assert timed_out.wait(5.0)
            assert self._await(lambda: a.kernel.reactor_call(
                lambda: (a.message_manager.stats.get(
                             "request_timeouts").count,
                         len(a.message_manager._pending))) == (1, 0))

    def test_late_reply_becomes_orphan(self):
        with self._cluster() as cluster:
            a, b = cluster.sites
            self._swallow_queries(b)
            msg = status_msg(a, b)
            a.kernel.reactor_call(lambda: a.message_manager.request(
                msg, lambda m: None, timeout=0.05))
            assert self._await(lambda: a.kernel.reactor_call(
                lambda: a.message_manager.stats.get(
                    "request_timeouts").count) == 1)
            # now hand-deliver the reply the swallowed query never produced
            late = make_reply(msg, MsgType.STATUS_REPLY,
                              {"load": 0.0, "site_id": b.site_id})
            b.kernel.reactor_call(lambda: b.message_manager.send(late))
            assert self._await(lambda: a.kernel.reactor_call(
                lambda: a.message_manager.stats.get(
                    "orphan_replies").count) == 1)

    def test_on_stop_cancels_pending_handles(self):
        with self._cluster() as cluster:
            a, b = cluster.sites
            self._swallow_queries(b)
            msg = status_msg(a, b)
            a.kernel.reactor_call(lambda: a.message_manager.request(
                msg, lambda m: None, timeout=60.0))
            handle = a.kernel.reactor_call(
                lambda: a.message_manager._pending[msg.seq].timeout_handle)
            assert handle is not None and not handle.cancelled
            a.kernel.reactor_call(a.stop)
            assert handle.cancelled
            assert not a.message_manager._pending


class TestSecurityIntegration:
    def test_sealed_wire_hides_payload(self):
        from repro.common.config import SecurityConfig
        config = SDVMConfig(security=SecurityConfig(enabled=True))
        cluster = SimCluster(nsites=2, config=config)
        seen = []
        original_send = cluster.network.send

        def spy(src, dst, data, msg=None):
            seen.append(bytes(data))
            return original_send(src, dst, data, msg)

        cluster.network.send = spy
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        msg = status_msg(a, b)
        msg.payload["secret_marker"] = "VERY-SECRET-TOKEN"
        a.message_manager.send(msg)
        cluster.sim.run(until=0.5)
        assert seen
        assert all(b"VERY-SECRET-TOKEN" not in blob for blob in seen)
