"""The sim network's delivery path: the receiver gets a private copy of
the sender's message instead of decoding the wire bytes.

The bytes still travel (they set the size, the security verdict and the
CPU cost), and the real decode still runs wherever the bytes are all
there is: chaos duplicates and corrupted bytes, and heir forwarding.
"""

from __future__ import annotations

import pytest

from repro.apps import build_primes_program, first_n_primes
from repro.chaos import CorruptFault, FaultPlan, run_plan
from repro.chaos.engine import ChaosController
from repro.common.config import SDVMConfig, SecurityConfig
from repro.common.ids import GlobalAddress, ManagerId
from repro.messages import MsgType, SDMessage
from repro.security.layer import SecurityLayer
from repro.site.message_manager import MessageManager
from repro.site.simcluster import SimCluster


@pytest.fixture
def decodes(monkeypatch):
    """Count every ``SDMessage.decode`` call."""
    calls = []
    original = SDMessage.decode.__func__

    def counted(cls, data):
        calls.append(len(data))
        return original(cls, data)

    monkeypatch.setattr(SDMessage, "decode", classmethod(counted))
    return calls


@pytest.fixture
def deliveries(monkeypatch):
    """Record ``(envelope, copy)`` for every message manager delivery."""
    seen = []
    original = MessageManager.deliver_raw

    def recorded(self, envelope, msg=None):
        seen.append((self.local_id, envelope, msg))
        return original(self, envelope, msg)

    monkeypatch.setattr(MessageManager, "deliver_raw", recorded)
    return seen


def capture(site, msg_type):
    """Divert ``site``'s dispatch; returns the list of ``msg_type``
    messages it gets (others dispatch as usual)."""
    got = []
    dispatch = site.message_manager._dispatch

    def divert(msg):
        if msg.type is msg_type:
            got.append(msg)
        else:
            dispatch(msg)

    site.message_manager._dispatch = divert
    return got


def started(nsites, config=None):
    cluster = SimCluster(nsites=nsites, config=config)
    cluster.sim.run(until=0.2)
    return cluster


def status_msg(src, dst, payload):
    return SDMessage(
        type=MsgType.STATUS_QUERY,
        src_site=src.site_id, src_manager=ManagerId.SITE,
        dst_site=dst.site_id, dst_manager=ManagerId.SITE,
        payload=payload,
    )


class _Duplicator:
    """A chaos stand-in that delivers every message twice."""

    corrupts_wire = False

    def filter_send(self, src, dst):
        return [0.0, 1e-4]


def test_clean_run_never_decodes(decodes, deliveries, fast_config):
    cluster = SimCluster(nsites=4, config=fast_config)
    handle = cluster.submit(build_primes_program(),
                            args=(25, 5, 200.0, 2000.0))
    cluster.run(progress_timeout=120.0)
    assert handle.result == first_n_primes(25)
    assert len(deliveries) > 100
    assert all(msg is not None for _site, _env, msg in deliveries)
    assert decodes == []


def test_receiver_keeps_the_send_time_snapshot(fast_config):
    cluster = started(2, fast_config)
    a, b = cluster.sites
    got = capture(b, MsgType.STATUS_QUERY)
    msg = status_msg(a, b, {"items": [1, 2, 3], "nested": {"k": [4]}})
    assert a.message_manager.send(msg)
    # the sender reuses its objects after send; the wire already left
    msg.payload["items"].append(99)
    msg.payload["nested"]["k"].clear()
    msg.payload["late"] = True
    cluster.sim.run(until=0.5)
    assert len(got) == 1
    received = got[0]
    assert received is not msg
    assert received.payload == {"items": [1, 2, 3], "nested": {"k": [4]}}
    assert received.payload["items"] is not msg.payload["items"]
    assert received == SDMessage.decode(msg.encode())


def test_chaos_duplicates_are_distinct_objects(decodes, fast_config):
    cluster = started(2, fast_config)
    a, b = cluster.sites
    got = capture(b, MsgType.STATUS_QUERY)
    cluster.network.chaos = _Duplicator()
    assert a.message_manager.send(status_msg(a, b, {"items": [1, 2]}))
    cluster.sim.run(until=0.5)
    first, second = got
    assert first is not second
    assert first.payload["items"] is not second.payload["items"]
    assert first == second
    # the copy rides with the first delivery; each duplicate is decoded
    duplicated = cluster.network.stats.get("chaos_duplicated").count
    assert len(decodes) == duplicated >= 1


def test_undecodable_message_travels_without_a_copy(deliveries,
                                                     fast_config):
    cluster = started(2, fast_config)
    a, b = cluster.sites
    got = capture(b, MsgType.STATUS_QUERY)
    # encodes, but decodes to a set key, which is unhashable
    assert a.message_manager.send(
        status_msg(a, b, {"bad": {frozenset([1]): 0}}))
    cluster.sim.run(until=0.5)
    assert got == []
    assert b.message_manager.stats.get("malformed").count == 1
    assert [m for site, _env, m in deliveries
            if site == b.site_id and m is None]


def test_param_corruption_still_decodes_mangled_bytes(deliveries,
                                                      monkeypatch):
    mangled = []
    original = ChaosController.corrupt_wire

    def recorded(self, src, dst, data):
        result = original(self, src, dst, data)
        if result is not None:
            mangled.append(result)
        return result

    monkeypatch.setattr(ChaosController, "corrupt_wire", recorded)
    plan = FaultPlan(seed=3, nsites=4, name="param", faults=[
        CorruptFault(start=0.3, end=0.5, site=1, mode="param", prob=0.5)])
    result = run_plan(plan)
    kinds = [e.fields[0] for e in result.cluster.tracer.events
             if e.kind == "chaos_fault"]
    assert "corrupt_param" in kinds
    assert mangled
    copies = {id(env): msg for _site, env, msg in deliveries}
    for envelope in mangled:
        # a mangled envelope reaches the receiver without a copy, so the
        # flipped bits are what it decodes
        assert id(envelope) in copies
        assert copies[id(envelope)] is None


def test_security_on_completes_and_rejects_plaintext(deliveries):
    config = SDVMConfig(security=SecurityConfig(enabled=True))
    cluster = SimCluster(nsites=3, config=config)
    handle = cluster.submit(build_primes_program(),
                            args=(20, 4, 200.0, 2000.0))
    cluster.run(progress_timeout=120.0)
    assert handle.result == first_n_primes(20)
    assert deliveries and all(msg is not None
                              for _site, _env, msg in deliveries)

    a, b = cluster.sites[:2]
    got = capture(b, MsgType.STATUS_QUERY)
    msg = status_msg(a, b, {"forged": True})
    a.message_manager._assign_seq(msg)
    plain = SecurityLayer(local_addr=a.kernel.local_physical(),
                          enabled=False, cluster_password="").protect(
        b.kernel.local_physical(), msg.encode())
    rejected = b.message_manager.stats.get("rejected_envelopes").count
    # a copy alongside the bytes must not get past the security check
    cluster.network.send(int(a.kernel.local_physical()),
                         int(b.kernel.local_physical()), plain, msg)
    cluster.sim.run(until=cluster.sim.now + 0.5)
    assert got == []
    assert b.message_manager.stats.get(
        "rejected_envelopes").count == rejected + 1


def test_heir_forwarding_decodes_and_delivers(deliveries, fast_config):
    cluster = started(3, fast_config)
    a, b, c = cluster.sites
    b.forward_to = c.site_id
    got = capture(c, MsgType.APPLY_RESULT)
    msg = SDMessage(
        type=MsgType.APPLY_RESULT,
        src_site=a.site_id, src_manager=ManagerId.ATTRACTION_MEMORY,
        dst_site=b.site_id, dst_manager=ManagerId.ATTRACTION_MEMORY,
        payload={"addr": GlobalAddress(b.site_id, 1), "slot": 0,
                 "value": [42]},
    )
    a.message_manager.send(msg)
    cluster.sim.run(until=0.5)
    assert b.message_manager.stats.get("forwarded_to_heir").count == 1
    assert len(got) == 1
    assert got[0].payload["value"] == [42]
    assert got[0].src_site == a.site_id
    assert got[0].seq == msg.seq
    # the relayed hop carries bytes alone: c decodes them
    assert [m for site, _env, m in deliveries
            if site == c.site_id and m is None]
