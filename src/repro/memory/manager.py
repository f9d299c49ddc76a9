"""The attraction memory manager.

Object ownership is tracked by a **consistent-hash sharded directory**
(:mod:`repro.memory.directory`): every global address hashes to a
directory shard site, and the current owner publishes ownership changes
to that shard with a real ``DIR_UPDATE`` message — epoch-fenced against
post-recovery stragglers, version-fenced against reordered updates from
older hops of the ownership chain, acked and retried (re-resolving the
ring) so a crashed shard never swallows an update.  Remote reads do at
most one directory hop and then a direct owner fetch; nothing on the
lookup path broadcasts or scales with the cluster size.

Two access paths exist, matching DESIGN.md:

* **sim shortcut** (``sim_read``/``sim_write``): values resolve against the
  cluster-wide object oracle at execution start time; ownership migration,
  the DIR_UPDATE traffic, and the modelled directory-hop + transfer
  latencies are all real and feed the benchmarks.
* **message protocol** (MEM_READ / MEM_READ_REPLY / MEM_WRITE /
  MEM_LOCATION / DIR_UPDATE / DIR_ACK): the full COMA protocol used by the
  live runtime's blocking contexts, with directory-shard redirection.

Result application (APPLY_RESULT) is always message-based — it is what
drives dataflow timing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import FrameStateError, MemoryFault
from repro.common.ids import GlobalAddress, ManagerId
from repro.core.frames import Microframe
from repro.messages import MsgType, SDMessage, make_reply
from repro.serde import measured_size
from repro.site.manager_base import Manager


class AttractionMemory(Manager):
    manager_id = ManagerId.ATTRACTION_MEMORY

    #: DIR_UPDATE ack deadline and per-update retry budget; each retry
    #: re-resolves the shard ring, so an update outlives its shard's crash
    _DIR_TIMEOUT = 0.2
    _DIR_RETRIES = 4

    #: total redirect/re-resolve hops a live read may take before failing
    _READ_ATTEMPTS = 4

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        self._next_local = 1
        #: incomplete microframes waiting for parameters
        self.frames: Dict[GlobalAddress, Microframe] = {}
        #: results that arrived before their frame was registered
        self._pending_results: Dict[GlobalAddress, List[Tuple[int, Any]]] = {}
        #: program id of buffered results (so termination can clean up)
        self._pending_programs: Dict[GlobalAddress, int] = {}
        #: memory objects currently owned by this site
        self.objects: Dict[GlobalAddress, Any] = {}
        #: per-owned-object migration version; travels with the object and
        #: orders DIR_UPDATEs along the ownership chain
        self._versions: Dict[GlobalAddress, int] = {}
        #: directory shard entries this site is responsible for:
        #: address -> (owner, version, epoch)
        self.dir_entries: Dict[GlobalAddress, Tuple[int, int, int]] = {}
        # membership churn moves shard assignments: republish owned
        # objects and hand off entries this site no longer covers
        cm = site.cluster_manager
        cm.on_site_joined.append(self._on_membership_change)
        cm.on_site_departed.append(self._on_membership_change)

    # ------------------------------------------------------------------
    # address allocation

    def alloc_address(self) -> GlobalAddress:
        """Fresh global address homed at this site."""
        addr = GlobalAddress(self.local_id, self._next_local)
        self._next_local += 1
        return addr

    # ------------------------------------------------------------------
    # microframes

    def register_frame(self, frame: Microframe) -> None:
        """Adopt a newly created (or migrated-in) microframe."""
        self.kernel.cpu_charge(self.cost.frame_alloc_cost)
        self.stats.inc("frames_registered")
        pending = self._pending_results.pop(frame.frame_id, None)
        self._pending_programs.pop(frame.frame_id, None)
        if pending is not None:
            for slot, value in pending:
                frame.apply_parameter(slot, value)
        if frame.executable:
            self.site.scheduling_manager.enqueue_executable(frame)
        else:
            self.frames[frame.frame_id] = frame

    def apply_result(self, addr: GlobalAddress, slot: int, value: Any,
                     program: int) -> None:
        """Apply a microthread result to the frame at ``addr`` (local or
        remote — the paper's "writes results to incomplete microframes")."""
        frame = self.frames.get(addr)
        if frame is not None or addr.site == self.local_id:
            self._apply_local(addr, slot, value, program)
            return
        target = self.site.cluster_manager.effective_site(addr.site)
        if target == self.local_id:
            # we inherited the leaver's address space
            self._apply_local(addr, slot, value, program)
            return
        sent = self.site.message_manager.send(SDMessage(
            type=MsgType.APPLY_RESULT,
            src_site=self.local_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=target, dst_manager=ManagerId.ATTRACTION_MEMORY,
            program=program,
            payload={"addr": addr, "slot": slot, "value": value,
                     "epoch": self.site.epoch},
        ))
        if sent:
            self.stats.inc("results_sent")
        else:
            self.stats.inc("results_undeliverable")

    def _apply_local(self, addr: GlobalAddress, slot: int, value: Any,
                     program: int) -> None:
        self.kernel.cpu_charge(self.cost.result_apply_cost)
        frame = self.frames.get(addr)
        if frame is None:
            if not self.site.program_manager.is_active(program):
                self.stats.inc("results_dropped_terminated")
                return
            # frame not registered yet (live-mode race / relocation window):
            # buffer until it shows up
            self._pending_results.setdefault(addr, []).append((slot, value))
            self._pending_programs[addr] = program
            self.stats.inc("results_buffered")
            return
        try:
            became_executable = frame.apply_parameter(slot, value)
        except FrameStateError:
            # duplicate delivery: after a rollback recovery, restored
            # producers re-send results a restored consumer already holds
            # (at-least-once).  Slots are single-producer, so a duplicate
            # always carries the same value and is safe to drop.
            self.stats.inc("duplicate_results_dropped")
            return
        self.stats.inc("results_applied")
        if became_executable:
            del self.frames[addr]
            self.site.scheduling_manager.enqueue_executable(frame)

    def drop_program(self, pid: int) -> None:
        for addr in [a for a, f in self.frames.items() if f.program == pid]:
            del self.frames[addr]
        for addr in [a for a, p in self._pending_programs.items() if p == pid]:
            self._pending_results.pop(addr, None)
            del self._pending_programs[addr]

    # ------------------------------------------------------------------
    # the sharded ownership directory

    def dir_owner(self, addr: GlobalAddress) -> Optional[int]:
        """This shard's view of who owns ``addr`` (None: no entry)."""
        entry = self.dir_entries.get(addr)
        return None if entry is None else entry[0]

    def _apply_dir_entry(self, addr: GlobalAddress, owner: int,
                         version: int, epoch: int) -> None:
        """Last-writer-wins ordered by (epoch, version): a recovery rebase
        (higher epoch) always wins; within an epoch the ownership chain's
        version decides, so a reordered update from an older hop can never
        overwrite the newest owner."""
        entry = self.dir_entries.get(addr)
        if entry is None or (epoch, version) >= (entry[2], entry[1]):
            self.dir_entries[addr] = (owner, version, epoch)

    def _publish_dir(self, addr: GlobalAddress, attempt: int = 0) -> None:
        """Publish this site's ownership of ``addr`` to its shard."""
        version = self._versions.get(addr, 0)
        target = self.site.cluster_manager.dir_site_for(addr)
        if target == self.local_id:
            self._apply_dir_entry(addr, self.local_id, version,
                                  self.site.epoch)
            return
        self._send_dir_update(
            addr, self.local_id, version, target,
            on_timeout=lambda: self._dir_retry(addr, attempt))

    def _dir_retry(self, addr: GlobalAddress, attempt: int) -> None:
        if addr not in self.objects:
            return  # ownership moved on; the new owner publishes
        if attempt + 1 >= self._DIR_RETRIES:
            self.stats.inc("dir_updates_abandoned")
            return
        self.stats.inc("dir_update_retries")
        # re-resolves the ring, so a crashed shard re-homes the update
        self._publish_dir(addr, attempt + 1)

    def _send_dir_update(self, addr: GlobalAddress, owner: int, version: int,
                         target: int, epoch: Optional[int] = None,
                         on_timeout=None) -> None:  # noqa: ANN001
        msg = SDMessage(
            type=MsgType.DIR_UPDATE,
            src_site=self.local_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=target, dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={"addr": addr, "owner": owner, "version": version,
                     "epoch": self.site.epoch if epoch is None else epoch},
        )
        ok = self.site.message_manager.request(
            msg, on_reply=lambda reply: None, timeout=self._DIR_TIMEOUT,
            on_timeout=on_timeout or (lambda: None))
        if ok:
            self.stats.inc("dir_updates_sent")
        elif on_timeout is not None:
            on_timeout()  # unresolvable target: same path as a timeout

    def _on_dir_update(self, msg: SDMessage) -> None:
        payload = msg.payload
        if self._stale_epoch(payload):
            self.stats.inc("stale_dir_updates_dropped")
        else:
            self._apply_dir_entry(payload["addr"], payload["owner"],
                                  payload.get("version", 0),
                                  payload.get("epoch", self.site.epoch))
            self.stats.inc("dir_updates_applied")
        # always ack — even a fenced update must stop the sender's retries
        self.site.message_manager.send(make_reply(
            msg, MsgType.DIR_ACK, {"addr": payload["addr"]}))

    def _on_membership_change(self, _logical: int) -> None:
        """The directory ring changed: republish ownership of everything
        owned here (its shard may have moved) and hand off shard entries
        this site no longer covers.  O(owned + entries) per membership
        change — never per access — and a no-op on empty sites, so the
        bootstrap join storm costs nothing."""
        cm = self.site.cluster_manager
        for addr in list(self.objects):
            self._publish_dir(addr)
        if not self.dir_entries:
            return
        moved = [(addr, entry) for addr, entry in self.dir_entries.items()
                 if cm.dir_site_for(addr) != self.local_id]
        for addr, (owner, version, epoch) in moved:
            del self.dir_entries[addr]
            self.stats.inc("dir_entries_handed_off")
            self._send_dir_update(addr, owner, version,
                                  cm.dir_site_for(addr),
                                  epoch=max(epoch, self.site.epoch))

    # ------------------------------------------------------------------
    # memory objects — sim shortcut path

    def alloc_object(self, value: Any) -> GlobalAddress:
        addr = self.alloc_address()
        self.objects[addr] = value
        self._versions[addr] = 0
        shared = getattr(self.kernel, "shared", None)
        if shared is not None:
            shared.objects[addr.pack()] = (self.local_id, value, 0)
        self.stats.inc("objects_allocated")
        self._publish_dir(addr)
        return addr

    def sim_read(self, addr: GlobalAddress) -> Tuple[Any, float]:
        """Resolve a read; returns (value, modelled wait seconds).

        A remote hit *attracts* the object: ownership migrates here, the
        new owner publishes a DIR_UPDATE to the address's shard, and the
        modelled cost (directory hop if the shard is a third site, then
        the object transfer at link bandwidth) is charged as wait time.
        """
        if addr in self.objects:
            self.stats.inc("reads_local")
            return self.objects[addr], 0.0
        shared = self.kernel.shared
        entry = shared.objects.get(addr.pack())
        if entry is None:
            raise MemoryFault(f"read of unknown global address {addr}")
        owner, value, version = entry
        self.stats.inc("reads_remote")
        latency = self._migration_latency(addr, owner, value)
        self._migrate_in(addr, owner, value, version)
        return value, latency

    def sim_write(self, addr: GlobalAddress, value: Any) -> float:
        """Apply a write effect; returns modelled wait seconds (0 if local)."""
        if addr in self.objects:
            self.objects[addr] = value
            self.kernel.shared.objects[addr.pack()] = (
                self.local_id, value, self._versions.get(addr, 0))
            self.stats.inc("writes_local")
            return 0.0
        shared = self.kernel.shared
        entry = shared.objects.get(addr.pack())
        if entry is None:
            raise MemoryFault(f"write to unknown global address {addr}")
        owner, _old, version = entry
        # write-migrate: attract the object, then write locally (COMA)
        latency = self._migration_latency(addr, owner, _old)
        self._migrate_in(addr, owner, _old, version)
        self.objects[addr] = value
        shared.objects[addr.pack()] = (self.local_id, value,
                                       self._versions.get(addr, 0))
        self.stats.inc("writes_migrated")
        return latency

    def _migration_latency(self, addr: GlobalAddress, owner: int,
                           value: Any) -> float:
        """Modelled read-migration cost: requester -> directory shard
        (skipped when the shard is the requester), shard -> owner forward
        (skipped when the shard *is* the owner), owner -> requester with
        the object payload."""
        network = self.kernel.shared.network
        my_phys = int(self.kernel.local_physical())
        cm = self.site.cluster_manager
        owner_rec = cm.sites.get(owner)
        if owner_rec is None:
            return 2.0 * network.config.latency
        owner_phys = int(owner_rec.physical)
        total = 0.0
        dir_site = cm.dir_site_for(addr)
        if dir_site == self.local_id:
            total += network.transit_delay(my_phys, owner_phys, 64)
        else:
            dir_rec = cm.sites.get(dir_site)
            dir_phys = (int(dir_rec.physical) if dir_rec is not None
                        else owner_phys)
            total += network.transit_delay(my_phys, dir_phys, 64)
            if dir_site != owner:
                total += network.transit_delay(dir_phys, owner_phys, 64)
        total += network.transit_delay(owner_phys, my_phys,
                                       64 + measured_size(value))
        return total

    def _migrate_in(self, addr: GlobalAddress, owner: int,
                    value: Any, version: int) -> None:
        shared = self.kernel.shared
        owner_site = shared.sites.get(owner)
        if owner_site is not None:
            # sim shortcut: the owner-side pop is synchronous because
            # sim_read resolves value and ownership at its linearization
            # point; the *directory* update below is a real DIR_UPDATE
            # message to the shard — never a cross-site dict mutation
            owner_site.attraction_memory.objects.pop(addr, None)
            owner_site.attraction_memory._versions.pop(addr, None)
        self.objects[addr] = value
        self._versions[addr] = version + 1
        shared.objects[addr.pack()] = (self.local_id, value, version + 1)
        self.stats.inc("migrations_in")
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "mem_migrate_in",
                    addr.pack(), owner)
        self._publish_dir(addr)

    # ------------------------------------------------------------------
    # memory objects — message protocol (live kernel path)

    def live_read(self, addr: GlobalAddress, cb,  # noqa: ANN001
                  _attempt: int = 0) -> None:
        """Resolve a read via the COMA message protocol (blocking contexts).

        ``cb(value)`` on success; ``cb(None, error)`` on failure.  The
        read resolves through the address's directory shard (at most one
        hop), then fetches from the owner; the owner ships the object with
        ownership and the new owner publishes the DIR_UPDATE.
        """
        if addr in self.objects:
            self.stats.inc("reads_local")
            cb(self.objects[addr])
            return
        cm = self.site.cluster_manager
        target = cm.dir_site_for(addr)
        if target == self.local_id:
            owner = self.dir_owner(addr)
            if owner is None or owner == self.local_id:
                # no entry yet: an ownership handoff or shard rebalance is
                # in flight — re-resolve after a short delay, bounded
                self._read_unresolved(addr, cb, _attempt)
                return
            target = owner
        self._live_read_at(addr, target, cb, attempt=_attempt)

    def _read_unresolved(self, addr: GlobalAddress, cb,  # noqa: ANN001
                         attempt: int) -> None:
        if attempt >= self._READ_ATTEMPTS:
            cb(None, MemoryFault(f"read of unknown address {addr}"))
            return
        self.stats.inc("dir_miss_retries")
        delay = 4.0 * self.config.network.latency * (attempt + 1)
        self.kernel.call_later(
            delay, lambda: self.live_read(addr, cb, _attempt=attempt + 1))

    def _live_read_at(self, addr: GlobalAddress, target: int, cb,  # noqa: ANN001
                      attempt: int) -> None:
        if attempt > self._READ_ATTEMPTS:
            cb(None, MemoryFault(f"read of {addr}: too many redirects"))
            return
        msg = SDMessage(
            type=MsgType.MEM_READ,
            src_site=self.local_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=target, dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={"addr": addr, "migrate": True},
        )
        self.stats.inc("reads_remote")

        def on_reply(reply: SDMessage) -> None:
            if reply.type == MsgType.MEM_READ_REPLY:
                value = reply.payload["value"]
                if reply.payload.get("owned"):
                    self._adopt_remote_object(
                        addr, value, reply.payload.get("version", 0),
                        reply.src_site)
                cb(value)
            elif reply.type == MsgType.MEM_LOCATION:
                self._live_read_at(addr, reply.payload["owner"], cb,
                                   attempt + 1)
            else:
                # MEM_NOT_FOUND: the owner-side handoff window — the old
                # owner already shipped the object, the new owner's
                # DIR_UPDATE is still in flight.  Re-resolve, bounded.
                self._read_unresolved(addr, cb, attempt)

        ok = self.site.message_manager.request(
            msg, on_reply, timeout=2.0,
            on_timeout=lambda: self._read_unresolved(addr, cb, attempt))
        if not ok:
            # target unreachable (crashed shard/owner): the ring re-hashes
            # once membership catches up — re-resolve instead of failing
            self._read_unresolved(addr, cb, attempt)

    def _adopt_remote_object(self, addr: GlobalAddress, value: Any,
                             version: int, src: int) -> None:
        """Ownership arrived with a MEM_READ_REPLY: own it, bump the
        migration version, and publish the new location."""
        self.objects[addr] = value
        self._versions[addr] = version + 1
        shared = getattr(self.kernel, "shared", None)
        if shared is not None:
            shared.objects[addr.pack()] = (self.local_id, value, version + 1)
        self.stats.inc("migrations_in")
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "mem_migrate_in",
                    addr.pack(), src)
        self._publish_dir(addr)

    def apply_write(self, addr: GlobalAddress, value: Any) -> float:
        """Mode-dispatched write: sim shortcut or live message protocol."""
        if self.kernel.mode == "sim":
            return self.sim_write(addr, value)
        if addr in self.objects:
            self.objects[addr] = value
            self.stats.inc("writes_local")
            return 0.0
        target = self.site.cluster_manager.dir_site_for(addr)
        self.site.message_manager.send(SDMessage(
            type=MsgType.MEM_WRITE,
            src_site=self.local_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=target, dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={"addr": addr, "value": value},
        ))
        self.stats.inc("writes_sent")
        return 0.0

    def handle(self, msg: SDMessage) -> None:
        if msg.type == MsgType.APPLY_RESULT:
            payload = msg.payload
            if self._stale_epoch(payload):
                # in-flight result from a rolled-back epoch: the replay
                # re-produces it, and applying the stale copy would
                # contaminate a restored frame with pre-recovery state
                # (e.g. frame addresses that will never be allocated again)
                self.stats.inc("stale_results_dropped")
                return
            self._apply_local(payload["addr"], payload["slot"],
                              payload["value"], msg.program)
        elif msg.type == MsgType.FRAME_TRANSFER:
            self._on_frame_transfer(msg)
        elif msg.type == MsgType.MEM_READ:
            self._on_mem_read(msg)
        elif msg.type == MsgType.MEM_WRITE:
            self._on_mem_write(msg)
        elif msg.type == MsgType.DIR_UPDATE:
            self._on_dir_update(msg)
        elif msg.type == MsgType.DIR_ACK:
            # late ack after a timed-out update: the retry re-published
            self.stats.inc("late_dir_acks")
        elif msg.type == MsgType.MEM_READ_REPLY:
            # late reply after a timed-out read: if it shipped ownership,
            # adopt the object — dropping it would lose data
            if msg.payload.get("owned"):
                self._adopt_remote_object(
                    msg.payload["addr"], msg.payload["value"],
                    msg.payload.get("version", 0), msg.src_site)
        elif msg.type in (MsgType.MEM_LOCATION, MsgType.MEM_NOT_FOUND):
            self.stats.inc("late_replies_ignored")
        elif msg.type == MsgType.MEM_OBJECT:
            self._on_bulk_adopt(msg)
        else:
            super().handle(msg)

    def _stale_epoch(self, payload: dict) -> bool:
        """True when a dataflow payload was stamped before the last rollback
        recovery.  Stale deliveries are dropped — the checkpoint already
        restored their content, and the replay re-sends anything in flight.
        Unstamped payloads (relocation, pre-epoch senders) pass through.
        """
        return payload.get("epoch", self.site.epoch) < self.site.epoch

    def _on_frame_transfer(self, msg: SDMessage) -> None:
        if self._stale_epoch(msg.payload):
            self.stats.inc("stale_frames_dropped")
            return
        for info_wire in msg.payload.get("program_infos", ()):
            self.site.program_manager.learn_program_wire(info_wire)
        info_wire = msg.payload.get("program_info")
        if info_wire is not None:
            self.site.program_manager.learn_program_wire(info_wire)
        # proactive pushes batch several frames into one transfer;
        # relocation (sign-off) still sends one frame per message
        wires = msg.payload.get("frames")
        if wires is None:
            wires = [msg.payload["frame"]]
        tr = self.tracer
        for wire in wires:
            frame = Microframe.from_wire(wire)
            self.stats.inc("frames_adopted")
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "frame_adopted",
                        frame.frame_id.pack(), msg.src_site)
            self.register_frame(frame)

    def _on_mem_read(self, msg: SDMessage) -> None:
        addr = msg.payload["addr"]
        migrate = msg.payload.get("migrate", True)
        if addr in self.objects:
            value = self.objects[addr]
            version = self._versions.get(addr, 0)
            if migrate:
                # ownership ships with the reply; the *requester* publishes
                # the DIR_UPDATE once it has adopted the object
                del self.objects[addr]
                self._versions.pop(addr, None)
            self.site.message_manager.send(make_reply(
                msg, MsgType.MEM_READ_REPLY,
                {"addr": addr, "value": value, "owned": migrate,
                 "version": version}))
            self.stats.inc("reads_served")
            return
        owner = self.dir_owner(addr)
        if owner is not None and owner != self.local_id:
            self.site.message_manager.send(make_reply(
                msg, MsgType.MEM_LOCATION, {"addr": addr, "owner": owner}))
            self.stats.inc("redirects_served")
            return
        self.site.message_manager.send(make_reply(
            msg, MsgType.MEM_NOT_FOUND, {"addr": addr}))

    def _on_mem_write(self, msg: SDMessage) -> None:
        addr = msg.payload["addr"]
        if addr in self.objects:
            self.objects[addr] = msg.payload["value"]
            shared = getattr(self.kernel, "shared", None)
            if shared is not None:
                shared.objects[addr.pack()] = (
                    self.local_id, msg.payload["value"],
                    self._versions.get(addr, 0))
            self.stats.inc("writes_served")
            return
        hops = int(msg.payload.get("hops", 0))
        if hops >= 3:
            # the owner is moving faster than the directory converges;
            # dropping beats forwarding forever
            self.stats.inc("writes_undeliverable")
            return
        owner = self.dir_owner(addr)
        if owner is None:
            dir_site = self.site.cluster_manager.dir_site_for(addr)
            owner = dir_site if dir_site != self.local_id else None
        if owner is None or owner == self.local_id:
            self.stats.inc("writes_undeliverable")
            return
        payload = dict(msg.payload)
        payload["hops"] = hops + 1
        self.site.message_manager.send(SDMessage(
            type=MsgType.MEM_WRITE,
            src_site=self.local_id,
            src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=owner, dst_manager=ManagerId.ATTRACTION_MEMORY,
            program=msg.program,
            payload=payload,
        ))

    # ------------------------------------------------------------------
    # relocation (orderly sign-off, §3.4) and adoption

    def export_state(self) -> dict:
        """Serialize everything this site holds, for relocation to an heir.

        "All microframes and the local part of the global memory have to be
        relocated to other sites before shutdown" (§3.4).
        """
        sched_frames = self.site.scheduling_manager.export_frames()
        return {
            "frames": [f.to_wire() for f in self.frames.values()]
                      + [f.to_wire() for f in sched_frames],
            "objects": [(addr, value, self._versions.get(addr, 0))
                        for addr, value in self.objects.items()],
            "dir": [(addr, owner, version, epoch)
                    for addr, (owner, version, epoch)
                    in self.dir_entries.items()],
            "pending": [(addr, slot, value, self._pending_programs.get(addr, -1))
                        for addr, pairs in self._pending_results.items()
                        for slot, value in pairs],
            "programs": self.site.program_manager.known_programs_wire(),
        }

    def export_checkpoint(self) -> dict:
        """Non-draining snapshot for a checkpoint wave (queues stay put)."""
        sched_frames = self.site.scheduling_manager.snapshot_frames()
        return {
            "frames": [f.to_wire() for f in self.frames.values()]
                      + [f.to_wire() for f in sched_frames],
            "objects": [(addr, value, self._versions.get(addr, 0))
                        for addr, value in self.objects.items()],
            "dir": [(addr, owner, version, epoch)
                    for addr, (owner, version, epoch)
                    in self.dir_entries.items()],
            "pending": [(addr, slot, value, self._pending_programs.get(addr, -1))
                        for addr, pairs in self._pending_results.items()
                        for slot, value in pairs],
            "programs": self.site.program_manager.known_programs_wire(),
        }

    def reset_program_state(self) -> None:
        """Drop all dataflow state prior to recovery adoption.

        Memory objects and directory entries are cleared too: the snapshot
        shards re-own every checkpointed object, and a survivor keeping a
        post-checkpoint copy would fork ownership with the restored one
        (two sites holding the same attraction line).  Post-checkpoint
        allocations roll back with the frames that made them.
        """
        self.frames.clear()
        self._pending_results.clear()
        self._pending_programs.clear()
        shared = getattr(self.kernel, "shared", None)
        if shared is not None:
            for addr in self.objects:
                entry = shared.objects.get(addr.pack())
                if entry is not None and entry[0] == self.local_id:
                    del shared.objects[addr.pack()]
        self.objects.clear()
        self._versions.clear()
        self.dir_entries.clear()

    def send_state_to_heir(self, heir: int) -> None:
        self.site.message_manager.send(SDMessage(
            type=MsgType.MEM_OBJECT,
            src_site=self.local_id, src_manager=ManagerId.ATTRACTION_MEMORY,
            dst_site=heir, dst_manager=ManagerId.ATTRACTION_MEMORY,
            payload={"state": self.export_state(), "from": self.local_id},
        ))

    def _on_bulk_adopt(self, msg: SDMessage) -> None:
        self.adopt_state(msg.payload["state"])
        self.stats.inc("relocations_adopted")

    def adopt_state(self, state: dict) -> None:
        """Adopt a departed/recovered site's frames, objects, directory.

        Every adopted object is re-owned here with a bumped version and
        republished to its *current* ring shard; adopted directory entries
        whose shard is no longer this site are forwarded — this is how the
        directory is rehomed by the existing recovery/relocation waves.
        """
        self.site.program_manager.learn_programs_wire(state.get("programs", []))
        shared = getattr(self.kernel, "shared", None)
        for addr, value, version in state.get("objects", []):
            self.objects[addr] = value
            self._versions[addr] = version + 1
            if shared is not None:
                shared.objects[addr.pack()] = (self.local_id, value,
                                               version + 1)
            self._publish_dir(addr)
        cm = self.site.cluster_manager
        for addr, owner, version, epoch in state.get("dir", []):
            if addr in self.objects:
                continue  # re-owned above; a fresh entry was published
            entry_epoch = max(epoch, self.site.epoch)
            target = cm.dir_site_for(addr)
            if target == self.local_id:
                self._apply_dir_entry(addr, owner, version, entry_epoch)
            else:
                self._send_dir_update(addr, owner, version, target,
                                      epoch=entry_epoch)
        for addr, slot, value, program in state.get("pending", []):
            self._pending_results.setdefault(addr, []).append((slot, value))
            if program >= 0:
                self._pending_programs[addr] = program
        for wire in state.get("frames", []):
            frame = Microframe.from_wire(wire)
            if self.site.program_manager.is_active(frame.program):
                self.register_frame(frame)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        base = super().status()
        base["incomplete_frames"] = len(self.frames)
        base["objects_owned"] = len(self.objects)
        base["dir_entries"] = len(self.dir_entries)
        return base
