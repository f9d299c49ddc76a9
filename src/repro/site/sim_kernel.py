"""The simulation kernel: one per simulated site, over a shared SimNetwork.

:class:`SharedSimState` also carries the two deliberate sim-only shortcuts
documented in DESIGN.md: the global object directory the attraction memory
resolves reads against (values as of execution start, latency charged), and
the cluster-wide virtual filesystem behind the I/O manager.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.ids import GlobalAddress
from repro.net.simnet import SimNetwork
from repro.sim.engine import Event, Simulator
from repro.site.kernel import CpuModel, Kernel


class SharedSimState:
    """State shared by every simulated site in one cluster run."""

    def __init__(self, sim: Simulator, network: SimNetwork) -> None:
        self.sim = sim
        self.network = network
        #: global-object oracle: packed address -> (owner, value, version).
        #: Sim-only shortcut for the attraction-memory *read* path; the
        #: migration/ownership bookkeeping, the DIR_UPDATE traffic to the
        #: sharded directory, and the latency costs are all real.
        self.objects: Dict[int, Tuple[int, Any, int]] = {}
        #: cluster-wide virtual filesystem: path -> bytearray
        self.vfs: Dict[str, bytearray] = {}
        #: logical site id -> SDVMSite, for facade inspection only
        self.sites: Dict[int, Any] = {}

    def alive_peers(self, *exclude: int) -> list:
        """Sorted logical ids of running sites outside ``exclude``.

        Used by the SDC defense to place shadow executions: the sorted
        order makes buddy selection a pure function of membership, so a
        replicated run replays bit-identically.
        """
        return sorted(i for i in self.sites if i not in exclude)


class SimKernel(Kernel):
    """Kernel backed by the discrete-event simulator."""

    mode = "sim"

    def __init__(self, shared: SharedSimState, physical: int,
                 speed: float, seed: int = 0,
                 tracer: Optional[Any] = None) -> None:
        self.shared = shared
        self.sim = shared.sim
        self.cpu = CpuModel(shared.sim, speed)
        self.tracer = tracer
        self._physical = physical
        self.rng = random.Random((seed << 16) ^ physical ^ 0x5DF1)
        self._endpoint: Optional[Any] = None
        self._receiver: Optional[Callable[..., None]] = None
        self._closed = False

    # ------------------------------------------------------------------
    def attach_receiver(self, receiver: Callable[..., None]) -> None:
        """Connect this kernel to the shared network (done by the daemon)."""
        self._receiver = receiver
        self._endpoint = self.shared.network.endpoint(self._physical, receiver)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> Event:
        return self.sim.schedule(delay, fn, *args)

    def cancel(self, handle: Any) -> None:
        if isinstance(handle, Event):
            handle.cancel()

    def post(self, fn: Callable[..., None], *args: Any) -> None:
        self.sim.schedule(0.0, fn, *args)

    def cpu_charge(self, seconds: float) -> None:
        self.cpu.charge(seconds)

    def cpu_run(self, seconds: float, fn: Callable[..., None],
                *args: Any) -> None:
        self.cpu.run(seconds, fn, *args)

    def transport_send(self, dst_physical: str, data: bytes,
                       msg: Optional[Any] = None) -> bool:
        if self._closed:
            return False
        return self.shared.network.send(self._physical, int(dst_physical),
                                        data, msg)

    def local_physical(self) -> str:
        return str(self._physical)

    def shutdown(self) -> None:
        self._closed = True
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
