"""SDVM wire serialization.

The paper's message manager assembles and serializes *SDMessages* (§4,
Fig. 6) before handing them to the security and network managers as byte
streams.  This package implements that substrate from scratch:

* :mod:`repro.serde.codec` — a compact, self-describing binary encoding for
  the value types microthreads and managers exchange (ints, floats, strings,
  bytes, containers, global addresses, file handles), and ``clone``, a
  copy equal to a round trip through it.
* :mod:`repro.serde.framing` — length-prefixed message framing for stream
  transports (TCP), with incremental feed/decode for real sockets.
"""

from repro.serde.codec import clone, dumps, loads, measured_size
from repro.serde.framing import frame, FrameDecoder, MAX_FRAME_SIZE

__all__ = ["clone", "dumps", "loads", "measured_size", "frame",
           "FrameDecoder", "MAX_FRAME_SIZE"]
