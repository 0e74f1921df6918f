"""Deserialization offload layer (paper §V).

* :mod:`repro.offload.adt` — the Accelerator Description Table and the
  host-side :class:`TypeUniverse` that materializes vtables and default
  instances.
* :mod:`repro.offload.arena_deserializer` — the DPU's custom deserializer
  that decodes protobuf wire bytes straight into host-ABI C++ objects in
  an arena.
* :mod:`repro.offload.arena_gen` — generated per-ADT-entry decoders, the
  deserializer's default tier (see docs/DECODER.md).
* :mod:`repro.offload.materialize` — host-side zero-copy views and the
  eager converter used for verification.
* :mod:`repro.offload.engine` — the DPU offload engine and host engine
  wiring the deserializer into the RPC-over-RDMA datapath.
"""

from .adt import (
    GLOBALS_BASE,
    Adt,
    AdtEntry,
    AdtError,
    AdtField,
    TypeUniverse,
    decode_adt,
    encode_adt,
)
from .arena_deserializer import ArenaDeserializer, DeserializeError, DeserializeStats
from .arena_gen import ArenaGenCache
from .engine import (
    DpuEngine,
    EngineCrashedError,
    HostEngine,
    OffloadPair,
    create_offload_pair,
)
from .materialize import CppMessageView, read_message, verify_object

__all__ = [
    "GLOBALS_BASE",
    "Adt",
    "AdtEntry",
    "AdtError",
    "AdtField",
    "TypeUniverse",
    "decode_adt",
    "encode_adt",
    "ArenaDeserializer",
    "ArenaGenCache",
    "DeserializeError",
    "DeserializeStats",
    "CppMessageView",
    "read_message",
    "verify_object",
    "DpuEngine",
    "EngineCrashedError",
    "HostEngine",
    "OffloadPair",
    "create_offload_pair",
]
