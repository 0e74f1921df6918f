"""The paper's primary contribution: the RPC-over-RDMA protocol.

Block-based wire format with Nagle-style batching (§IV), credit-based
congestion control (§IV-C), implicit acknowledgment and memory recycling
(§IV-B), deterministic request-ID synchronization (§IV-D), and the
client/server endpoints with callback/continuation APIs (§III-D).
"""

from .channel import AddressPlanner, Channel, RpcServer, create_channel
from .config import CLIENT_DEFAULTS, SERVER_DEFAULTS, ProtocolConfig
from .credits import CreditError, CreditManager
from .endpoint import (
    ClientEndpoint,
    EndpointStats,
    IncomingRequest,
    ProtocolError,
    Response,
    ServerEndpoint,
    TransportError,
)
from .idpool import IdPoolError, RequestIdPool
from .recovery import ChannelRecovery, RecoveryError, RecoveryReport, supervise_channel
from .wire import (
    HEADER_SIZE,
    PAYLOAD_ALIGN,
    PREAMBLE_SIZE,
    BlockFormatError,
    BlockReader,
    BlockWriter,
    ChecksumError,
    Flags,
    MessageHeader,
    Preamble,
    bucket_to_offset,
    compute_block_checksum,
    offset_to_bucket,
)

__all__ = [
    "AddressPlanner",
    "Channel",
    "RpcServer",
    "create_channel",
    "CLIENT_DEFAULTS",
    "SERVER_DEFAULTS",
    "ProtocolConfig",
    "CreditError",
    "CreditManager",
    "ClientEndpoint",
    "EndpointStats",
    "IncomingRequest",
    "ProtocolError",
    "Response",
    "ServerEndpoint",
    "TransportError",
    "IdPoolError",
    "RequestIdPool",
    "ChannelRecovery",
    "RecoveryError",
    "RecoveryReport",
    "supervise_channel",
    "HEADER_SIZE",
    "PAYLOAD_ALIGN",
    "PREAMBLE_SIZE",
    "BlockFormatError",
    "BlockReader",
    "BlockWriter",
    "ChecksumError",
    "Flags",
    "MessageHeader",
    "Preamble",
    "bucket_to_offset",
    "compute_block_checksum",
    "offset_to_bucket",
]
