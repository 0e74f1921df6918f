"""Service definitions, stubs, and introspection codegen.

Plays the role of protoc's gRPC plugin output (``*_pb2_grpc.py`` /
``.grpc.pb.cc``): client stub classes with one method per RPC, servicer
dispatch tables, and — for the offload path — the deterministic
procedure-ID assignment the paper's "introspection code" generates
(§V-D: "mapping procedure IDs to the service's callback function").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.proto import Message, MessageFactory
from repro.proto.descriptor import MethodDescriptor, ServiceDescriptor

__all__ = [
    "ServiceError",
    "method_path",
    "assign_method_ids",
    "MethodBinding",
    "build_dispatch_table",
    "make_stub_class",
]


class ServiceError(RuntimeError):
    """Service registration/dispatch failure."""


def method_path(service: ServiceDescriptor, method: MethodDescriptor) -> str:
    """gRPC-style full method path: ``/pkg.Service/Method``."""
    return f"/{service.full_name}/{method.name}"


def assign_method_ids(service: ServiceDescriptor, base: int = 1) -> dict[str, int]:
    """Deterministic procedure IDs, identical wherever they are computed
    (host compatibility layer and DPU front end independently derive the
    same table from the same service definition)."""
    return {
        method_path(service, m): base + i
        for i, m in enumerate(sorted(service.methods, key=lambda m: m.name))
    }


@dataclass(frozen=True)
class MethodBinding:
    """One resolved RPC method: descriptors plus the servicer callable."""

    path: str
    method: MethodDescriptor
    handler: Callable[[Any, Any], Message]  # (request, context) -> response


def build_dispatch_table(
    service: ServiceDescriptor, servicer: object
) -> dict[str, MethodBinding]:
    """Bind a servicer object (one attribute per RPC name) to the service
    definition; raises if a method implementation is missing.  Either
    server calls the bound handler with the request (parsed message or
    zero-copy view): it passes the servicer no context — "we use a null
    pointer for simplicity" (§V-D) — and holds it to the declared
    response type, so no server can send a foreign type's bytes."""
    table: dict[str, MethodBinding] = {}
    for m in service.methods:
        method = getattr(servicer, m.name, None)
        if method is None or not callable(method):
            raise ServiceError(
                f"servicer {type(servicer).__name__} does not implement {m.name!r}"
            )
        path = method_path(service, m)

        def handler(request, _context=None, method=method, path=path,
                    expected=m.output_type.full_name):
            response = method(request, None)
            if not isinstance(response, Message) or response.DESCRIPTOR.full_name != expected:
                raise ServiceError(
                    f"{path}: servicer returned {type(response).__name__}, not {expected}"
                )
            return response

        table[path] = MethodBinding(path, m, handler)
    return table


def make_stub_class(service: ServiceDescriptor, factory: MessageFactory) -> type:
    """Generate a client stub class for ``service``.

    The stub mirrors generated gRPC stubs: construct with a channel, then
    ``stub.Method(request)`` (synchronous, drives the channel's event
    loop) or ``stub.Method.future(request, callback)`` (continuation
    style, §III-D).
    """

    class _BoundMethod:
        def __init__(self, channel, method: MethodDescriptor, path: str) -> None:
            self._channel = channel
            self._method = method
            self._path = path
            self._response_cls = factory.get_class(method.output_type)

        def __call__(self, request: Message):
            self._check(request)
            return self._channel.call_sync(self._path, request, self._response_cls)

        def future(self, request: Message, callback) -> None:
            self._check(request)
            self._channel.call(self._path, request, self._response_cls, callback)

        def _check(self, request: Message) -> None:
            expected = self._method.input_type.full_name
            got = getattr(getattr(request, "DESCRIPTOR", None), "full_name", None)
            if got != expected:
                raise ServiceError(
                    f"{self._path}: expected {expected}, got {got or type(request).__name__}"
                )

    namespace: dict[str, Any] = {"__doc__": f"Generated stub for {service.full_name}."}

    def make_init():
        def __init__(self, channel) -> None:
            self._channel = channel
            for m in service.methods:
                setattr(
                    self, m.name, _BoundMethod(channel, m, method_path(service, m))
                )

        return __init__

    namespace["__init__"] = make_init()
    return type(f"{service.name}Stub", (), namespace)
