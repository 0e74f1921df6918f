"""Tests for the DPU/host offload engines and the bootstrap handshake."""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abi import AbiConfig, StdLib
from repro.memory import AddressSpace
from repro.offload import TypeUniverse, create_offload_pair
from repro.offload.adt import AdtError
from repro.offload.engine import MethodSpec, decode_bootstrap, encode_bootstrap
from repro.proto import FieldType, compile_schema, parse, serialize
from tests.conftest import KITCHEN_SINK_PROTO

SCHEMA_SRC = """
syntax = "proto3";
package app;
message Query { string term = 1; uint32 limit = 2; repeated uint32 shard_ids = 3; }
message Result { repeated string hits = 1; uint32 total = 2; }
message StatsReq { repeated uint64 samples = 1; }
message StatsRsp { double mean = 1; }
"""


@pytest.fixture
def schema():
    return compile_schema(SCHEMA_SRC)


def make_pair(schema):
    Result, StatsRsp = schema["app.Result"], schema["app.StatsRsp"]
    calls = []

    def search(view, request):
        calls.append(("search", view.term, view.limit, view.shard_ids))
        return Result(hits=[f"hit-{view.term}-{i}" for i in range(view.limit)], total=view.limit)

    def stats(view, request):
        samples = view.samples
        calls.append(("stats", len(samples)))
        mean = sum(samples) / len(samples) if samples else 0.0
        return StatsRsp(mean=mean)

    pair = create_offload_pair(
        schema, [(1, "app.Query", search), (2, "app.StatsReq", stats)]
    )
    return pair, calls


class TestBootstrapHandshake:
    def test_bootstrap_installs_adt_and_methods(self, schema):
        pair, _ = make_pair(schema)
        assert pair.dpu.adt is not None
        assert set(pair.dpu.method_table) == {1, 2}
        entry = pair.dpu.adt.entry(pair.dpu.method_table[1])
        assert entry.full_name == "app.Query"

    def test_bootstrap_blob_roundtrip(self, schema):
        pair, _ = make_pair(schema)
        blob = pair.host.bootstrap_bytes()
        adt, table, names = decode_bootstrap(blob)
        assert adt.entries[table[2]].full_name == "app.StatsReq"
        assert names[1] == "m1"

    def test_incompatible_abis_rejected_at_startup(self, schema):
        def cb(view, request):
            return b""

        with pytest.raises(RuntimeError, match="not binary-compatible"):
            create_offload_pair(
                schema,
                [(1, "app.Query", cb)],
                dpu_abi=AbiConfig(stdlib=StdLib.LIBCXX),
                host_abi=AbiConfig(stdlib=StdLib.LIBSTDCXX),
            )

    def test_call_before_bootstrap_rejected(self, schema):
        from repro.core import create_channel
        from repro.offload import DpuEngine
        from repro.offload.adt import AdtError

        dpu = DpuEngine(create_channel())
        with pytest.raises(AdtError, match="bootstrap"):
            dpu.call(1, b"", lambda v, f: None)


def _real_blob() -> bytes:
    """A bootstrap blob with nested message fields: two methods over the
    kitchen-sink schema, as ``HostEngine.bootstrap_bytes`` writes it."""
    schema = compile_schema(KITCHEN_SINK_PROTO)
    adt = TypeUniverse(AddressSpace("host")).build_adt(
        [schema.pool.message("test.Everything"), schema.pool.message("test.Leaf")])
    return encode_bootstrap(adt, [MethodSpec(1, "/t/Everything", "test.Everything"),
                                  MethodSpec(2, "/t/Leaf", "test.Leaf")])


BLOB = _real_blob()
#: CI's fault-matrix job widens the search and seeds it (--hypothesis-seed);
#: tier-1 runs the same 200 examples every time.
_EXAMPLES = int(os.environ.get("BOOTSTRAP_EXAMPLES", "0"))


def _assert_in_range(decoded) -> None:
    adt, table, _ = decoded
    n = len(adt.entries)
    assert all(0 <= index < n for index in table.values())
    for entry in adt.entries:
        for f in entry.fields:
            assert 0 <= f.child < n if f.kind is FieldType.MESSAGE else f.child == -1


class TestHostileBootstrap:
    """The DPU indexes its ADT with the blob's numbers unchecked, so the
    decoder answers any blob with a table whose indices are in range or
    with AdtError — never an IndexError, struct.error or
    UnicodeDecodeError, never a quiet −1."""

    def test_every_truncation_is_refused(self):
        _assert_in_range(decode_bootstrap(BLOB))
        for cut in range(len(BLOB)):
            with pytest.raises(AdtError):
                decode_bootstrap(BLOB[:cut])

    @settings(max_examples=_EXAMPLES or 200, derandomize=not _EXAMPLES, deadline=None)
    @given(cut=st.one_of(st.just(len(BLOB)), st.integers(0, len(BLOB))),
           flips=st.lists(st.tuples(st.integers(0, len(BLOB) - 1), st.integers(1, 255)),
                          max_size=4))
    def test_any_blob_gives_a_table_in_range_or_adt_error(self, cut, flips):
        blob = bytearray(BLOB)
        for at, mask in flips:
            blob[at] ^= mask
        try:
            decoded = decode_bootstrap(bytes(blob[:cut]))
        except AdtError:
            return
        _assert_in_range(decoded)

    def test_input_index_minus_one_is_refused(self):
        """Worked example: −1 used to be installed, and ``DpuEngine.call``
        then decoded the request as ``entries[-1]``, the wrong type."""
        (adt_len,) = struct.unpack_from("<I", BLOB, 4)
        at = 8 + adt_len + 2 + 2  # magic, ADT length, ADT, method count, method id
        blob = BLOB[:at] + struct.pack("<h", -1) + BLOB[at + 2:]
        with pytest.raises(AdtError, match="input index -1"):
            decode_bootstrap(blob)


class TestOffloadedCalls:
    def test_unary_call_roundtrip(self, schema):
        pair, calls = make_pair(schema)
        Query, Result = schema["app.Query"], schema["app.Result"]
        responses = []
        pair.dpu.call(
            1, serialize(Query(term="abc", limit=3, shard_ids=[1, 2])),
            lambda v, f: responses.append(parse(Result, bytes(v))),
        )
        pair.run_until_idle()
        assert calls == [("search", "abc", 3, [1, 2])]
        assert responses[0].total == 3
        assert responses[0].hits == ["hit-abc-0", "hit-abc-1", "hit-abc-2"]

    def test_methods_dispatch_independently(self, schema):
        pair, calls = make_pair(schema)
        Query, StatsReq, StatsRsp = (
            schema["app.Query"], schema["app.StatsReq"], schema["app.StatsRsp"]
        )
        out = {}
        pair.dpu.call(2, serialize(StatsReq(samples=[2, 4, 6])),
                      lambda v, f: out.setdefault("stats", parse(StatsRsp, bytes(v))))
        pair.dpu.call(1, serialize(Query(term="q", limit=1)),
                      lambda v, f: out.setdefault("search", bytes(v)))
        pair.run_until_idle()
        assert out["stats"].mean == 4.0
        assert ("search", "q", 1, []) in calls

    def test_many_pipelined_calls(self, schema):
        pair, calls = make_pair(schema)
        Query = schema["app.Query"]
        n_done = []
        for i in range(500):
            pair.dpu.call(1, serialize(Query(term=f"t{i}", limit=1)),
                          lambda v, f: n_done.append(1))
        pair.run_until_idle()
        assert len(n_done) == 500
        assert len(calls) == 500

    def test_unknown_method_raises_on_dpu(self, schema):
        pair, _ = make_pair(schema)
        from repro.offload.adt import AdtError

        with pytest.raises(AdtError, match="not in the offload table"):
            pair.dpu.call(42, b"", lambda v, f: None)

    def test_deserialize_stats_accumulate(self, schema):
        pair, _ = make_pair(schema)
        StatsReq = schema["app.StatsReq"]
        pair.dpu.call(2, serialize(StatsReq(samples=list(range(64)))), lambda v, f: None)
        pair.run_until_idle()
        assert pair.dpu.stats.varints_decoded >= 64
        assert pair.dpu.stats.messages == 1
