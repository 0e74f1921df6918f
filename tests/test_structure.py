"""Structure guard: one way to build a stack, one front door, one
open-loop traffic half (ROADMAP aim 2, item 4); one send path and no
poll shims (item 2).

Reads ``src/`` and ``examples/`` as syntax trees — what is pinned is
where things are *written*, not how they behave.  Tests under ``tests/``
and the benchmark harness may keep their hand-built stacks: they pin
the public parts the builder itself composes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _trees(*roots: Path):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _enclosing_functions(tree: ast.AST):
    """node -> name of the outermost function it sits in (None at module
    or class level)."""
    owner: dict[ast.AST, str | None] = {}

    def walk(node: ast.AST, inside: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            name = inside
            if inside is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            owner[child] = name
            walk(child, name)

    walk(tree, None)
    return owner


def _definitions(root: Path, name: str) -> list[str]:
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _trees(root)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
    ]


@pytest.mark.parametrize("constructor", ["HostEngine", "DpuEngine", "OffloadedXrpcServer"])
def test_the_stack_is_assembled_in_the_builder_only(constructor):
    """The offloaded stack's three parts are constructed in
    ``repro/deploy.py`` (every deployment kind, and the two halves the
    ``procs`` children call) and in ``create_offload_pair`` (the
    method-level API) — nowhere else in ``src/`` or ``examples/``."""
    allowed = {
        ("src/repro/deploy.py", "host_half"),
        ("src/repro/deploy.py", "dpu_half"),
        ("src/repro/offload/engine.py", "create_offload_pair"),
    }
    elsewhere = []
    for path, tree in _trees(SRC, ROOT / "examples"):
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called != constructor:
                continue
            site = (str(path.relative_to(ROOT)), owner[node])
            if site not in allowed:
                elsewhere.append(f"{site[0]}:{node.lineno} in {site[1]}")
    assert elsewhere == []


def test_no_hand_rolled_drive_lambda():
    """``Deployment.drive`` is the one drive pass; nothing assigns a
    lambda to a ``drive`` name or attribute."""
    offenders = []
    for path, tree in _trees(SRC, ROOT / "examples"):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)):
                continue
            for target in node.targets:
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name == "drive":
                    offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("method", ["_drop_or_shed", "_answer_setup"])
def test_the_front_door_is_written_once(method):
    (where,) = _definitions(SRC / "xrpc", method)
    assert where.startswith("src/repro/xrpc/ingress.py:")


def test_the_lane_loop_is_written_once():
    """``for lane, queue in enumerate(self._lanes)`` — the priority-lane
    drain — appears once under ``src/repro/xrpc/``."""
    loops = []
    for path, tree in _trees(SRC / "xrpc"):
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and "_lanes" in ast.unparse(node.iter):
                loops.append(path.name)
    assert loops == ["ingress.py"]


@pytest.mark.parametrize("function", ["make_done", "offer"])
def test_the_open_loop_traffic_half_is_written_once(function):
    assert len(_definitions(SRC / "workloads", function)) == 1


# -- the send path and the poll (ROADMAP item 2, structural half) -------------


def _callers(path: Path, called: str) -> set[str | None]:
    """Names of the functions in ``path`` that call ``called`` (as a
    name or as an attribute)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = _enclosing_functions(tree)
    return {
        owner[node]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and called == (node.func.id if isinstance(node.func, ast.Name)
                       else getattr(node.func, "attr", None))
    }


@pytest.mark.parametrize("step", ["begin_message", "commit_message", "abort_message"])
def test_a_message_is_put_into_a_block_in_one_place(step):
    """Both endpoint roles append through ``_EndpointBase._append``, and
    that puts a message in with the one step ``BlockWriter.put_message``
    (reserve, write, header — or nothing).  There is no three-step form
    to call: the block writer has no such method."""
    from repro.core.wire import BlockWriter

    assert _callers(SRC / "core" / "endpoint.py", "put_message") == {"_append"}
    assert not hasattr(BlockWriter, step)


def test_blocks_are_opened_by_the_appender_and_the_pure_ack_only():
    assert _callers(SRC / "core" / "endpoint.py", "BlockWriter") <= {
        "_append", "_send_pure_ack",
    }


@pytest.mark.parametrize("name", ["_progress_impl", "_runtime_engine", "Tracer"])
def test_the_poll_shim_chain_is_gone(name):
    """``progress()`` is the pass itself; nothing routes around it."""
    mentions = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _trees(SRC)
        for node in ast.walk(tree)
        if name in (getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None))
    ]
    assert mentions == []


def test_the_engine_has_no_single_pollable_entry_point():
    """``ProgressEngine.drive`` existed for the shims only."""
    assert [where for where in _definitions(SRC / "runtime", "drive")
            if where.startswith("src/repro/runtime/engine.py:")] == []


def test_the_engine_polls_progress_and_nothing_else():
    """Every pollable defines ``progress(budget)``: nothing under
    ``runtime/`` falls back to a ``"poll"`` method or sniffs a signature
    to decide how to call one."""
    offenders = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _trees(SRC / "runtime")
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and node.value == "poll")
        or (isinstance(node, ast.Attribute) and node.attr == "signature"
            and getattr(node.value, "id", None) == "inspect")
    ]
    assert offenders == []


def test_protocol_config_fields():
    """The eleven per-endpoint knobs; the engine has one schedule and a
    partial block one hold (``flush_hold``, set on the endpoint), so none
    of them picks a scheduling or flush policy."""
    from dataclasses import fields

    from repro.core import ProtocolConfig

    assert [f.name for f in fields(ProtocolConfig)] == [
        "block_size", "block_alignment", "credits", "send_buffer_size",
        "recv_buffer_size", "concurrency", "threads", "max_message_size",
        "request_deadline_ticks", "verify_checksums", "transport",
    ]


# -- one kind table, one tag loop (ROADMAP item 3) ----------------------------


def _is_field_type(node: ast.AST, member: str | None = None) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "FieldType" and member in (None, node.attr))


def test_a_scalar_kind_is_tabulated_once():
    """A dict display keyed by six or more ``FieldType`` members is a
    per-kind table; ``proto/kinds.py`` holds the only one, everything
    else derives from it."""
    tables = [
        str(path.relative_to(SRC))
        for path, tree in _trees(SRC)
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict) and sum(map(_is_field_type, node.keys)) >= 6
    ]
    assert tables == ["proto/kinds.py"]


def test_the_zigzag32_rule_is_stated_in_the_table_and_the_oracles_only():
    """``FieldType.SINT32`` is the kind whose copies drifted.  It is named
    where kinds are tabulated, in the two hand-written oracles the table
    is tested against (``descriptor.py``, which declares the enum, no
    longer restates which kinds are varint, zigzag or signed — predicates
    nothing had read since the table)."""
    named_in = {
        str(path.relative_to(SRC))
        for path, tree in _trees(SRC)
        if any(_is_field_type(node, "SINT32") for node in ast.walk(tree))
    }
    assert named_in == {"proto/kinds.py", "proto/serializer.py", "proto/deserializer.py"}


def test_the_tag_loop_is_generated_in_one_function():
    sites = set()
    for path, tree in _trees(SRC):
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "while pos < end:" in node.value and owner[node] is not None):
                sites.add((str(path.relative_to(SRC)), owner[node]))
    assert sites == {("proto/gen_codec.py", "tag_loop")}


def test_generated_codec_source_is_compiled_in_one_function():
    """Decoder, encoder and arena decoder all go through
    ``gen_codec.compile_codec`` (``proto/codegen.py`` and
    ``offload/plugin.py`` load whole modules — not this)."""
    assert _callers(SRC / "proto" / "gen_codec.py", "exec") == {"compile_codec"}
    assert _callers(SRC / "offload" / "arena_gen.py", "exec") == set()


@pytest.mark.parametrize("where, name", [
    ("offload", "_skip"),               # == proto.deserializer.skip_field
    ("proto/fixed_wire.py", "_decode_bound"),  # folded into decode_into
])
def test_the_duplicate_walks_are_gone(where, name):
    root = SRC / where
    trees = _trees(root) if root.is_dir() else [(root, ast.parse(root.read_text()))]
    assert [path.name for path, tree in trees for node in ast.walk(tree)
            if name in (getattr(node, "name", None), getattr(node, "attr", None))] == []


@pytest.mark.parametrize("path, function", [
    ("offload/engine.py", "call"),
    ("offload/engine.py", "call_raw"),
    ("offload/engine.py", "register_method"),  # the per-method handler is built in it
    ("offload/arena_deserializer.py", "deserialize"),
])
def test_the_request_path_imports_nothing(path, function):
    """What a request needs is bound when the module loads (or when the
    method is registered), not looked up again per request: no function
    on the offloaded request path contains an ``import`` statement."""
    tree = ast.parse((SRC / path).read_text())
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == function]
    assert found, f"{path} no longer defines {function}"
    imports = [
        f"{path}:{inner.lineno}"
        for node in found
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []


# -- the encode half: one room check, one emit pair, one fixed walk (item 6) --


def _functions_writing(needle: str, root: Path) -> set[tuple[str, str | None]]:
    """``(file, outermost function)`` of every string constant under
    ``root`` — the literal parts of an f-string included, docstrings not —
    that contains ``needle``."""
    trees = _trees(root) if root.is_dir() else [(root, ast.parse(root.read_text()))]
    sites = set()
    for path, tree in trees:
        owner = _enclosing_functions(tree)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Module)) and node.body
            and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and needle in node.value and id(node) not in docstrings):
                sites.add((str(path.relative_to(SRC)), owner[node]))
    return sites


def test_room_for_an_emit_is_checked_in_one_function():
    """``SizedMessage``, ``SizedFixed`` and ``_PreparedBytes`` all emit
    through ``serializer.check_room``; nobody else words the refusal."""
    assert _functions_writing("buffer too small", SRC) == {("proto/serializer.py", "check_room")}
    for module in ("gen_codec.py", "fixed_wire.py", "serializer.py"):
        assert _callers(SRC / "proto" / module, "check_room") == {"emit_into"}, module


@pytest.mark.parametrize("line, functions", [
    ("buf[pos:end] = ", {"_store_run"}),                 # the slice store of a byte run
    (" + _vs(n) + n", {"_delimited"}),                   # tag + length prefix + payload
    ("buf[pos:pos + ", {"_delimited", "_tagged_scalar"}),  # the tag store: once per fragment
])
def test_an_encoder_line_is_generated_by_its_fragment_only(line, functions):
    """The generated encoder is composed from two fragments (a
    length-delimited element, a tagged scalar); a repeated field loops
    around them and the pass frame calls them — none restates a line."""
    sites = _functions_writing(line, SRC / "proto" / "gen_codec.py")
    assert sites == {("proto/gen_codec.py", fn) for fn in functions}


@pytest.mark.parametrize("needle", ["overruns fixed payload", "trailing bytes after fixed payload",
                                    "fixed section truncated"])
def test_a_fixed_payload_is_bounds_proved_in_one_function(needle):
    """``FixedLayout.spans`` is the one walk; ``decode_into`` and the arena
    decoder apply what it proved, and ``offload/`` words no such check."""
    assert _functions_writing(needle, SRC / "proto" / "fixed_wire.py") == {("proto/fixed_wire.py", "spans")}
    assert _functions_writing(needle, SRC / "offload") == set()


# -- field access is generated per message type, on both host-side representations --


@pytest.mark.parametrize("module, cls", [("proto/message.py", "Message"),
                                         ("offload/materialize.py", "CppMessageView")])
def test_field_access_has_no_generic_attribute_hook(module, cls):
    """A field is a property of the type's generated class: neither base
    class answers a name through ``__getattr__`` or intercepts every
    assignment through ``__setattr__``."""
    tree = ast.parse((SRC / module).read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    assert [f.name for f in node.body if isinstance(f, ast.FunctionDef)
            and f.name in ("__getattr__", "__setattr__")] == []


# -- the benchmark's patch points (docs/TRANSPORT.md, "what the benchmark patches") --


@pytest.mark.parametrize("module, name, arguments", [
    ("xrpc/server.py", "prepare_emit", ("msg", "mode")),
    ("xrpc/server.py", "parse", None),
    ("offload/engine.py", "emit_writer", ("msg", "mode")),
])
def test_a_patched_module_global_is_called_by_its_bare_name(module, name, arguments):
    """``benchmarks/e2e/layers.py`` replaces these module attributes when
    its traced window opens, so the module reaches them by a global
    lookup at call time — imported at module level, never aliased, bound
    into a default or passed on — and, where the replacement is a
    ``lambda msg, mode=None``, with at most those arguments.
    ``tests/integration/test_bench_contract.py`` runs the traced pass;
    this says where to look when it fails."""
    tree = ast.parse((SRC / module).read_text())
    assert any(
        isinstance(node, ast.ImportFrom) and any((a.asname or a.name) == name for a in node.names)
        for node in tree.body
    )
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name]
    assert calls
    mentions = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name]
    assert len(mentions) == len(calls)  # every mention is a call's callee
    for call in calls:
        if arguments is not None:
            assert len(call.args) + len(call.keywords) <= len(arguments)
            assert {kw.arg for kw in call.keywords} <= set(arguments)


# -- one boundary per event loop, one outcome table (ROADMAP 4(a), docs/FAULTS.md §3) --


def _broad_handlers(path: Path) -> list[str | None]:
    """Outermost function of every ``except Exception`` / ``except
    BaseException`` / bare ``except`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = _enclosing_functions(tree)
    return sorted(
        owner[node] for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and (
            node.type is None
            or (isinstance(node.type, ast.Name) and node.type.id in ("Exception", "BaseException")))
    )


def test_the_front_door_is_the_only_broad_handler_under_xrpc():
    """``_serve`` is straight-line code that raises, in both servers;
    what it raises is answered in ``Ingress._serve_contained`` and
    nowhere else."""
    handlers = {path.name: _broad_handlers(path) for path, _ in _trees(SRC / "xrpc")}
    assert {name: fns for name, fns in handlers.items() if fns} == {
        "ingress.py": ["_serve_contained"],
    }


def test_the_endpoint_turns_an_exception_into_an_answer_in_three_places():
    """Backlog admission (no caller to raise to), the host's handler
    boundary, and the in-place response writer (which runs after the
    boundary returned) — each through the one fault function.  The only other broad handlers
    re-raise: the appender's clean-up, and the client's response block,
    which delivers the rest of the pass before the first continuation's
    exception reaches the event loop."""
    endpoint = SRC / "core" / "endpoint.py"
    assert _broad_handlers(endpoint) == [
        "_append", "_drain_backlog", "_enqueue_response", "_invoke",
        "_process_response_block"]
    assert _callers(endpoint, "_fault") == {"_drain_backlog", "_enqueue_response", "_invoke"}
    # ...and it is the only place an exception's repr becomes a payload
    tree = ast.parse(endpoint.read_text())
    owner = _enclosing_functions(tree)
    assert {owner[node] for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr"} == {"_fault"}
    # the handler is resolved and run in one function, in the poller
    assert _callers(endpoint, "_invoke") == {"_process_request_block"}


@pytest.mark.parametrize("status, functions", [
    ("INTERNAL", {"outcome"}),
    # (a SETUP whose layout hash mismatches is refused with the same code:
    # the negotiation's answer, not a request's outcome)
    ("INVALID_ARGUMENT", {"outcome", "_answer_setup"}),
])
def test_the_status_of_a_failure_is_decided_in_the_outcome_table(status, functions):
    """Server side of ``xrpc/`` (the client maps statuses back to
    exceptions in ``channel.py``): one function names the two statuses a
    failed request can get."""
    named = set()
    for module in ("ingress.py", "server.py", "dpu_frontend.py", "service.py"):
        tree = ast.parse((SRC / "xrpc" / module).read_text())
        owner = _enclosing_functions(tree)
        named |= {
            (module, owner[node]) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == status
            and isinstance(node.value, ast.Name) and node.value.id == "StatusCode"
        }
    assert named == {("ingress.py", fn) for fn in functions}


def test_the_last_pr1_shim_is_gone():
    """``Ingress.poll`` — "deprecation shim for the historical name" —
    outlived PR 19's deletion of the shim chain; the servers are driven
    through ``progress()``.  (``XrpcChannel.poll`` is the client's own.)"""
    assert [where for where in _definitions(SRC / "xrpc", "poll")
            if not where.startswith("src/repro/xrpc/channel.py:")] == []


def test_the_nesting_limit_is_one_constant():
    """Defined beside the wire-format errors; the decoders name it, none
    restates the number."""
    defined = [
        str(path.relative_to(SRC)) for path, tree in _trees(SRC)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "MAX_NESTING_DEPTH" for t in node.targets)
    ]
    assert defined == ["proto/wire_format.py"]
    users = {
        str(path.relative_to(SRC)) for path, tree in _trees(SRC)
        if any(isinstance(node, ast.Name) and node.id == "MAX_NESTING_DEPTH"
               and isinstance(node.ctx, ast.Load) for node in ast.walk(tree))
    }
    assert users == {"proto/deserializer.py", "proto/gen_codec.py",
                     "offload/arena_deserializer.py"}


def test_no_module_under_src_imports_threading():
    """Every RPC runs to completion in the poller that received it (the
    prototype's foreground execution, §III-D); nothing under ``src/``
    starts a thread."""
    importers = [
        str(path.relative_to(SRC)) for path, tree in _trees(SRC)
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "threading" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "threading")
    ]
    assert importers == []


def test_utf8_is_checked_one_way():
    """One validator: CPython's strict decoder behind an ASCII fast
    path, the check the host's generated decoder makes too."""
    from repro.proto import utf8

    assert sorted(utf8.__all__) == ["Utf8Error", "validate_utf8"]
