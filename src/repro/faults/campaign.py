"""Seeded fault campaigns: hundreds of scripted failures, zero tolerance.

A *scenario* is one deployment driven through a workload while a seeded
:class:`~repro.faults.injector.FaultInjector` breaks things, with the
recovery machinery armed (``supervise_channel``).  Two deployments run:

* ``core`` — a plain RPC-over-RDMA channel with an echoing server and a
  self-healing supervisor; faults come from the datapath kinds (dropped
  operations, forced QP errors, lost/duplicated/delayed completions,
  payload bit flips caught by the block checksum).
* ``offloaded`` — the full xRPC-over-DPU stack; the scripted fault is
  the DPU engine crashing (and possibly reviving) mid-workload, proving
  graceful degradation: every call still answers, served by host-side
  deserialization.

Each scenario checks the invariants the fault model promises
(docs/FAULTS.md): no hangs within the tick budget, every request
completes or fails *typed* (never silently), successful responses are
bit-exact, continuations fire exactly once, and the whole run is
reproducible — :func:`run_scenario` hashes the fault-event log and every
request outcome into a fingerprint, and the campaign can re-run
scenarios to prove the same seed gives the same fingerprint.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace as dc_replace

from .injector import FaultInjector
from .plan import DATAPATH_KINDS, FaultPlan, FaultSpec

__all__ = [
    "ScenarioResult",
    "CampaignReport",
    "run_scenario",
    "run_core_scenario",
    "run_offloaded_scenario",
    "run_overload_scenario",
    "run_campaign",
    "child_seed",
]

ECHO_METHOD = 7


def child_seed(base_seed: int, index: int) -> int:
    """Per-scenario seed: decorrelated from neighbours, stable forever
    (the CI fault matrix pins these)."""
    return (base_seed * 1_000_003 + index * 2_654_435_761 + 0x9E37) % (1 << 32)


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's verdict; ``ok`` is the invariant bundle."""

    seed: int
    deployment: str
    requests: int
    completed: int  # continuations fired with a successful, bit-exact response
    failed: int  # typed failures (ABORTED/ERROR flags, typed RPC errors)
    mismatches: int  # successful responses with wrong bytes — violation
    duplicate_fires: int  # continuations fired more than once — violation
    resets: int
    faults_fired: int
    stalls: int
    contained: int
    ticks: int
    hung: bool
    error: str | None
    fingerprint: str

    @property
    def ok(self) -> bool:
        return (
            not self.hung
            and self.error is None
            and self.mismatches == 0
            and self.duplicate_fires == 0
            and self.completed + self.failed == self.requests
        )

    def render(self) -> str:
        verdict = "ok" if self.ok else "VIOLATION"
        tail = f" error={self.error}" if self.error else ""
        return (
            f"{self.deployment}:{self.seed:#010x} {verdict} "
            f"req={self.requests} done={self.completed} failed={self.failed} "
            f"faults={self.faults_fired} resets={self.resets} "
            f"ticks={self.ticks}{' HUNG' if self.hung else ''}{tail}"
        )


@dataclass
class CampaignReport:
    """Aggregate over a campaign's scenarios."""

    base_seed: int
    results: list[ScenarioResult] = field(default_factory=list)
    determinism_checked: int = 0
    determinism_failures: int = 0

    @property
    def scenarios(self) -> int:
        return len(self.results)

    @property
    def hangs(self) -> int:
        return sum(r.hung for r in self.results)

    @property
    def violations(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.ok]

    @property
    def faults_fired(self) -> int:
        return sum(r.faults_fired for r in self.results)

    @property
    def resets(self) -> int:
        return sum(r.resets for r in self.results)

    @property
    def ok(self) -> bool:
        return not self.violations and self.determinism_failures == 0

    def render(self) -> str:
        lines = [
            f"campaign base_seed={self.base_seed}: {self.scenarios} scenarios, "
            f"{self.faults_fired} faults fired, {self.resets} recoveries, "
            f"{self.hangs} hangs, {len(self.violations)} violations",
        ]
        if self.determinism_checked:
            lines.append(
                f"determinism: {self.determinism_checked} re-runs, "
                f"{self.determinism_failures} fingerprint mismatches"
            )
        for r in self.violations:
            lines.append("  " + r.render())
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


# -- core deployment ---------------------------------------------------------------


def run_core_scenario(seed: int) -> ScenarioResult:
    """One self-healing channel under datapath faults.

    The workload enqueues echo requests paced one per tick; the scenario
    ends when every continuation has fired (success or typed failure) or
    the 6000-tick budget runs out (a hang — always a violation).  The
    channel's supervisor calls a stall after 30 ticks without progress."""
    from dataclasses import replace

    from repro.core import Flags, Response
    from repro.core.channel import create_channel
    from repro.core.config import CLIENT_DEFAULTS, SERVER_DEFAULTS
    from repro.core.recovery import supervise_channel

    rng = random.Random(seed)
    n_requests = rng.randrange(8, 25)
    n_faults = rng.randrange(1, 4)
    deadline = rng.choice((0, 0, 200))  # mostly stall-driven recovery

    ch = create_channel(
        client_config=replace(
            CLIENT_DEFAULTS, request_deadline_ticks=deadline, verify_checksums=True
        ),
        server_config=replace(SERVER_DEFAULTS, verify_checksums=True),
    )
    recovery, supervisor = supervise_channel(ch, stall_ticks=30, max_faults=4)
    plan = FaultPlan.generate(
        seed, n_faults=n_faults, kinds=DATAPATH_KINDS, horizon=max(8, 2 * n_requests)
    )
    injector = FaultInjector(plan).attach(ch)
    ch.server.register(ECHO_METHOD, lambda req: Response.from_bytes(req.payload_bytes()))

    payloads = [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 160))) for _ in range(n_requests)]
    outcomes: dict[int, tuple[int, bool]] = {}  # index -> (flags, payload ok)
    duplicate_fires = 0

    def make_continuation(index: int):
        def continuation(view: memoryview, flags: int) -> None:
            nonlocal duplicate_fires
            if index in outcomes:
                duplicate_fires += 1
                return
            good = not (flags & Flags.ERROR) and bytes(view) == payloads[index]
            outcomes[index] = (flags, good)

        return continuation

    error: str | None = None
    ticks = 0
    try:
        next_send = 0
        while len(outcomes) < n_requests and ticks < 6000:
            if next_send < n_requests:
                ch.client.enqueue_bytes(
                    ECHO_METHOD, payloads[next_send], make_continuation(next_send)
                )
                next_send += 1
            ch.engine.step()
            ticks += 1
    except Exception as exc:  # noqa: BLE001 — an uncontained escape is the finding
        error = f"{type(exc).__name__}: {exc}"

    completed = sum(1 for flags, good in outcomes.values() if good)
    mismatches = sum(
        1 for flags, good in outcomes.values() if not good and not (flags & Flags.ERROR)
    )
    failed = sum(1 for flags, good in outcomes.values() if flags & Flags.ERROR)
    hung = error is None and len(outcomes) < n_requests

    h = hashlib.sha256()
    h.update(injector.fingerprint().encode())
    for index in sorted(outcomes):
        flags, good = outcomes[index]
        h.update(f"{index}:{flags}:{int(good)}\n".encode())
    h.update(f"resets={len(recovery.reports)} ticks={ticks}".encode())

    return ScenarioResult(
        seed=seed,
        deployment="core",
        requests=n_requests,
        completed=completed,
        failed=failed,
        mismatches=mismatches,
        duplicate_fires=duplicate_fires,
        resets=len(recovery.reports),
        faults_fired=injector.faults_fired,
        stalls=supervisor.stalls_detected,
        contained=supervisor.faults_contained,
        ticks=ticks,
        hung=hung,
        error=error,
        fingerprint=h.hexdigest(),
    )


# -- offloaded deployment ----------------------------------------------------------

_CALC_PROTO = """
syntax = "proto3";
package faults;
message BinOp { int64 a = 1; int64 b = 2; }
message Value { int64 v = 1; }
service Calc { rpc Add (BinOp) returns (Value); }
"""
_SCHEMA = None


def _calc_schema():
    global _SCHEMA
    if _SCHEMA is None:
        from repro.proto import compile_schema

        _SCHEMA = compile_schema(_CALC_PROTO)
    return _SCHEMA


def run_offloaded_scenario(seed: int) -> ScenarioResult:
    """The full xRPC-over-DPU stack with the DPU engine crashing (and
    sometimes reviving) mid-workload: graceful degradation means every
    call still answers correctly, host-side parsing covering the gap."""
    from repro.deploy import build
    from repro.xrpc import RpcError, make_stub_class

    rng = random.Random(seed)
    n_calls = rng.randrange(6, 16)
    crash_at = rng.randrange(1, n_calls)
    revive_at = rng.choice((None, rng.randrange(crash_at + 1, n_calls + 1)))
    # WIRE_FIXED fault surface: some scenarios negotiate the branchless
    # fixed-layout wire, some of those are forced into a layout-hash
    # mismatch (the client's offer salted), and some drop back to the standard wire
    # mid-connection — every combination must keep answering correctly.
    try_fixed = rng.random() < 0.5
    salt = "campaign-salt" if try_fixed and rng.random() < 0.3 else ""
    disable_plan = try_fixed and rng.random() < 0.3

    schema = _calc_schema()
    BinOp, Value = schema["faults.BinOp"], schema["faults.Value"]

    class Servicer:
        def Add(self, request, context):
            return Value(v=request.a + request.b)

    service = schema.service("faults.Calc")
    deployment = build("offloaded", schema, service, Servicer())
    front, dpu, host = deployment.front, deployment.dpu, deployment.host
    channel = deployment.channel()
    stub = make_stub_class(service, schema.factory)(channel)

    negotiated = False
    if try_fixed:
        negotiated = channel.negotiate_fixed(service, salt=salt)
    disable_at = rng.randrange(1, n_calls) if negotiated and disable_plan else None

    outcomes: list[tuple[int, bool]] = []  # (status-ish, correct)
    error: str | None = None
    try:
        for i in range(n_calls):
            if i == crash_at:
                dpu.crash("campaign")
            if revive_at is not None and i == revive_at:
                dpu.revive()
            if disable_at is not None and i == disable_at:
                channel.disable_fixed()
            a, b = rng.randrange(1 << 20), rng.randrange(1 << 20)
            try:
                value = stub.Add(BinOp(a=a, b=b))
                outcomes.append((0, value.v == a + b))
            except RpcError as exc:  # typed failure: allowed, counted
                outcomes.append((exc.status, False))
    except Exception as exc:  # noqa: BLE001 — untyped escape is the finding
        error = f"{type(exc).__name__}: {exc}"
    finally:
        deployment.close()

    completed = sum(1 for status, good in outcomes if status == 0 and good)
    mismatches = sum(1 for status, good in outcomes if status == 0 and not good)
    failed = sum(1 for status, _ in outcomes if status != 0)

    h = hashlib.sha256()
    h.update(f"crash={crash_at} revive={revive_at}\n".encode())
    h.update(
        f"fixed_try={int(try_fixed)} salted={int(bool(salt))} "
        f"negotiated={int(negotiated)} disable_at={disable_at}\n".encode()
    )
    for i, (status, good) in enumerate(outcomes):
        h.update(f"{i}:{status}:{int(good)}\n".encode())
    h.update(
        f"fallback={front.fallback_requests} host_parsed={host.host_deserialized} "
        f"crashes={dpu.crashes} setup_mm={front.setup_mismatches}".encode()
    )

    return ScenarioResult(
        seed=seed,
        deployment="offloaded",
        requests=n_calls,
        completed=completed,
        failed=failed,
        mismatches=mismatches,
        duplicate_fires=0,
        resets=0,
        faults_fired=dpu.crashes,
        stalls=0,
        contained=front.fallback_requests,
        ticks=0,
        hung=error is None and len(outcomes) < n_calls,
        error=error,
        fingerprint=h.hexdigest(),
    )


# -- overload deployment -----------------------------------------------------------


def run_overload_scenario(seed: int) -> ScenarioResult:
    """The offloaded stack under seeded open-loop burst traffic plus an
    injected host-worker slowdown, with overload control armed
    (docs/OVERLOAD.md): admission control sheds at the DPU front door
    and deadlines drop expired work.

    The invariants here are the overload promises: every offered request
    is answered (served, typed shed, or typed deadline drop — never
    silently lost), the latency lane is never shed harder than bulk, and
    the shed / expiry sequence is deterministic — the fingerprint hashes
    it event by event."""
    from repro.runtime.overload import QueueDepthAdmission
    from repro.workloads.openloop import OpenLoopConfig, run_open_loop

    rng = random.Random(seed)
    ticks = rng.randrange(400, 700)
    burst_from = rng.randrange(60, 120)
    burst_len = rng.randrange(120, 240)
    config = OpenLoopConfig(
        seed=seed,
        ticks=ticks,
        offered_per_tick=0.4,
        capacity_per_tick=1,
        bulk_fraction=0.7,
        timeout_us=rng.choice((0, 50_000)),
        burst_from=burst_from,
        burst_until=burst_from + burst_len,
        burst_per_tick=2.0 + rng.random() * 2.0,
        slow_from=burst_from + 10,
        slow_until=burst_from + burst_len - 20,
        slow_stride=rng.choice((3, 4)),
    )
    admission = QueueDepthAdmission(max_depth=rng.choice((12, 16, 24)))

    error: str | None = None
    try:
        result = run_open_loop(config, admission=admission)
    except Exception as exc:  # noqa: BLE001 — an uncontained escape is the finding
        return ScenarioResult(
            seed=seed, deployment="overload", requests=0, completed=0,
            failed=0, mismatches=0, duplicate_fires=0, resets=0,
            faults_fired=0, stalls=0, contained=0, ticks=0, hung=False,
            error=f"{type(exc).__name__}: {exc}", fingerprint="",
        )

    # Overload invariants, mapped onto the campaign verdict fields:
    # a silently lost request shows up as `unanswered` (a hang), shedding
    # the latency lane at a higher *rate* than bulk breaks the priority
    # promise.
    failed = result.total_shed + sum(result.expired.values()) + result.errors
    total_by_lane = {
        lane: result.completed[lane] + result.shed[lane]
        for lane in result.completed
    }
    if all(total_by_lane.values()):
        rate = {
            lane: result.shed[lane] / total_by_lane[lane]
            for lane in total_by_lane
        }
        if rate[0] > rate[1] + 1e-9 and result.shed[0] > 1:
            error = "latency lane shed harder than bulk"

    h = hashlib.sha256()
    for line in result.fingerprint_lines():
        h.update(line.encode())
        h.update(b"\n")
    h.update(f"host_parsed={result.host_parsed} ticks={result.ticks}".encode())

    return ScenarioResult(
        seed=seed,
        deployment="overload",
        requests=result.offered,
        completed=result.total_completed,
        failed=failed,
        mismatches=0,
        duplicate_fires=0,
        resets=0,
        faults_fired=0,
        stalls=0,
        contained=0,
        ticks=result.ticks,
        hung=result.unanswered > 0,
        error=error,
        fingerprint=h.hexdigest(),
    )


# -- the campaign ------------------------------------------------------------------

_DEPLOYMENTS = {
    "core": run_core_scenario,
    "offloaded": run_offloaded_scenario,
    "overload": run_overload_scenario,
}


def run_scenario(seed: int, deployment: str = "core") -> ScenarioResult:
    try:
        runner = _DEPLOYMENTS[deployment]
    except KeyError:
        raise ValueError(f"unknown deployment {deployment!r}") from None
    return runner(seed)


def run_campaign(
    base_seed: int = 0,
    scenarios: int = 200,
    deployments: tuple[str, ...] = ("core", "offloaded"),
    verify_every: int = 0,
    on_result=None,
) -> CampaignReport:
    """Run ``scenarios`` seeded scenarios, alternating deployments.

    ``verify_every=k`` re-runs every k-th scenario and compares
    fingerprints — the byte-for-byte reproducibility check.  A mismatch
    marks the scenario as a violation."""
    report = CampaignReport(base_seed=base_seed)
    for i in range(scenarios):
        deployment = deployments[i % len(deployments)]
        seed = child_seed(base_seed, i)
        result = run_scenario(seed, deployment)
        if verify_every and i % verify_every == 0:
            report.determinism_checked += 1
            rerun = run_scenario(seed, deployment)
            if rerun.fingerprint != result.fingerprint:
                report.determinism_failures += 1
                result = dc_replace(result, error="nondeterministic fingerprint")
        report.results.append(result)
        if on_result is not None:
            on_result(result)
    return report
