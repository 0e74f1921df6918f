"""Collectors: a registry reads live component state when it is scraped."""

from __future__ import annotations

from repro.core.endpoint import TransportError
from repro.deploy import build
from repro.metrics import Family, MetricsRegistry, Scraper
from repro.metrics.registry import counter, gauge
from repro.runtime import EngineSupervisor, ProgressEngine
from repro.workloads import WorkloadFactory, bench_service
from repro.xrpc import make_stub_class


def _scrape(registry) -> dict:
    return {(s.name, s.labels): s.value for s in registry.collect()}


class TestRegistry:
    def test_collectors_and_stored_metrics_expose_in_order(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "stored first").inc(2)
        state = {"n": 1}
        reg.add_collector(lambda: [counter("b_total", "collected", state["n"]),
                                   Family("c", "labelled", "gauge", ("k",),
                                          {("x",): 1.5})])
        reg.gauge("d", "stored last").set(4)
        assert reg.expose().splitlines() == [
            "# HELP a_total stored first", "a_total 2.0",
            "# HELP b_total collected", "b_total 1.0",
            "# HELP c labelled", 'c{k="x"} 1.5',
            "# HELP d stored last", "d 4.0",
        ]
        state["n"] = 3
        assert _scrape(reg)["b_total", ()] == 3.0

    def test_scraper_reads_collectors(self):
        reg = MetricsRegistry()
        state = {"n": 0}
        reg.add_collector(lambda: [gauge("g", "", state["n"])])
        scraper = Scraper(reg)
        for t in (1.0, 2.0):
            state["n"] += 10
            scraper.scrape(t)
        assert scraper.get("g").values == [10.0, 20.0]


class TestDeploymentRegistry:
    def test_traffic_shows_in_the_next_scrape(self):
        schema, service, servicer = bench_service()
        with build("offloaded", schema, service, servicer) as d:
            stub = make_stub_class(service, schema.factory)(d.channel())
            before = _scrape(d.registry)
            assert before["trace_offloaded_client_requests_sent_total", ()] == 0
            assert before["overload_retry_tokens", ()] == 10.0  # the channel's budget
            small = WorkloadFactory(schema=schema).small()
            for _ in range(3):
                stub.PingSmall(small)
            after = _scrape(d.registry)
        assert after["trace_offloaded_client_requests_sent_total", ()] == 3
        assert after["trace_offloaded_server_responses_sent_total", ()] == 3

    def test_two_scrapes_without_traffic_are_identical(self):
        schema, service, servicer = bench_service()
        with build("offloaded", schema, service, servicer) as d:
            stub = make_stub_class(service, schema.factory)(d.channel())
            stub.PingSmall(WorkloadFactory(schema=schema).small())
            assert d.registry.expose() == d.registry.expose()

    def test_admission_set_after_the_build_is_scraped(self):
        from repro.runtime.overload import QueueDepthAdmission

        schema, service, servicer = bench_service()
        with build("baseline", schema, service, servicer) as d:
            d.front.admission = QueueDepthAdmission(max_depth=8)
            stub = make_stub_class(service, schema.factory)(d.channel())
            stub.PingSmall(WorkloadFactory(schema=schema).small())
            scraped = _scrape(d.registry)
        assert scraped["overload_admitted_total", (("lane", "latency"),)] == 1


class TestSupervisorCollector:
    def test_a_fault_shows_without_wiring(self):
        class Faulty:
            name = "faulty"

            def progress(self, budget=None):
                raise TransportError("faulty", "boom")

        engine = ProgressEngine(name="t")
        engine.register(Faulty())
        supervisor = EngineSupervisor(engine, max_faults=5)
        reg = MetricsRegistry()
        reg.add_collector(supervisor.collect)
        assert _scrape(reg)["engine_supervisor_faults_total", ()] == 0
        engine.step()
        engine.step()
        assert _scrape(reg)["engine_supervisor_faults_total", ()] == 2
