"""The engine's one schedule: every pollable once per pass, in
registration order."""

from __future__ import annotations

from repro.runtime import ProgressEngine


class Recorder:
    """Pollable that logs the global poll order into a shared list."""

    def __init__(self, name, trace, work=0):
        self.name = name
        self.trace = trace
        self.work = work
        self.polls = 0

    def progress(self, budget=None):
        self.polls += 1
        self.trace.append(self.name)
        return self.work


class TestRoundRobin:
    def test_stable_registration_order(self):
        """Registration order on every tick — bit-for-bit the legacy
        ``client.progress(); server.progress()``."""
        trace = []
        eng = ProgressEngine()
        for n in ("a", "b", "c"):
            eng.register(Recorder(n, trace))
        eng.step()
        eng.step()
        assert trace == ["a", "b", "c", "a", "b", "c"]
