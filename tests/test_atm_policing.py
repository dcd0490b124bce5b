"""GCRA policing and leaky-bucket shaping."""

import pytest

from repro.atm import AtmCell, Gcra, LeakyBucketShaper

PAYLOAD = bytes(48)


def cell():
    return AtmCell(vpi=0, vci=100, payload=PAYLOAD)


class TestGcra:
    def test_conforming_stream_at_rate(self):
        gcra = Gcra.for_rate(1000.0)  # T = 1 ms
        for i in range(10):
            assert gcra.conforms(i * 1e-3)
        assert gcra.violating == 0

    def test_early_cell_violates_without_tolerance(self):
        gcra = Gcra.for_rate(1000.0)
        assert gcra.conforms(0.0)
        assert not gcra.conforms(0.5e-3)

    def test_tolerance_admits_bounded_burst(self):
        # tau of 2T admits cells up to two increments early.
        gcra = Gcra(increment=1e-3, tolerance=2e-3)
        assert gcra.conforms(0.0)
        assert gcra.conforms(0.0)  # TAT=1ms, arrival >= TAT - 2ms
        assert gcra.conforms(0.0)  # TAT=2ms
        assert not gcra.conforms(0.0)  # TAT=3ms, 0 < 3ms - 2ms

    def test_cell_on_the_boundary_conforms_despite_rounding(self):
        # tau = T admits one back-to-back cell; arrival + T - T rounds
        # to just above the arrival time for this arrival.
        gcra = Gcra(increment=0.00390625, tolerance=0.00390625)
        arrival = 0.00038110533366828356
        assert gcra.conforms(arrival)
        assert gcra.conforms(arrival)

    def test_violating_cell_does_not_advance_tat(self):
        gcra = Gcra.for_rate(1000.0)
        gcra.conforms(0.0)
        assert not gcra.conforms(0.1e-3)
        # Had the violation advanced TAT, this would fail too.
        assert gcra.conforms(1.0e-3)

    def test_idle_restart(self):
        gcra = Gcra.for_rate(1000.0)
        gcra.conforms(0.0)
        assert gcra.conforms(10.0)  # long idle: TAT reset to arrival

    def test_violation_ratio(self):
        gcra = Gcra.for_rate(1000.0)
        gcra.conforms(0.0)
        gcra.conforms(0.0001)
        assert gcra.violation_ratio == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Gcra(increment=0.0)
        with pytest.raises(ValueError):
            Gcra(increment=1.0, tolerance=-1.0)
        with pytest.raises(ValueError):
            Gcra.for_rate(0.0)


class TestShaper:
    def test_output_is_gcra_conformant(self, sim):
        releases = []
        shaper = LeakyBucketShaper(
            sim, cells_per_second=10_000.0, sink=lambda c: releases.append(sim.now)
        )
        for _ in range(20):
            shaper.offer(cell())
        sim.run()
        gcra = Gcra.for_rate(10_000.0, tolerance=1e-12)
        assert all(gcra.conforms(t) for t in releases)
        assert len(releases) == 20

    def test_spacing_equals_increment(self, sim):
        releases = []
        shaper = LeakyBucketShaper(
            sim, cells_per_second=1000.0, sink=lambda c: releases.append(sim.now)
        )
        for _ in range(4):
            shaper.offer(cell())
        sim.run()
        gaps = [b - a for a, b in zip(releases, releases[1:])]
        assert gaps == pytest.approx([1e-3, 1e-3, 1e-3])

    def test_queue_overflow_drops(self, sim):
        shaper = LeakyBucketShaper(
            sim, cells_per_second=1000.0, sink=lambda c: None, queue_cells=3
        )
        results = [shaper.offer(cell()) for _ in range(10)]
        assert results.count(False) == 7
        assert shaper.dropped.count == 7

    def test_idle_then_burst_restarts_clean(self, sim):
        releases = []
        shaper = LeakyBucketShaper(
            sim, cells_per_second=1000.0, sink=lambda c: releases.append(sim.now)
        )

        def driver():
            shaper.offer(cell())
            yield sim.timeout(0.5)
            shaper.offer(cell())

        sim.process(driver())
        sim.run()
        assert releases[1] == pytest.approx(0.5)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            LeakyBucketShaper(sim, cells_per_second=0.0, sink=lambda c: None)
        with pytest.raises(ValueError):
            LeakyBucketShaper(
                sim, cells_per_second=1.0, sink=lambda c: None, queue_cells=0
            )
