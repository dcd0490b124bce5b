"""Workloads: size distributions and traffic sources."""

import pytest

from repro.aal.aal5 import AAL5_MAX_SDU
from repro.nic import aurora_oc3
from repro.workloads import (
    BimodalSize,
    ConstantSize,
    EmpiricalInternetMix,
    GreedySource,
    OnOffSource,
    PoissonSource,
    UniformSize,
)
from repro.workloads.generators import make_payload
from repro.workloads.scenarios import build_point_to_point


class TestDistributions:
    def test_constant(self, rng):
        dist = ConstantSize(1500)
        assert dist.sample(rng) == 1500
        assert dist.mean == 1500

    def test_constant_range_validation(self):
        with pytest.raises(ValueError):
            ConstantSize(0)
        with pytest.raises(ValueError):
            ConstantSize(AAL5_MAX_SDU + 1)

    def test_uniform_bounds_and_mean(self, rng):
        dist = UniformSize(100, 200)
        draws = [dist.sample(rng) for _ in range(2000)]
        assert all(100 <= d <= 200 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(dist.mean, rel=0.05)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformSize(200, 100)

    def test_bimodal_mixes(self, rng):
        dist = BimodalSize(small=64, large=9000, p_small=0.75)
        draws = [dist.sample(rng) for _ in range(4000)]
        assert set(draws) == {64, 9000}
        small_frac = draws.count(64) / len(draws)
        assert small_frac == pytest.approx(0.75, abs=0.03)
        assert dist.mean == pytest.approx(0.75 * 64 + 0.25 * 9000)

    def test_bimodal_validation(self):
        with pytest.raises(ValueError):
            BimodalSize(p_small=1.5)

    def test_empirical_mix_mean_and_support(self, rng):
        dist = EmpiricalInternetMix()
        draws = {dist.sample(rng) for _ in range(3000)}
        assert draws <= set(dist.sizes)
        assert sum(dist.sizes[i] * dist.weights[i] for i in range(5)) / sum(
            dist.weights
        ) == pytest.approx(dist.mean)

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            EmpiricalInternetMix(sizes=[64], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            EmpiricalInternetMix(sizes=[64], weights=[0.0])


class TestMakePayload:
    def test_exact_size(self):
        for size in (0, 1, 255, 256, 70000):
            assert len(make_payload(size)) == size

    def test_deterministic(self):
        assert make_payload(1000) == make_payload(1000)

    def test_not_all_zero(self):
        assert any(make_payload(100))


class TestSources:
    def test_greedy_bounded_count(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        source = GreedySource(
            sim, scenario.hosts["sender"], scenario.vcs[0], 1500, total_pdus=7
        )
        source.start()
        sim.run(until=0.05)
        assert source.pdus_offered.count == 7
        assert len(scenario.delivered) == 7

    def test_greedy_accepts_int_size(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        source = GreedySource(sim, scenario.hosts["sender"], scenario.vcs[0], 64, total_pdus=2)
        source.start()
        sim.run(until=0.05)
        assert source.bytes_offered.count == 128

    def test_greedy_start_idempotent(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        source = GreedySource(
            sim, scenario.hosts["sender"], scenario.vcs[0], 64, total_pdus=3
        )
        assert source.start() is source.start()
        sim.run(until=0.05)
        assert source.pdus_offered.count == 3

    def test_poisson_rate(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        source = PoissonSource(
            sim, scenario.hosts["sender"], scenario.vcs[0], 64, pdus_per_second=2000.0
        )
        source.start()
        sim.run(until=0.5)
        assert source.pdus_offered.count == pytest.approx(1000, rel=0.15)

    def test_poisson_validation(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        with pytest.raises(ValueError):
            PoissonSource(
                sim, scenario.hosts["sender"], scenario.vcs[0], 64, pdus_per_second=0.0
            )

    def test_onoff_produces_bursts(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        source = OnOffSource(
            sim,
            scenario.hosts["sender"],
            scenario.vcs[0],
            64,
            mean_burst_pdus=5.0,
            mean_off_time=1e-3,
        )
        source.start()
        sim.run(until=0.1)
        assert source.bursts.count > 1
        assert source.pdus_offered.count >= source.bursts.count

    def test_onoff_validation(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        with pytest.raises(ValueError):
            OnOffSource(
                sim, scenario.hosts["sender"], scenario.vcs[0], 64, mean_burst_pdus=0.5
            )
