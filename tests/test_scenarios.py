"""Scenario builders and experiment-harness helpers."""

import pytest

from repro.atm import STS3C_155, UniformLoss, VcAddress
from repro.nic import HostNetworkInterface, aurora_oc3
from repro.results.experiments import _window_for, lab_host
from repro.sim import SimConfig, Simulator
from repro.workloads import InterleavedCellSource
from repro.workloads.scenarios import build_point_to_point


class TestPointToPoint:
    def test_builder_opens_matching_vcs(self, sim):
        net = build_point_to_point(sim, aurora_oc3(), n_vcs=2)
        assert net.vcs == [VcAddress(0, 32), VcAddress(0, 33)]
        for vc in net.vcs:
            assert net.hosts["sender"].vc_table.lookup(vc) is not None
            assert net.hosts["receiver"].vc_table.lookup(vc) is not None

    def test_loss_model_attaches_to_forward_link(self, sim, rng):
        loss = UniformLoss(1.0, rng)
        net = build_point_to_point(sim, aurora_oc3(), loss_ab=loss)
        assert net.links["sender->receiver"].loss_model is loss
        net.hosts["sender"].post(net.vcs[0], b"doomed" * 10)
        sim.run(until=0.01)
        assert net.delivered == []
        assert loss.dropped > 0

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            build_point_to_point(sim, aurora_oc3(), n_vcs=0)


class TestInterleavedCellSource:
    def test_round_robin_interleaving(self, sim):
        seen = []
        source = InterleavedCellSource(
            sim, lambda c: seen.append(c.vci), STS3C_155, n_vcs=3, sdu_size=1000
        )
        source.start()
        sim.run(until=30 * STS3C_155.cell_time)
        # Strict rotation across the three VCIs.
        assert seen[:6] == [100, 101, 102, 100, 101, 102]

    def test_emits_at_link_rate(self, sim):
        times = []
        source = InterleavedCellSource(
            sim, lambda c: times.append(sim.now), STS3C_155, n_vcs=1, sdu_size=500
        )
        source.start()
        sim.run(until=20 * STS3C_155.cell_time)
        gaps = {round(b - a, 12) for a, b in zip(times, times[1:])}
        assert gaps == {round(STS3C_155.cell_time, 12)}

    def test_streams_reassemble_at_a_nic(self, sim):
        config = lab_host(aurora_oc3())
        nic = HostNetworkInterface(sim, config, name="rx")
        received = []
        nic.on_pdu = received.append
        source = InterleavedCellSource(
            sim, nic.rx_engine, STS3C_155, n_vcs=4, sdu_size=480
        )
        for address in source.vcs:
            nic.open_vc(address=address)
        nic.start()
        source.start()
        sim.run(until=0.005)
        assert len(received) >= 4
        assert {c.vc for c in received} == set(source.vcs)

    @staticmethod
    def _late_start_deliveries(fast_path):
        sim = Simulator(SimConfig(fast_path=fast_path))
        nic = HostNetworkInterface(sim, lab_host(aurora_oc3()), name="rx")
        received = []
        nic.on_pdu = received.append
        source = InterleavedCellSource(
            sim, nic.rx_engine, STS3C_155, n_vcs=4, sdu_size=1500,
            blocking_fifo=nic.rx_fifo,
        )
        for address in source.vcs:
            nic.open_vc(address=address)
        nic.start()
        sim.schedule_call(1e-3, source.start)
        sim.run(until=4e-3)
        return [(c.vc, c.delivered_at) for c in received]

    def test_late_start_bursts_match_scalar(self):
        # A source started after t=0 must not back-date its first burst
        # on the fast lane: both lanes deliver the same PDUs, at the
        # same times.
        scalar = self._late_start_deliveries(fast_path=False)
        assert scalar
        assert self._late_start_deliveries(fast_path=True) == scalar

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            InterleavedCellSource(sim, lambda c: None, STS3C_155, 0, 100)
        with pytest.raises(ValueError):
            InterleavedCellSource(sim, lambda c: None, STS3C_155, 1, 0)


class TestHarnessHelpers:
    def test_window_scales_with_pdu_size(self):
        small = _window_for(64, 0.01, STS3C_155)
        huge = _window_for(65535, 0.01, STS3C_155)
        assert small == 0.01  # base window suffices
        assert huge > 0.01  # stretched to cover ~40 PDUs

    def test_lab_host_preserves_identity_of_adaptor(self):
        base = aurora_oc3()
        stripped = lab_host(base)
        assert stripped.rx_costs == base.rx_costs
        assert stripped.link == base.link
        assert stripped.os_costs.send_path_cycles(1000) == 0


class TestNicMisc:
    def test_send_autostarts_pipelines(self, sim):
        scenario = build_point_to_point(sim, aurora_oc3())
        # connect() starts them; a fresh NIC must self-start on send.
        fresh = HostNetworkInterface(sim, aurora_oc3(), name="fresh")
        from repro.atm import PhysicalLink

        fresh.attach_tx_link(PhysicalLink(sim, STS3C_155, sink=lambda c: None))
        vc = fresh.open_vc()
        fresh.post(vc.address, b"auto")
        sim.run(until=0.01)
        assert fresh.tx_engine.pdus_sent.count == 1

    def test_close_vc_aborts_partial_reassembly(self, sim):
        from repro.aal.aal5 import Aal5Segmenter

        nic = HostNetworkInterface(sim, aurora_oc3(), name="rx")
        vc = nic.open_vc(address=VcAddress(0, 100))
        nic.start()
        for cell in Aal5Segmenter(vc.address).segment(b"x" * 500)[:-1]:
            nic.rx_engine.receive_cell(cell)
        sim.run(until=0.005)
        assert nic.rx_engine.reassembler.has_context(vc.address)
        nic.close_vc(vc.address)
        assert not nic.rx_engine.reassembler.has_context(vc.address)
        assert nic.buffer_memory.used_cells == 0

    def test_cam_entry_removed_on_close(self, sim):
        nic = HostNetworkInterface(sim, aurora_oc3(), name="n")
        vc = nic.open_vc()
        assert nic.cam.lookup(vc.address) is not None
        nic.close_vc(vc.address)
        assert nic.cam.lookup(vc.address) is None
