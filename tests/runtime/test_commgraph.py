"""Unit tests for communication graphs and mapping-dependent comm cost."""

import pytest

from repro.apps import Jacobi2D, Mol3D, Wave2D
from repro.cluster import Cluster, NetworkModel
from repro.core import CommAwareRefineLB, LBPolicy
from repro.experiments.sweep import background_job_iterations
from repro.runtime import Chare, ChareArray, CommGraph, Runtime
from repro.runtime import runtime as runtime_module
from repro.runtime.runtime import compute_comm_delay
from repro.sim import SimulationEngine


class TestCommGraph:
    def test_edges_accumulate_and_are_undirected(self):
        g = CommGraph()
        g.add_edge(("a", 0), ("a", 1), 100.0)
        g.add_edge(("a", 1), ("a", 0), 50.0)
        assert g.num_edges == 1
        assert g.bytes_between(("a", 0), ("a", 1)) == 150.0
        assert g.bytes_between(("a", 1), ("a", 0)) == 150.0

    def test_neighbors(self):
        g = CommGraph.chain("a", 4, 10.0)
        assert g.neighbors(("a", 1)) == {("a", 0): 10.0, ("a", 2): 10.0}
        assert g.neighbors(("a", 9)) == {}

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            CommGraph().add_edge(("a", 0), ("a", 0), 1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CommGraph().add_edge(("a", 0), ("a", 1), -1.0)

    def test_chain_and_ring_shapes(self):
        chain = CommGraph.chain("a", 5, 1.0)
        ring = CommGraph.ring("a", 5, 1.0)
        assert chain.num_edges == 4
        assert ring.num_edges == 5
        assert ring.bytes_between(("a", 4), ("a", 0)) == 1.0

    def test_colocated_edges_are_free(self):
        g = CommGraph.chain("a", 4, 100.0)
        mapping = {("a", i): 0 for i in range(4)}
        per_core = g.per_core_external_bytes(mapping)
        assert per_core == {0: 0.0}
        assert g.cut_bytes(mapping) == 0.0

    def test_cross_core_edges_charge_both_sides(self):
        g = CommGraph.chain("a", 2, 100.0)
        mapping = {("a", 0): 0, ("a", 1): 1}
        per_core = g.per_core_external_bytes(mapping)
        assert per_core[0] == 100.0
        assert per_core[1] == 100.0
        assert g.cut_bytes(mapping) == 100.0

    def test_same_node_discount(self):
        g = CommGraph.chain("a", 2, 100.0)
        mapping = {("a", 0): 0, ("a", 1): 1}
        per_core = g.per_core_external_bytes(
            mapping, node_of={0: 0, 1: 0}, local_factor=0.25
        )
        assert per_core[0] == 25.0
        per_core = g.per_core_external_bytes(
            mapping, node_of={0: 0, 1: 1}, local_factor=0.25
        )
        assert per_core[0] == 100.0

    def test_unmapped_endpoint_raises(self):
        g = CommGraph.chain("a", 2, 1.0)
        with pytest.raises(ValueError):
            g.per_core_external_bytes({("a", 0): 0})


class TestAppGraphs:
    def test_jacobi_graph_matches_decomposition(self):
        app = Jacobi2D(grid_size=512, odf=4)
        g = app.comm_graph(4)
        assert g.num_edges == 4 * 4 - 1
        assert g.bytes_between(("jacobi2d", 0), ("jacobi2d", 1)) == 2 * 512 * 8

    def test_mol3d_graph_volumes_track_density(self):
        app = Mol3D(total_particles=8000, odf=4, density_cv=0.5, seed=1)
        g = app.comm_graph(2)
        volumes = [
            g.bytes_between(("mol3d", i), ("mol3d", (i + 1) % 8)) for i in range(8)
        ]
        assert max(volumes) > min(v for v in volumes if v > 0)


class TestRuntimeCommDelay:
    class UnitChare(Chare):
        def __init__(self, index):
            super().__init__(index, state_bytes=0.0)

        def work(self, iteration):
            return 0.01

    def _runtime(self, mapping, graph):
        eng = SimulationEngine()
        cl = Cluster(eng, num_nodes=1, cores_per_node=2)
        net = NetworkModel(latency_s=0.0, bandwidth_Bps=1e6, per_message_overhead_s=0.0)
        rt = Runtime(eng, cl, [0, 1], net=net, comm_graph=graph)
        arr = ChareArray("a", [self.UnitChare(i) for i in range(4)])
        rt.register_array(arr, mapping=mapping)
        return rt

    def test_colocated_mapping_has_no_halo_delay(self):
        graph = CommGraph.chain("a", 4, 1e6)  # 1 MB edges, 1 MB/s net
        # contiguous blocks: only the 1<->2 edge crosses cores
        mapping = {("a", 0): 0, ("a", 1): 0, ("a", 2): 1, ("a", 3): 1}
        rt = self._runtime(mapping, graph)
        contiguous = rt.comm_delay()
        # interleaved: all 3 edges cross
        mapping = {("a", 0): 0, ("a", 1): 1, ("a", 2): 0, ("a", 3): 1}
        rt2 = self._runtime(mapping, graph)
        interleaved = rt2.comm_delay()
        assert interleaved > 2.5 * contiguous

    def test_graph_overrides_flat_comm_bytes(self):
        graph = CommGraph.chain("a", 4, 0.0)
        mapping = {("a", i): i % 2 for i in range(4)}
        rt = self._runtime(mapping, graph)
        # zero-byte edges: only the reduction tree (one 8-byte hop at
        # 1 MB/s) remains — the flat comm_bytes default plays no part
        assert rt.comm_delay() == pytest.approx(8.0 / 1e6)

    def test_lb_database_records_comm_partners(self):
        graph = CommGraph.chain("a", 4, 123.0)
        mapping = {("a", 0): 0, ("a", 1): 0, ("a", 2): 1, ("a", 3): 1}
        rt = self._runtime(mapping, graph)
        rt.start(iterations=1)
        rt.engine.run()
        view = rt.db.build_view(rt.mapping)
        task1 = next(
            t for c in view.cores for t in c.tasks if t.chare == ("a", 1)
        )
        assert dict(task1.comm) == {("a", 0): 123.0, ("a", 2): 123.0}

    def test_use_comm_graph_requires_app_support(self):
        from repro.apps import SyntheticApp

        eng = SimulationEngine()
        cl = Cluster(eng, num_nodes=1, cores_per_node=2)
        app = SyntheticApp([0.01] * 4)
        with pytest.raises(ValueError):
            app.instantiate(eng, cl, [0, 1], use_comm_graph=True)

    def test_stencil_app_runs_with_graph(self):
        eng = SimulationEngine()
        cl = Cluster(eng, num_nodes=1, cores_per_node=4)
        app = Jacobi2D(grid_size=256, odf=2, jitter_amp=0.0)
        rt = app.instantiate(eng, cl, [0, 1, 2, 3], use_comm_graph=True)
        rt.start(iterations=3)
        eng.run()
        assert rt.done


class TestCommDelayCache:
    """``Runtime.comm_delay()`` is cached until the mapping changes; the
    cached value must always equal a fresh computation on the current
    mapping (parity cannot show this: both backends share the cache)."""

    @staticmethod
    def _fresh(rt, cores_per_node):
        return compute_comm_delay(
            net=rt.net,
            num_cores=len(rt.core_ids),
            comm_bytes=rt.comm_bytes,
            comm_graph=rt.comm_graph,
            mapping=rt.mapping,
            node_of={cid: cid // cores_per_node for cid in rt.core_ids},
            local_comm_factor=rt.local_comm_factor,
        )

    def test_cached_delay_follows_every_migrating_step(self):
        eng = SimulationEngine()
        cl = Cluster(eng, num_nodes=2, cores_per_node=4)
        net = NetworkModel.virtualized()
        app = Jacobi2D(grid_size=512, odf=4)
        rt = app.instantiate(
            eng,
            cl,
            list(range(8)),
            net=net,
            balancer=CommAwareRefineLB(0.05),
            policy=LBPolicy(period_iterations=4),
            use_comm_graph=True,
        )
        bg_model = Wave2D.background(grid_size=170)
        bg = bg_model.instantiate(eng, cl, [0, 1], name="bg", net=net)
        delays = []

        def check(job, iteration):
            # every barrier, the ones after a migrating step included
            delays.append(job.comm_delay())
            assert delays[-1] == self._fresh(job, 4)

        rt.on_iteration(check)
        rt.start(24)
        bg.start(background_job_iterations(app, 8, 24, bg_model, weight=1.0))
        eng.run()
        assert rt.done and bg.done
        assert len(delays) == 24
        # steps migrated, and the delay moved with the mapping
        assert rt.migration_count > 0
        assert len(set(delays)) > 1

    def test_delay_read_before_placement_is_not_reused(self, monkeypatch):
        # no real delay read before placement can differ from one after
        # it (a comm graph needs every edge endpoint placed, a flat
        # volume ignores the mapping), so make each read report the
        # size of the mapping it was computed from
        monkeypatch.setattr(
            runtime_module,
            "compute_comm_delay",
            lambda **inputs: float(len(inputs["mapping"])),
        )
        eng = SimulationEngine()
        cl = Cluster(eng, num_nodes=1, cores_per_node=2)
        rt = Runtime(eng, cl, [0, 1])
        assert rt.comm_delay() == 0.0
        rt.register_array(
            ChareArray("a", [TestRuntimeCommDelay.UnitChare(i) for i in range(4)])
        )
        assert rt.comm_delay() == 4.0
