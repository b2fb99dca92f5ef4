"""The array-valued SD geometry against its ``Rect``-walking reference.

``SubdomainGrid.halo_pairs``, ``Decomposition.foreign_pairs`` and
``Decomposition.case1_counts`` must reproduce ``halo_neighbors``,
``ghost_messages`` and ``case_split`` exactly, and the solver's plan
compile (built from the arrays) must equal a plan assembled from the
reference, domain mask included.  Grids are drawn with uneven cuts
(mesh sizes that do not divide by the SD counts), non-square SD grids,
and radii larger than the SD edge.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.decomposition import BYTES_PER_DP, Decomposition
from repro.mesh.domain import DomainMask
from repro.mesh.grid import UniformGrid
from repro.mesh.subdomain import SubdomainGrid
from repro.solver.distributed import DistributedSolver
from repro.solver.model import NonlocalHeatModel


@st.composite
def decompositions(draw, max_mesh=36):
    """A random SD grid (uneven cuts allowed) with random ownership."""
    nx = draw(st.integers(1, max_mesh))
    ny = draw(st.integers(1, max_mesh))
    sd_nx = draw(st.integers(1, min(nx, 9)))
    sd_ny = draw(st.integers(1, min(ny, 9)))
    sg = SubdomainGrid(nx, ny, sd_nx, sd_ny)
    nodes = draw(st.integers(1, 5))
    parts = draw(st.lists(st.integers(0, nodes - 1),
                          min_size=sg.num_subdomains,
                          max_size=sg.num_subdomains))
    return Decomposition(sg, np.array(parts), nodes)


radii = st.integers(0, 9)


class TestHaloPairs:
    @given(decomp=decompositions(), radius=radii)
    @settings(max_examples=150, deadline=None)
    def test_table_lists_every_halo_neighbor_in_order(self, decomp, radius):
        sg = decomp.sd_grid
        dst, src, area = sg.halo_pairs(radius)
        reference = [(sd, other, rect.area)
                     for sd in range(sg.num_subdomains)
                     for other, rect in sg.halo_neighbors(sd, radius)]
        assert list(zip(dst.tolist(), src.tolist(),
                        area.tolist())) == reference

    @given(decomp=decompositions(), radius=radii)
    @settings(max_examples=150, deadline=None)
    def test_foreign_pairs_are_the_ghost_messages(self, decomp, radius):
        dst, src, area = decomp.sd_grid.halo_pairs(radius)
        foreign = decomp.foreign_pairs(radius)
        parts = decomp.parts
        got = list(zip(parts[src[foreign]].tolist(),
                       parts[dst[foreign]].tolist(), src[foreign].tolist(),
                       dst[foreign].tolist(),
                       (area[foreign] * BYTES_PER_DP).tolist()))
        reference = [(m.src_node, m.dst_node, m.src_sd, m.dst_sd, m.nbytes)
                     for m in decomp.ghost_messages(radius)]
        assert got == reference

    def test_table_is_cached_and_read_only(self):
        sg = SubdomainGrid(20, 20, 4, 4)
        first = sg.halo_pairs(3)
        assert sg.halo_pairs(3) is first
        assert not any(arr.flags.writeable for arr in first)


class TestCase1Counts:
    @given(decomp=decompositions(), radius=radii)
    @settings(max_examples=200, deadline=None)
    def test_counts_match_case_split(self, decomp, radius):
        counts = decomp.case1_counts(radius)
        reference = [decomp.case_split(sd, radius).case1_count
                     for sd in range(decomp.sd_grid.num_subdomains)]
        assert counts.tolist() == reference

    @given(decomp=decompositions(), radius=radii)
    @settings(max_examples=50, deadline=None)
    def test_case_counts_total(self, decomp, radius):
        sg = decomp.sd_grid
        c1 = sum(decomp.case_split(sd, radius).case1_count
                 for sd in range(sg.num_subdomains))
        assert decomp.case_counts(radius) == (c1, sg.mesh_nx * sg.mesh_ny
                                              - c1)

    def test_radius_wider_than_several_sds(self):
        sg = SubdomainGrid(23, 17, 7, 5)
        parts = np.arange(sg.num_subdomains) % 3
        decomp = Decomposition(sg, parts, 3)
        for radius in (5, 8, 13, 30):
            assert decomp.case1_counts(radius).tolist() == [
                decomp.case_split(sd, radius).case1_count
                for sd in range(sg.num_subdomains)]


class TestNodeAdjacency:
    @given(decomp=decompositions())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_pair_set(self, decomp):
        sg, parts = decomp.sd_grid, decomp.parts
        pairs = set()
        for sd in range(sg.num_subdomains):
            for nb in sg.face_neighbors(sd):
                a, b = int(parts[sd]), int(parts[nb])
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
        adjacency = decomp.node_adjacency()
        assert adjacency == sorted(pairs)
        assert all(type(a) is int and type(b) is int for a, b in adjacency)


def reference_plan(solver: DistributedSolver):
    """The step plan assembled from ``ghost_messages``/``case_split``."""
    decomp = Decomposition(solver.sd_grid, solver.parts,
                           len(solver.cluster.nodes))
    R = solver.operator.radius
    active = solver._active
    messages, ghost_sds, tasks = [], [], []
    for msg in decomp.ghost_messages(R):
        if active is not None and not (active[msg.src_sd]
                                       and active[msg.dst_sd]):
            continue
        messages.append((msg.src_node, msg.dst_node, msg.nbytes))
        ghost_sds.append(msg.dst_sd)
    cost = solver.cost_model
    for sd in range(solver.sd_grid.num_subdomains):
        if active is not None and not active[sd]:
            continue
        split = decomp.case_split(sd, R)
        wf = float(solver.work_factors[sd])
        node = decomp.owner(sd)
        if not solver.overlap:
            tasks.append((sd, node, cost.task_work(
                solver._work_item(sd, split.total, wf))))
            continue
        w2 = (cost.task_work(solver._work_item(sd, split.case2_count, wf))
              if split.case2_count else None)
        w1 = (cost.task_work(solver._work_item(sd, split.case1_count, wf))
              if split.case1_count else None)
        tasks.append((sd, node, w2, w1))
    return messages, ghost_sds, tasks


class TestPlanCompile:
    @given(mesh=st.integers(12, 30), sds=st.integers(2, 6),
           eps_cells=st.integers(1, 7), nodes=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16), overlap=st.booleans(),
           masked=st.booleans(), cost_model=st.sampled_from(
               ["flat", "hierarchy"]))
    @settings(max_examples=60, deadline=None)
    def test_compiled_plan_equals_reference(self, mesh, sds, eps_cells,
                                            nodes, seed, overlap, masked,
                                            cost_model):
        rng = np.random.default_rng(seed)
        grid = UniformGrid(mesh, mesh)
        sg = SubdomainGrid(mesh, mesh, sds, sds)
        mask = DomainMask.l_shape(sg) if masked else None
        parts = rng.integers(0, nodes, sg.num_subdomains)
        work = rng.uniform(0.5, 2.0, sg.num_subdomains)
        solver = DistributedSolver(
            NonlocalHeatModel(epsilon=eps_cells * grid.h), grid, sg, parts,
            num_nodes=nodes, work_factors=work, overlap=overlap,
            compute_numerics=False, domain_mask=mask, cost_model=cost_model)
        solver.run(None, 0)  # binds the per-run cost inputs, runs nothing
        plan = solver._build_plan()
        assert (plan.messages, plan.ghost_sds, plan.tasks) == \
            reference_plan(solver)
