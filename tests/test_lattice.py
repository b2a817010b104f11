"""Geometry and Hamiltonian construction tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolink import lattice
from dipolink import (
    CouplingSpec,
    CouplingModel,
    DIPOLE,
    DomainError,
    Geometry,
    InvalidGeometryError,
    NEAREST_NEIGHBOUR,
    Topology,
    build_hamiltonian,
    ring,
    uniform_chain,
)

from conftest import (
    full_dipole_hamiltonian,
    full_heisenberg_hamiltonian,
    nn_chain_eigenpairs,
    one_flip_block,
    ring_bloch_energies,
)


class TestGeometry:
    def test_uniform_chain_positions(self):
        g = uniform_chain(5)
        assert g.positions == (0.0, 1.0, 2.0, 3.0, 4.0)
        assert g.length == 4.0
        assert g.mean_spacing == 1.0

    def test_non_increasing_positions_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Geometry(Topology.CHAIN, (0.0, 1.0, 1.0))
        with pytest.raises(InvalidGeometryError):
            Geometry(Topology.CHAIN, (0.0, 2.0, 1.0))

    def test_too_few_sites_rejected(self):
        with pytest.raises(DomainError):
            uniform_chain(1)
        with pytest.raises(DomainError):
            ring(2)
        with pytest.raises(InvalidGeometryError, match="at least 2 sites"):
            Geometry(Topology.CHAIN, (0.0,))
        with pytest.raises(InvalidGeometryError, match="a ring needs at least 3"):
            Geometry(Topology.RING, (0, 1))

    @pytest.mark.parametrize("make, args, message", [
        (Geometry, (Topology.RING, ()), "a ring needs at least 3 sites, got 0"),
        (Geometry, (Topology.RING, (0,)), "a ring needs at least 3 sites, got 1"),
        (Geometry, (Topology.RING, (0, 1)), "a ring needs at least 3 sites, got 2"),
        (Geometry, (Topology.CHAIN, ()), "a chain needs at least 2 sites, got 0"),
        (Geometry, (Topology.CHAIN, (0.0,)), "a chain needs at least 2 sites, got 1"),
        # the families refuse a size below the fewest sites as a count
        (uniform_chain, (1,), "need 2 <= n, got 1"),
        (ring, (2,), "need 3 <= n, got 2"),
    ], ids=["ring-0", "ring-1", "ring-2", "chain-0", "chain-1", "uniform_chain-1",
            "ring-2-sites"])
    def test_fewest_sites_per_topology(self, make, args, message):
        error = InvalidGeometryError if make is Geometry else DomainError
        with pytest.raises(error) as info:
            make(*args)
        assert str(info.value) == message

    def test_json_round_trip(self):
        g = Geometry(Topology.CHAIN, (0.0, 0.4, 1.0))
        back = Geometry.from_json(g.to_json())
        assert back == g
        data = json.loads(g.to_json())
        assert data["topology"] == "chain"

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"topology": "chain"}',
        '{"topology": "line", "positions": [0, 1, 2]}',
        '{"topology": "ring", "positions": [0, 1.5, 2]}',
        '{"topology": "chain", "positions": [0, 1' + "0" * 400 + "]}",
        '{"topology": "ring", "positions": [0, 1, 2, 3, 10]}',
        '{"topology": "chain", "positions": [0, 1, NaN]}',
        '{"topology": "chain", "positions": [0, 1, Infinity]}',
        '{"topology": "chain", "positions": [0]}',
        # positions that float() converts but that are not real numbers
        '{"topology": "chain", "positions": "0123"}',
        '{"topology": "chain", "positions": {"0": 5, "2": 7}}',
        '{"topology": "chain", "positions": [0, "1.5", 3]}',
        '{"topology": "chain", "positions": [0, true, 2]}',
        # positions that are not a sequence
        '{"topology": "chain", "positions": 5}',
    ])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(InvalidGeometryError):
            Geometry.from_json(text)

    @pytest.mark.parametrize("positions, value", [
        ("0123", "position 1 must be a real number, got '0'"),
        ({"0": 5, "2": 7}, "position 1 must be a real number, got '0'"),
        ([0, "1.5", 3], "position 2 must be a real number, got '1.5'"),
        ([0, True, 2], "position 2 must be a real number, got True"),
        (5, "'int' object is not iterable"),
    ])
    def test_non_real_positions_rejected(self, positions, value):
        with pytest.raises(InvalidGeometryError) as built:
            Geometry(Topology.CHAIN, positions)
        assert str(built.value) == value

    @pytest.mark.parametrize("position, text", [
        (10**400, "1" + "0" * 400), ("x", '"x"'), (None, "null"),
    ])
    def test_unconvertible_position_rejected(self, position, text):
        reason = (f"position 2 {position!r} overflows a float"
                  if isinstance(position, int) else
                  f"position 2 must be a real number, got {position!r}")
        with pytest.raises(InvalidGeometryError) as built:
            Geometry(Topology.CHAIN, (0, position))
        assert str(built.value) == reason
        # from_json hands the positions to Geometry, which names the same cause
        with pytest.raises(InvalidGeometryError) as parsed:
            Geometry.from_json(f'{{"topology": "chain", "positions": [0, {text}]}}')
        assert str(parsed.value) == reason

    @pytest.mark.parametrize("topology", list(Topology))
    def test_topology_value_is_the_member(self, topology):
        g = Geometry(topology.value, (0, 1, 2, 3))
        assert g.topology is topology
        assert g == Geometry(topology, (0, 1, 2, 3))

    def test_unknown_topology_rejected(self):
        with pytest.raises(InvalidGeometryError, match="unknown topology 'line'"):
            Geometry("line", (0, 1, 2))

    def test_ring_length_undefined(self):
        with pytest.raises(InvalidGeometryError):
            ring(4).length


class TestCouplingSpec:
    def test_default_constant(self):
        assert DIPOLE.c_const == 2.0

    @pytest.mark.parametrize("model", list(CouplingModel))
    def test_model_value_is_the_member(self, model):
        spec = CouplingSpec(model.value)
        assert spec.model is model
        assert np.array_equal(
            build_hamiltonian(uniform_chain(5), spec).matrix,
            build_hamiltonian(uniform_chain(5), CouplingSpec(model)).matrix,
        )

    def test_unknown_model_rejected(self):
        with pytest.raises(DomainError, match="unknown model 'xy'"):
            CouplingSpec("xy")

    def test_invalid_constant_rejected(self):
        for c_const in (0.0, np.inf, np.nan):
            with pytest.raises(DomainError):
                CouplingSpec(CouplingModel.DIPOLE, c_const)

    @pytest.mark.parametrize("c_const", [True, "2", None, 10**400])
    def test_non_real_constant_rejected(self, c_const):
        with pytest.raises(DomainError, match="c_const"):
            CouplingSpec("dipole", c_const)

    def test_real_constant_becomes_float(self):
        for c_const in (2, np.int64(2), np.float32(2.0)):
            spec = CouplingSpec("dipole", c_const)
            assert type(spec.c_const) is float and spec.c_const == 2.0


class TestChainHamiltonian:
    def test_two_spin_matrix(self):
        h = build_hamiltonian(uniform_chain(2))
        assert np.allclose(h.matrix, [[1.0, 1.0], [1.0, 1.0]])
        assert h.ground_energy == pytest.approx(-1.0)

    def test_three_spin_matrix(self):
        h = build_hamiltonian(uniform_chain(3))
        assert h.matrix[0, 1] == pytest.approx(1.0)
        assert h.matrix[1, 2] == pytest.approx(1.0)
        assert h.matrix[0, 2] == pytest.approx(1.0 / 8.0)
        assert np.allclose(np.diag(h.matrix), [0.125, 1.875, 0.125])
        assert h.ground_energy == pytest.approx(-2.125)

    def test_two_spin_nn_equals_dipole(self):
        hd = build_hamiltonian(uniform_chain(2), DIPOLE)
        hn = build_hamiltonian(uniform_chain(2), NEAREST_NEIGHBOUR)
        assert np.allclose(hd.matrix[0, 1], hn.matrix[0, 1])

    def test_exact_symmetry(self):
        h = build_hamiltonian(
            Geometry(Topology.CHAIN, (0.0, 0.31, 0.69, 1.0))
        ).matrix
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("coupling", [DIPOLE, NEAREST_NEIGHBOUR])
    def test_every_build_exactly_symmetric(self, coupling):
        # so that decompose, which refuses any other matrix, takes them all
        rng = np.random.default_rng(0)
        for n in range(2, 60):
            geometries = [uniform_chain(n), Geometry(
                Topology.CHAIN, tuple(np.cumsum(rng.uniform(0.5, 1.5, n))))]
            for g in geometries + ([ring(n)] if n >= 3 else []):
                h = build_hamiltonian(g, coupling).matrix
                assert np.array_equal(h, h.T), (g, coupling)

    def test_mirror_symmetry(self):
        h = build_hamiltonian(
            Geometry(Topology.CHAIN, (0.0, 0.3, 0.7, 1.0))
        ).matrix
        n = h.shape[0]
        p = np.eye(n)[::-1]
        assert np.allclose(p @ h @ p, h, atol=1e-15)

    def test_end_sites_have_lowest_onsite_energy(self):
        # Fig-3 profile: flips are cheapest at the chain ends, and the
        # interior is nearly flat in the middle.
        h = build_hamiltonian(uniform_chain(15))
        e = h.onsite_energies()
        assert e[0] == e[-1]
        assert np.all(e[1:-1] > e[0])
        mid = e[5:10]
        assert mid.max() - mid.min() < 0.01 * (e.max() - e.min())

    @pytest.mark.parametrize(
        "positions", [(0.0, 1e120), (0.0, 1e-120), (0.0, 1.0, 1e120)]
    )
    def test_extreme_geometry_rejected(self, positions):
        # 1/r^3 overflows to inf or underflows to 0 for some pair; neither
        # may pass silently as a coupling
        with pytest.raises(InvalidGeometryError, match="1/r\\^3"):
            build_hamiltonian(Geometry(Topology.CHAIN, positions))

    @pytest.mark.parametrize("positions, c_const", [
        ((0.0, 1.0, 2.0, 3.0), 1e308),  # C times the pair sum
        ((0.0, 2.2e-103), 2.0),  # a finite 1/r^3 of 9.4e307, summed
    ])
    def test_overflowing_terms_rejected(self, positions, c_const):
        # rejected before any sum or scaling, so numpy warns of no overflow
        # (the suite turns warnings into errors)
        geometry = Geometry(Topology.CHAIN, positions)
        with pytest.raises(DomainError, match="terms would overflow"):
            build_hamiltonian(geometry, CouplingSpec("dipole", c_const))

    def test_largest_buildable_coupling_constant(self):
        # max(C, 1) N^2 times the largest 1/r^3 equals float max
        c_const = np.finfo(float).max / 16
        h = build_hamiltonian(uniform_chain(4), CouplingSpec("dipole", c_const))
        assert np.isfinite(h.matrix).all() and np.isfinite(h.ground_energy)
        above = CouplingSpec("dipole", np.nextafter(c_const, np.inf))
        with pytest.raises(DomainError, match="terms would overflow"):
            build_hamiltonian(uniform_chain(4), above)

    def test_only_interacting_pairs_are_checked(self):
        # the end pair's 1/r^3 underflows, but it couples only in the
        # dipole model
        g = Geometry(Topology.CHAIN, (0.0, 5e102, 1e103))
        assert build_hamiltonian(g, NEAREST_NEIGHBOUR).matrix[0, 1] > 0
        with pytest.raises(InvalidGeometryError):
            build_hamiltonian(g, DIPOLE)

    def test_matrix_read_only(self):
        h = build_hamiltonian(uniform_chain(4))
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 99.0

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_matches_one_flip_block_of_full_hamiltonian(self, n):
        h = build_hamiltonian(uniform_chain(n))
        full = full_dipole_hamiltonian(uniform_chain(n).positions)
        block = one_flip_block(full, n)
        assert np.allclose(h.matrix, block, atol=1e-12)
        ground = full[0, 0].real
        assert h.ground_energy == pytest.approx(ground, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_nn_matches_heisenberg_offdiagonal(self, n):
        h = build_hamiltonian(uniform_chain(n), NEAREST_NEIGHBOUR)
        block = one_flip_block(
            full_heisenberg_hamiltonian(uniform_chain(n).positions), n
        )
        diff = h.matrix - block
        off = diff - np.diag(np.diag(diff))
        assert np.allclose(off, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_nn_fidelity_equivalent_to_heisenberg(self, n):
        # The diagonal profiles of the two constructions are sign-reversed
        # relative to each other, which the sublattice transform
        # |j> -> (-1)^j |j> plus complex conjugation maps away: |f(t)| is
        # identical for end-to-end transfer.
        from dipolink import decompose, propagator_abs_grid, site_state

        h = build_hamiltonian(uniform_chain(n), NEAREST_NEIGHBOUR)
        block = one_flip_block(
            full_heisenberg_hamiltonian(uniform_chain(n).positions), n
        )
        times = np.linspace(0.0, 60.0, 121)
        ours = propagator_abs_grid(
            decompose(h), site_state(n, 1), site_state(n, n), times
        )
        vals, vecs = np.linalg.eigh(block)
        w = vecs[0] * vecs[-1]
        oracle = np.abs(np.exp(-1j * np.outer(times, vals)) @ w)
        assert np.allclose(ours, oracle, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 7, 64, 1024])
    def test_nn_closed_form_eigenpairs(self, n):
        # E_m = E_0 + 2J (1 - cos(pi m / N)): the isotropic chain's band
        # bottom E_0 is the all-up energy (the lowered ferromagnet)
        h = build_hamiltonian(uniform_chain(n), NEAREST_NEIGHBOUR)
        e, v = nn_chain_eigenpairs(n)
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
        residual = h.matrix @ v - v * (h.ground_energy + e)
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-12

    def test_nn_multiple_of_three_diagonal_ratio(self):
        # The end on-site offset equals the hopping for the nn model; this
        # ratio is what produces the multiple-of-3 transfer dips.
        h = build_hamiltonian(uniform_chain(6), NEAREST_NEIGHBOUR)
        hopping = h.matrix[0, 1]
        end_offset = h.matrix[1, 1] - h.matrix[0, 0]
        assert end_offset == pytest.approx(hopping)

    @given(
        n=st.integers(2, 7),
        scale=st.floats(0.2, 5.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_scaling_law(self, n, scale):
        base = build_hamiltonian(uniform_chain(n))
        scaled = build_hamiltonian(
            Geometry(Topology.CHAIN, tuple(scale * p for p in uniform_chain(n).positions))
        )
        shifted_base = base.matrix - np.eye(n) * base.ground_energy
        shifted_scaled = scaled.matrix - np.eye(n) * scaled.ground_energy
        assert np.allclose(shifted_scaled, shifted_base / scale**3, rtol=1e-12)


class TestRingHamiltonian:
    def test_four_ring_elements(self):
        h = build_hamiltonian(ring(4))
        m = h.matrix
        for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            assert m[i, j] == pytest.approx(1.0)
        assert m[0, 2] == pytest.approx(1.0 / 8.0)
        assert m[1, 3] == pytest.approx(1.0 / 8.0)

    def test_triangle_all_nearest_neighbours(self):
        m = build_hamiltonian(ring(3)).matrix
        off = m[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 12])
    def test_translation_invariance(self, n):
        m = build_hamiltonian(ring(n)).matrix
        diag = np.diag(m)
        assert np.allclose(diag, diag[0], atol=1e-12)
        # circulant: every row is the previous row rotated by one
        for i in range(1, n):
            assert np.allclose(m[i], np.roll(m[0], i), atol=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 6, 8, 11, 12])
    def test_bloch_energies_match_spectrum(self, n):
        from dipolink import decompose

        h = build_hamiltonian(ring(n))
        diag = h.matrix[0, 0]
        eigs = np.sort(decompose(h).eigenvalues - diag)
        bloch = np.sort(ring_bloch_energies(n))
        assert np.allclose(eigs, bloch, atol=1e-10)

    def test_bloch_three_ring_analytic(self):
        e = ring_bloch_energies(3)
        expected = 2.0 * np.cos(2.0 * np.pi * np.arange(3) / 3.0)
        assert np.allclose(e, expected, atol=1e-12)

    def test_bloch_maximum_at_m_zero(self):
        for n in (4, 7, 10):
            e = ring_bloch_energies(n)
            assert np.argmax(e) == 0


class TestStackedBuild:
    """``_hamiltonian_matrices`` builds a stack as it builds each matrix alone."""

    @pytest.mark.parametrize("model", list(CouplingModel))
    @pytest.mark.parametrize("c_const", [2.0, 0.7])
    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_chain_stack_matches_one_at_a_time(self, model, c_const, n):
        coupling = CouplingSpec(model, c_const)
        rng = np.random.default_rng(n)
        positions = np.zeros((7, n))
        gaps = rng.uniform(0.05, 2.0, (7, n - 1))
        np.cumsum(gaps, axis=-1, out=positions[:, 1:])
        h, ground = lattice._hamiltonian_matrices(positions, Topology.CHAIN, coupling)
        assert h.shape == (7, n, n) and ground.shape == (7,)
        for row, h_row, g_row in zip(positions, h, ground):
            alone, g_alone = lattice._hamiltonian_matrices(
                row, Topology.CHAIN, coupling)
            assert alone.tobytes() == h_row.tobytes() and g_alone == g_row
            public = build_hamiltonian(Geometry(Topology.CHAIN, tuple(row)), coupling)
            assert public.matrix.tobytes() == h_row.tobytes()
            assert public.ground_energy == g_row

    @pytest.mark.parametrize("model", list(CouplingModel))
    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_ring_stack_matches_one_at_a_time(self, model, n):
        coupling = CouplingSpec(model)
        positions = np.tile(np.arange(n, dtype=float), (3, 1))
        h, ground = lattice._hamiltonian_matrices(positions, Topology.RING, coupling)
        public = build_hamiltonian(ring(n), coupling)
        for h_row, g_row in zip(h, ground):
            assert public.matrix.tobytes() == h_row.tobytes()
            assert public.ground_energy == g_row

    @pytest.mark.parametrize("model", list(CouplingModel))
    def test_one_bad_row_rejects_the_stack(self, model):
        # the second chain's 1/r^3 underflows to 0 on its only pair
        positions = np.array([[0.0, 1.0], [0.0, 1e120], [0.0, 2.0]])
        with pytest.raises(InvalidGeometryError, match="1/r\\^3"):
            lattice._hamiltonian_matrices(
                positions, Topology.CHAIN, CouplingSpec(model))
