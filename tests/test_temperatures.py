import math
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import diag_system, inject_coherences, random_energies
from efftemp import linalg, temperatures
from efftemp.linalg import BracketError, SolverError, ValidationError
from efftemp.temperatures import (
    AsymptoticRequest,
    asymptotic_branch,
    asymptotic_effective,
    expansion_effective,
    extremal_pairs,
    hotter_than,
    single_copy_effective,
    tensor_power_effective,
    virtual_spectrum,
)
from efftemp.thermal import QuantumSystem, gibbs_by_beta, gibbs_by_energy, t_star

ROTATED_QUTRIT_DIAG = np.array([4 + np.sqrt(2), 4 - 2 * np.sqrt(2), 4 + np.sqrt(2)]) / 12
ROTATED_QUTRIT_BETA = np.log(5 / 2 + 3 / np.sqrt(2))


def binary_entropy(p: float) -> float:
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def brute_force_extremes(energies, populations, n):
    """All-pairs enumeration over the full d**n index set (test oracle)."""
    e = np.asarray(energies, dtype=float)
    p = np.asarray(populations, dtype=float)
    dims = range(len(e))
    items = []
    for combo in product(dims, repeat=n):
        items.append((sum(e[i] for i in combo), float(np.prod([p[i] for i in combo]))))
    betas = []
    for (ea, pa), (eb, pb) in product(items, repeat=2):
        if eb - ea <= 1e-9:
            continue
        if pa == 0.0 and pb == 0.0:
            continue
        if pb == 0.0:
            betas.append(math.inf)
        elif pa == 0.0:
            betas.append(-math.inf)
        else:
            betas.append(math.log(pa / pb) / (eb - ea))
    return max(betas), min(betas)


class TestVirtualSpectrum:
    def test_gibbs_is_flat(self, rng):
        e = random_energies(rng, 4)
        beta = 1.7
        system = diag_system(e, gibbs_by_beta(e, beta).populations)
        betas = virtual_spectrum(system).betas()
        assert_allclose(betas, beta, rtol=1e-10)

    def test_qubit_value(self):
        spectrum = virtual_spectrum(diag_system([0.0, 1.0], [0.8, 0.2]))
        assert len(spectrum) == 1
        assert spectrum.entries[0][:2] == (0, 1)
        assert spectrum.entries[0][2] == pytest.approx(np.log(4), rel=1e-12)

    def test_rotated_qutrit_state(self):
        spectrum = virtual_spectrum(diag_system([0.0, 1.0, 2.0], ROTATED_QUTRIT_DIAG))
        by_pair = {(i, j): b for i, j, b in spectrum.entries}
        assert by_pair[(0, 1)] == pytest.approx(ROTATED_QUTRIT_BETA, abs=1e-12)
        assert by_pair[(1, 2)] == pytest.approx(-ROTATED_QUTRIT_BETA, abs=1e-12)
        assert by_pair[(0, 2)] == pytest.approx(0.0, abs=1e-12)

    def test_zero_population_limits(self):
        spectrum = virtual_spectrum(diag_system([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]))
        by_pair = {(i, j): b for i, j, b in spectrum.entries}
        assert by_pair[(0, 1)] == -math.inf  # empty lower level
        assert by_pair[(1, 2)] == math.inf  # empty upper level
        assert (0, 2) not in by_pair  # both empty: omitted

    def test_degenerate_pairs_excluded(self):
        spectrum = virtual_spectrum(diag_system([0.0, 0.0, 1.0], [0.3, 0.3, 0.4]))
        assert {(i, j) for i, j, _ in spectrum.entries} == {(0, 2), (1, 2)}

    def test_coherences_do_not_enter(self, rng):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        system_plain = QuantumSystem(energies=np.array([0.0, 1.0, 2.0]), rho=rho)
        system_coh = QuantumSystem(
            energies=np.array([0.0, 1.0, 2.0]), rho=inject_coherences(rng, rho)
        )
        assert virtual_spectrum(system_plain).entries == virtual_spectrum(system_coh).entries


class TestSingleCopy:
    def test_gibbs_collapse(self, rng):
        e = random_energies(rng, 5)
        system = diag_system(e, gibbs_by_beta(e, 0.8).populations)
        pair = single_copy_effective(system)
        assert pair.beta_c == pytest.approx(0.8, abs=1e-10)
        assert pair.beta_h == pytest.approx(0.8, abs=1e-10)

    def test_rotated_qutrit_values(self):
        pair = single_copy_effective(diag_system([0.0, 1.0, 2.0], ROTATED_QUTRIT_DIAG))
        assert pair.beta_c == pytest.approx(ROTATED_QUTRIT_BETA, abs=1e-9)
        assert pair.beta_h == pytest.approx(-ROTATED_QUTRIT_BETA, abs=1e-9)

    def test_inverted_qubit_negative(self):
        pair = single_copy_effective(diag_system([0.0, 1.0], [0.2, 0.8]))
        assert pair.beta_c == pair.beta_h == pytest.approx(-np.log(4), rel=1e-12)

    def test_fully_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            single_copy_effective(diag_system([1.0, 1.0], [0.5, 0.5]))

    def test_ordering_always_holds(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            system = diag_system(random_energies(rng, dim), rng.dirichlet(np.ones(dim)))
            pair = single_copy_effective(system)
            assert pair.beta_h <= pair.beta_c


def reference_entries(energies, populations):
    """(i, j, beta_ij) by a per-pair math.log loop: the independent reference."""
    e = np.asarray(energies, dtype=float)
    p = np.asarray(populations, dtype=float)
    p = np.where(p <= temperatures.ZERO_POPULATION, 0.0, p)
    tol = linalg.energy_equal_tol(e)
    entries = []
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            gap = e[j] - e[i]
            if gap <= tol or p[i] == p[j] == 0.0:
                continue
            if p[j] == 0.0:
                beta = math.inf
            elif p[i] == 0.0:
                beta = -math.inf
            else:
                beta = math.log(p[i] / p[j]) / gap
            entries.append((i, j, beta))
    return entries


def spectrum_extremes(energies, populations):
    """Max and min of the entries of the reference spectrum."""
    betas = [b for _, _, b in reference_entries(energies, populations)]
    return max(betas), min(betas)


def population_row(rng, energies, kind):
    d = len(energies)
    if kind == "gibbs":
        w = np.exp(-rng.uniform(-3.0, 3.0) * ((energies - energies[0]) / energies[-1]))
        return w / w.sum()
    if kind == "near_uniform":  # every beta_ij close to 0
        p = (1.0 + 1e-12 * rng.normal(size=d)) / d
        return p / p.sum()
    p = rng.dirichlet(np.full(d, rng.uniform(0.2, 3.0)))
    if kind == "empty":
        p[rng.integers(0, d, max(1, d // 3))] = 0.0
        p = p / p.sum()
    return p


def ladder_energies(rng, dim, ladder):
    energies = random_energies(rng, dim)
    if ladder == "repeated":  # [0, 1], [0, 0, 1], [0, 0, 1, 1, 2], ...
        energies = np.floor(np.linspace(0.0, dim / 2, dim))
    elif ladder == "wide":  # gaps near 1e308: quotients reach subnormals
        energies = energies / energies[-1] * 1.5e308
    return energies


KINDS = ("generic", "gibbs", "near_uniform", "empty")


class TestExtremalPairs:
    @pytest.mark.parametrize("ladder", ["distinct", "repeated", "wide"])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
    def test_matches_scalar_spectrum_bit_for_bit(self, rng, monkeypatch, dim, ladder):
        # a 4 kB budget holds at most 102 rows (one row from d = 16 on), so the
        # stack takes several chunks and ends in a partial one
        monkeypatch.setattr(temperatures, "PAIR_CHUNK_BYTES", 4096)
        size = 250 if dim < 16 else 41
        energies = ladder_energies(rng, dim, ladder)
        stack = np.array([population_row(rng, energies, KINDS[k % 4]) for k in range(size)])
        got = extremal_pairs(energies, stack)
        assert got.shape == (size, 2)
        for row, pair in zip(stack, got):
            assert tuple(pair) == spectrum_extremes(energies, row)

    # Gibbs rows on three levels, where each row's three entries lie within
    # two ulps of one another and numpy's log misrounds one entry by one ulp
    # (numpy 2.4 on x86-64): a screen that recomputes only the entries equal
    # to the screened extreme returns the wrong entry's bits
    NEAR_TIES = (
        (("0x1.7d44cde29f3f2p-1", "0x1.2315ef1a0f70dp+0", "0x1.9054d1536493ap+0"),
         ("0x1.25e5e9f6b4a86p-2", "0x1.5197160401bb8p-2", "0x1.88830005499c1p-2")),
        (("0x1.ead897185b118p-2", "0x1.8b496c6241ed3p+0", "0x1.c702c657259fap+0"),
         ("0x1.de622a52bfe3ap-1", "0x1.641092700b28ap-5", "0x1.6b9990c7ed3bfp-6")),
        (("0x1.169d53c0882b4p+0", "0x1.4eb2f496159b6p+0", "0x1.9acc0cac74c55p+0"),
         ("0x1.d93fdbdee853ap-2", "0x1.51771751dd276p-2", "0x1.aa92199e750a2p-3")),
    )

    @pytest.mark.parametrize("energies,populations", NEAR_TIES)
    def test_screen_keeps_near_ties(self, energies, populations):
        e = np.array([float.fromhex(x) for x in energies])
        p = np.array([float.fromhex(x) for x in populations])
        assert tuple(extremal_pairs(e, p[None, :])[0]) == spectrum_extremes(e, p)

    def test_default_budget_spans_chunks(self, rng):
        # a chunk holds fewer rows than its budget holds float64 values
        energies = np.array([0.0, 1.0, 2.5])
        stack = rng.dirichlet(np.ones(3), size=temperatures.PAIR_CHUNK_BYTES // 8 + 5)
        got = extremal_pairs(energies, stack)
        for k in range(0, len(stack), 97):
            assert tuple(got[k]) == spectrum_extremes(energies, stack[k])
        assert tuple(got[-1]) == spectrum_extremes(energies, stack[-1])

    def test_one_row_case(self):
        p = np.array(ROTATED_QUTRIT_DIAG)
        pair = temperatures.extremal_pair(np.array([0.0, 1.0, 2.0]), p)
        assert (pair.beta_c, pair.beta_h) == spectrum_extremes(np.array([0.0, 1.0, 2.0]), p)

    def test_degenerate_ladder_rejected(self):
        with pytest.raises(ValidationError, match="degenerate"):
            extremal_pairs(np.ones(3), np.full((4, 3), 1 / 3))


def hex_entries(entries):
    return [(i, j, float(b).hex()) for i, j, b in entries]


class TestSpectrumAgainstReference:
    @pytest.mark.parametrize("ladder", ["distinct", "repeated", "wide"])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
    def test_bits_match_the_pair_loop(self, rng, dim, ladder):
        energies = ladder_energies(rng, dim, ladder)
        for k in range(40 if dim < 16 else 8):
            p = population_row(rng, energies, KINDS[k % 4])
            entries = virtual_spectrum(diag_system(energies, p)).entries
            assert hex_entries(entries) == hex_entries(reference_entries(energies, p))
            assert all(type(b) is float for _, _, b in entries)

    @pytest.mark.parametrize("energies,populations", TestExtremalPairs.NEAR_TIES)
    def test_near_tie_rows(self, energies, populations):
        e = np.array([float.fromhex(x) for x in energies])
        p = np.array([float.fromhex(x) for x in populations])
        entries = virtual_spectrum(diag_system(e, p)).entries
        assert hex_entries(entries) == hex_entries(reference_entries(e, p))

    @pytest.mark.parametrize("populations", [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5],
                                             [0.5, 1e-16, 0.5 - 1e-16, 0.0]])
    def test_empty_levels(self, populations):
        energies = np.array([0.0, 0.4, 1.0, 1.7])
        entries = virtual_spectrum(diag_system(energies, populations)).entries
        assert hex_entries(entries) == hex_entries(reference_entries(energies, populations))


def loop_tensor_extremes(system, n):
    """(beta_c, beta_h) by the O(G^2) loop over pairs of energy groups: the reference."""
    p = np.where(system.populations <= temperatures.ZERO_POPULATION, 0.0, system.populations)
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -math.inf)
    energy, top, bottom, has_zero = temperatures._energy_groups(system.energies, logp, n)
    beta_c, beta_h = -math.inf, math.inf
    for a in range(len(energy)):
        for b in range(a + 1, len(energy)):
            gap = energy[b] - energy[a]
            if top[a] > -math.inf and top[b] > -math.inf:
                beta_c = max(beta_c, (top[a] - bottom[b]) / gap)
                beta_h = min(beta_h, (bottom[a] - top[b]) / gap)
            if top[a] > -math.inf and has_zero[b]:
                beta_c = math.inf
            if has_zero[a] and top[b] > -math.inf:
                beta_h = -math.inf
    return float(beta_c).hex(), float(beta_h).hex()


class TestTensorPowerAgainstLoop:
    @pytest.mark.parametrize("ladder", ["distinct", "repeated"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_bits_match_the_group_pair_loop(self, rng, dim, ladder):
        energies = ladder_energies(rng, dim, ladder)
        for k in range(8):
            system = diag_system(energies, population_row(rng, energies, KINDS[k % 4]))
            for n in range(1, 13 if dim <= 3 else 6):
                pair = tensor_power_effective(system, n)
                got = (float(pair.beta_c).hex(), float(pair.beta_h).hex())
                assert got == loop_tensor_extremes(system, n)

    @pytest.mark.parametrize("populations,expected", [
        ([1.0, 0.0], (math.inf, math.inf)),
        ([0.0, 1.0], (-math.inf, -math.inf)),
    ])
    def test_one_populated_level(self, populations, expected):
        # no pair of populated groups: the empty group sets one side and the
        # other keeps its starting value
        system = diag_system([0.0, 1.0], populations)
        for n in (1, 2, 3):
            pair = tensor_power_effective(system, n)
            assert (pair.beta_c, pair.beta_h) == expected
            assert (float(pair.beta_c).hex(), float(pair.beta_h).hex()) == loop_tensor_extremes(
                system, n)


class TestTensorPower:
    def test_single_copy_agreement(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            system = diag_system(random_energies(rng, dim), rng.dirichlet(np.ones(dim)))
            one = tensor_power_effective(system, 1)
            single = single_copy_effective(system)
            assert one.beta_c == pytest.approx(single.beta_c, rel=1e-12)
            assert one.beta_h == pytest.approx(single.beta_h, rel=1e-12)

    def test_gibbs_any_power(self, rng):
        e = random_energies(rng, 3)
        system = diag_system(e, gibbs_by_beta(e, 1.2).populations)
        for n in (1, 2, 4):
            pair = tensor_power_effective(system, n)
            assert pair.beta_c == pytest.approx(1.2, abs=1e-9)
            assert pair.beta_h == pytest.approx(1.2, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_brute_force(self, rng, n):
        for _ in range(8):
            dim = int(rng.integers(2, 4))
            e = random_energies(rng, dim)
            p = rng.dirichlet(np.ones(dim))
            system = diag_system(e, p)
            pair = tensor_power_effective(system, n)
            bc, bh = brute_force_extremes(e, p, n)
            assert pair.beta_c == pytest.approx(bc, rel=1e-9)
            assert pair.beta_h == pytest.approx(bh, rel=1e-9)

    def test_brute_force_with_zero_population(self):
        e = np.array([0.0, 1.0, 2.0])
        p = np.array([0.6, 0.4, 0.0])
        system = diag_system(e, p)
        for n in (1, 2):
            pair = tensor_power_effective(system, n)
            bc, bh = brute_force_extremes(e, p, n)
            assert pair.beta_c == bc == math.inf
            assert pair.beta_h == pytest.approx(bh, rel=1e-9)

    def test_qutrit_family_monotone(self):
        from efftemp.catalysis import QUTRIT_ENERGIES, qutrit_state

        system = QuantumSystem(energies=QUTRIT_ENERGIES, rho=qutrit_state(0.5, 1.0))
        pairs = [tensor_power_effective(system, n) for n in range(1, 7)]
        for a, b in zip(pairs, pairs[1:]):
            assert b.beta_c >= a.beta_c - 1e-9
            assert b.beta_h <= a.beta_h + 1e-9
        assert pairs[-1].beta_c > pairs[0].beta_c  # strictly broadens overall

    def test_size_cap(self):
        # C(29, 9) > 10**6 multisets of 20 copies of 10 levels
        system = diag_system(np.arange(10.0), np.ones(10) / 10)
        with pytest.raises(ValidationError, match="cap"):
            tensor_power_effective(system, 20)

    def test_cap_counts_multisets_not_indices(self):
        from efftemp.catalysis import QUTRIT_ENERGIES, qutrit_state

        # 3**13 > 10**6 indices, but only C(15, 2) = 105 multisets are enumerated
        system = QuantumSystem(energies=QUTRIT_ENERGIES, rho=qutrit_state(0.5, 1.0))
        twelve = tensor_power_effective(system, 12)
        thirteen = tensor_power_effective(system, 13)
        assert thirteen.beta_c >= twelve.beta_c - 1e-9
        assert thirteen.beta_h <= twelve.beta_h + 1e-9


class TestAsymptotic:
    def test_gibbs_converges_to_beta_star(self, rng):
        e = random_energies(rng, 4)
        system = diag_system(e, gibbs_by_beta(e, 0.9).populations)
        pair = asymptotic_effective(AsymptoticRequest(system=system, delta=1e-3))
        assert abs(pair.beta_c - 0.9) < 1e-2
        assert abs(pair.beta_h - 0.9) < 1e-2

    def test_maximally_mixed_qubit(self):
        system = diag_system([0.0, 1.0], [0.5, 0.5])
        pair = asymptotic_effective(AsymptoticRequest(system=system, delta=0.1))
        expected_cold = (binary_entropy(0.6) - math.log(2)) / 0.1
        expected_hot = (math.log(2) - binary_entropy(0.4)) / 0.1
        assert pair.beta_c == pytest.approx(expected_cold, abs=1e-10)
        assert pair.beta_c == pytest.approx(-0.2014, abs=5e-5)
        assert pair.beta_h == pytest.approx(expected_hot, abs=1e-10)

    def test_ground_state_cold_branch(self):
        system = diag_system([0.0, 1.0], [1.0, 0.0])
        request = AsymptoticRequest(system=system, delta=0.1)
        cold = asymptotic_branch(request, "cold")
        assert cold == pytest.approx(binary_entropy(0.1) / 0.1, abs=1e-10)
        assert cold == pytest.approx(3.2508, abs=5e-5)
        with pytest.raises(BracketError):
            asymptotic_branch(request, "hot")

    def test_bracket_violation_both_branches(self):
        system = diag_system([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(BracketError):
            asymptotic_effective(AsymptoticRequest(system=system, delta=0.6))

    def test_gibbs_window_inverts(self):
        # at finite delta the usable window shrinks: beta_c < beta* < beta_h
        system = diag_system([0.0, 1.0], [0.7, 0.3])
        pair = asymptotic_effective(AsymptoticRequest(system=system, delta=0.05))
        beta_star = t_star(system)
        assert pair.beta_c < beta_star < pair.beta_h

    def test_cold_branch_nonincreasing_in_delta(self):
        e = np.array([0.0, 1.0, 2.0])
        system = diag_system(e, gibbs_by_beta(e, 0.5).populations)
        deltas = np.linspace(0.01, 0.4, 12)
        values = [
            asymptotic_branch(AsymptoticRequest(system=system, delta=float(d)), "cold")
            for d in deltas
        ]
        assert np.all(np.diff(values) <= 1e-12)

    def test_pairs_carry_their_gibbs_solves(self):
        e = np.array([0.0, 0.4, 1.0])
        system = diag_system(e, [0.5, 0.3, 0.2])
        request = AsymptoticRequest(system=system, delta=0.05)
        pair = asymptotic_effective(request)
        assert pair.beta_c == asymptotic_branch(request, "cold")
        assert pair.beta_h == asymptotic_branch(request, "hot")
        assert pair.cold.beta == gibbs_by_energy(e, system.mean_energy + 0.05).beta
        assert pair.hot.beta == gibbs_by_energy(e, system.mean_energy - 0.05).beta
        matched = expansion_effective(request).matched
        assert matched.beta == gibbs_by_energy(e, system.mean_energy).beta

    def test_delta_validation(self):
        system = diag_system([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValidationError):
            AsymptoticRequest(system=system, delta=0.0)


class TestExpansion:
    def test_gibbs_branches(self):
        e = np.array([0.0, 1.0])
        solve = gibbs_by_beta(e, 0.8)
        system = diag_system(e, solve.populations)
        delta = 0.03
        pair = expansion_effective(AsymptoticRequest(system=system, delta=delta))
        correction = delta / (2 * solve.energy_variance)
        assert pair.beta_c == pytest.approx(0.8 - correction, abs=1e-9)
        assert pair.beta_h == pytest.approx(0.8 + correction, abs=1e-9)

    @pytest.mark.parametrize("branch", ["cold", "hot"])
    def test_second_order_accuracy(self, rng, branch):
        # the expansion error must shrink ~4x when delta halves
        e = np.array([0.0, 0.35, 1.0])
        p = np.array([0.55, 0.3, 0.15])
        system = diag_system(e, p)
        delta = 0.01

        def residual(d):
            req = AsymptoticRequest(system=system, delta=d)
            exact = asymptotic_branch(req, branch)
            approx = getattr(expansion_effective(req), "beta_c" if branch == "cold" else "beta_h")
            return abs(approx - exact)

        ratio = residual(delta) / residual(delta / 2)
        assert 3.5 < ratio < 4.5

    def test_symmetric_point_is_third_order(self):
        # at the maximally mixed qubit the quadratic error term vanishes by
        # symmetry and the residual shrinks ~8x per halving, not ~4x
        system = diag_system([0.0, 1.0], [0.5, 0.5])

        def residual(d):
            req = AsymptoticRequest(system=system, delta=d)
            return abs(expansion_effective(req).beta_c - asymptotic_branch(req, "cold"))

        ratio = residual(0.02) / residual(0.01)
        assert 7.0 < ratio < 9.0

    def test_coherence_shifts_leading_term(self):
        e = np.array([0.0, 1.0])
        rho_diag = np.diag([0.6, 0.4]).astype(complex)
        rho_coh = rho_diag.copy()
        rho_coh[0, 1] = rho_coh[1, 0] = 0.2
        delta = 0.07
        plain = QuantumSystem(energies=e, rho=rho_diag)
        coherent = QuantumSystem(energies=e, rho=rho_coh)
        pair_plain = expansion_effective(AsymptoticRequest(system=plain, delta=delta))
        pair_coh = expansion_effective(AsymptoticRequest(system=coherent, delta=delta))
        shift = (plain.entropy - coherent.entropy) / delta
        assert pair_coh.beta_c - pair_plain.beta_c == pytest.approx(shift, abs=1e-12)
        assert pair_coh.beta_h - pair_plain.beta_h == pytest.approx(-shift, abs=1e-12)

    def test_zero_variance_rejected(self):
        system = diag_system([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(SolverError):
            expansion_effective(AsymptoticRequest(system=system, delta=0.01))


class TestHotterThan:
    def test_negative_beats_positive(self):
        assert hotter_than(-1.0, 1.0)

    def test_irreflexive(self):
        assert not hotter_than(0.7, 0.7)

    def test_infinite_temperature_beats_zero(self):
        assert hotter_than(0.0, math.inf)

    def test_total_order_on_samples(self):
        betas = [-math.inf, -3.0, -0.1, 0.0, 0.1, 3.0, math.inf]
        for i, a in enumerate(betas):
            for b in betas[i + 1 :]:
                assert hotter_than(a, b) and not hotter_than(b, a)


class TestInvariants:
    def test_ordering_beta_h_star_c(self, rng):
        # populations nonincreasing in energy: the positive-temperature sector
        for _ in range(200):
            dim = int(rng.integers(3, 5))
            e = random_energies(rng, dim)
            p = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
            system = diag_system(e, p)
            pair = single_copy_effective(system)
            beta_star = t_star(system)
            assert pair.beta_h <= beta_star + 1e-10
            assert beta_star <= pair.beta_c + 1e-10

    def test_coherence_invariance_exact(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            e = random_energies(rng, dim)
            p = rng.dirichlet(np.ones(dim) + 1)
            rho = np.diag(p).astype(complex)
            base = single_copy_effective(QuantumSystem(energies=e, rho=rho))
            noisy = single_copy_effective(
                QuantumSystem(energies=e, rho=inject_coherences(rng, rho))
            )
            assert noisy.beta_c == base.beta_c
            assert noisy.beta_h == base.beta_h

    def test_energy_scaling(self, rng):
        for scale in (0.25, 3.0, 40.0):
            e = np.array([0.0, 0.7, 1.9])
            p = np.array([0.5, 0.2, 0.3])
            base = single_copy_effective(diag_system(e, p))
            scaled = single_copy_effective(diag_system(scale * e, p))
            assert scaled.beta_c == pytest.approx(base.beta_c / scale, rel=1e-12)
            assert scaled.beta_h == pytest.approx(base.beta_h / scale, rel=1e-12)

    def test_equality_iff_gibbs(self, rng):
        e = random_energies(rng, 3)
        gibbs = diag_system(e, gibbs_by_beta(e, 1.1).populations)
        pair = single_copy_effective(gibbs)
        assert pair.beta_c == pytest.approx(pair.beta_h, abs=1e-12)
        skew = diag_system(e, [0.5, 0.2, 0.3])
        pair = single_copy_effective(skew)
        assert pair.beta_c > pair.beta_h
