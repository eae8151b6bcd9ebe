"""Attack constructions: partitions, separability, both strategies, oracles."""

import math

import numpy as np
import pytest

from sociallearn import (
    adversary_contribution,
    bsc_model,
    confidence_partition,
    distortion_region,
    known_divergence_attack,
    make_model,
    multi_adversary_known,
    one_variable_feasibility,
    oracle_optimal_attack,
    random_attack,
    select_support_pair,
    separability,
    unknown_divergence_attack,
    unknown_divergence_objective,
)
from sociallearn import attacks
from sociallearn.errors import (
    AllUninformativeError,
    DegeneratePairError,
    EpsilonTooLargeError,
    OutOfRangeError,
    UninformativeModelError,
)

from helpers import grid_oracle, random_model, random_uninformative_model

# the non-separable two-symbol benchmark used across the experiments
NONSEP = make_model([0.8, 0.2], [0.55, 0.45])


class TestConfidencePartition:
    def test_bsc09(self):
        part = confidence_partition(bsc_model(0.9))
        assert part.d1 == (0,) and part.d2 == (1,)
        assert part.z == pytest.approx([0.8, -0.8])

    def test_nonseparable_model(self):
        part = confidence_partition(NONSEP)
        assert part.d1 == (0,) and part.d2 == (1,)
        assert part.z == pytest.approx([0.25, -0.25])

    def test_uninformative(self):
        part = confidence_partition(bsc_model(0.5))
        assert part.d2 == ()
        assert np.allclose(part.z, 0.0)

    def test_zero_sum_and_nonempty(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = random_model(rng, int(rng.integers(2, 7)), floor=0.0)
            part = confidence_partition(m)
            assert abs(float(part.z.sum())) < 1e-12
            assert part.d1 and part.d2


class TestSeparability:
    @pytest.mark.parametrize("p", [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
    def test_bsc_always_separable(self, p):
        assert separability(bsc_model(p)).separable

    def test_nonseparable_masses(self):
        rep = separability(NONSEP)
        assert (rep.xi1, rep.sigma1) == pytest.approx((0.8, 0.2))
        assert (rep.xi2, rep.sigma2) == pytest.approx((0.55, 0.45))
        assert not rep.separable

    def test_swapped_partition_separable(self):
        rep = separability(make_model([0.2, 0.8], [0.55, 0.45]))
        part = confidence_partition(make_model([0.2, 0.8], [0.55, 0.45]))
        assert part.d1 == (1,)
        assert rep.separable

    def test_uninformative_raises(self):
        with pytest.raises(UninformativeModelError):
            separability(bsc_model(0.5))

    def test_mass_splits_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rep = separability(random_model(rng, int(rng.integers(2, 6))))
            assert rep.xi1 + rep.sigma1 == pytest.approx(1.0, abs=1e-12)
            assert rep.xi2 + rep.sigma2 == pytest.approx(1.0, abs=1e-12)


class TestUnknownDivergenceAttack:
    def test_bsc09_exact_bit_pattern(self):
        eps = 1e-3
        forged = unknown_divergence_attack(bsc_model(0.9), eps)
        assert forged.given_theta1.mass == (eps, 1.0 - eps)
        assert forged.given_theta2.mass == (1.0 - eps, eps)

    def test_three_symbol_closed_form(self):
        m = make_model([0.5, 0.3, 0.2], [0.3, 0.25, 0.45])
        forged = unknown_divergence_attack(m, 0.01)
        assert forged.given_theta1.as_array() == pytest.approx(
            [0.01, 0.01, 0.98], abs=1e-12
        )
        assert forged.given_theta2.as_array() == pytest.approx(
            [0.792, 0.198, 0.01], abs=1e-12
        )

    def test_uninformative_raises(self):
        with pytest.raises(UninformativeModelError):
            unknown_divergence_attack(bsc_model(0.5), 1e-3)

    def test_tie_symbols_floored_in_both_columns(self):
        m = make_model([0.3, 0.3, 0.4], [0.3, 0.2, 0.5])
        eps = 0.01
        forged = unknown_divergence_attack(m, eps)
        assert forged.given_theta1.as_array() == pytest.approx(
            [eps, eps, 1 - 2 * eps], abs=1e-15
        )
        assert forged.given_theta2.as_array() == pytest.approx(
            [eps, 1 - 2 * eps, eps], abs=1e-15
        )

    def test_water_filled_column_is_the_oracle_optimum(self):
        # one positive confidence gap 8 orders smaller than the other: its
        # proportional share falls below the floor, so it is floored too
        m = make_model([0.45, 0.2 + 1e-9, 0.35 - 1e-9], [0.35, 0.2, 0.45])
        forged = unknown_divergence_attack(m, 0.01)
        oracle, value = oracle_optimal_attack(m, 0.01)
        assert forged.given_theta1.as_array() == pytest.approx([0.01, 0.01, 0.98], abs=1e-15)
        assert forged.given_theta2.as_array() == pytest.approx([0.98, 0.01, 0.01], abs=1e-15)
        for mine, best in ((forged.given_theta1, oracle.given_theta1),
                           (forged.given_theta2, oracle.given_theta2)):
            assert mine.as_array() == pytest.approx(best.as_array(), rel=1e-12)
        assert unknown_divergence_objective(m, forged) == pytest.approx(value, rel=1e-12)

    def test_matches_oracle_on_every_model(self):
        rng = np.random.default_rng(33)
        for _ in range(1200):
            alphabet = int(rng.integers(2, 9))
            m = make_model(rng.dirichlet(np.ones(alphabet)), rng.dirichlet(np.ones(alphabet)))
            eps = float(rng.uniform(0.0, 1.0 / alphabet))
            forged = unknown_divergence_attack(m, eps)
            oracle, value = oracle_optimal_attack(m, eps)
            for pmf in (forged.given_theta1, forged.given_theta2):
                assert min(pmf.mass) >= eps
            closed = unknown_divergence_objective(m, forged)
            assert closed == pytest.approx(value, rel=1e-12, abs=0.0)
            assert closed == pytest.approx(
                unknown_divergence_objective(m, oracle), rel=1e-12, abs=0.0
            )

    def test_floor_and_normalization(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            m = random_model(rng, int(rng.integers(2, 6)))
            eps = float(rng.uniform(1e-4, 0.5 / m.alphabet_size))
            forged = unknown_divergence_attack(m, eps)
            for pmf in (forged.given_theta1, forged.given_theta2):
                arr = pmf.as_array()
                assert np.all(arr >= eps * (1 - 1e-12))
                assert abs(arr.sum() - 1.0) < 1e-12
            part = confidence_partition(m)
            assert all(forged.given_theta1[s] == eps for s in part.d1)
            assert all(forged.given_theta2[s] == eps for s in part.d2)


class TestOracle:
    def test_matches_closed_form_small_sample(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            m = random_model(rng, int(rng.integers(2, 5)))
            eps = float(rng.choice([1e-3, 1e-2]))
            forged = unknown_divergence_attack(m, eps)
            closed = unknown_divergence_objective(m, forged)
            _, oracle_val = oracle_optimal_attack(m, eps)
            assert abs(closed - oracle_val) < 1e-6

    def test_never_worse_than_grid_search(self):
        rng = np.random.default_rng(55)
        for case in range(40):
            alphabet = int(rng.integers(2, 5))
            m = random_model(rng, alphabet, floor=0.0)
            if alphabet > 2 and case % 2:
                # a tie model: move mass between two symbols, so z(0) = 0
                t1 = m.given_theta1.as_array()
                shift = float(rng.uniform(-1.0, 1.0)) * min(t1[1], t1[2])
                t2 = t1.copy()
                t2[1] += shift
                t2[2] -= shift
                m = make_model(t1, t2)
            eps = float(rng.uniform(1e-4, 1.0 / alphabet))
            face, value = oracle_optimal_attack(m, eps)
            grid = grid_oracle(m, eps)
            # both forgeries scored by one function, so rounding cannot decide
            face_value = unknown_divergence_objective(m, face)
            assert face_value <= unknown_divergence_objective(m, grid)
            assert face_value == pytest.approx(value, rel=1e-12, abs=0.0)
            assert value == pytest.approx(
                unknown_divergence_objective(m, grid), rel=1e-12, abs=0.0
            )

    def test_alphabet_cap(self):
        rng = np.random.default_rng(4)

        def model(alphabet):
            return make_model(rng.dirichlet(np.ones(alphabet)), rng.dirichlet(np.ones(alphabet)))

        forged, _ = oracle_optimal_attack(model(12), 0.01)
        assert min(forged.given_theta1.mass + forged.given_theta2.mass) >= 0.01
        with pytest.raises(OutOfRangeError):
            oracle_optimal_attack(model(13), 0.01)

    def test_flat_objective_for_uninformative(self):
        m = random_uninformative_model(np.random.default_rng(2), 3)
        forged, val = oracle_optimal_attack(m, 1e-2)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert unknown_divergence_objective(m, forged) == pytest.approx(0.0, abs=1e-12)


class TestSelectSupportPair:
    def test_bsc08_determinant(self):
        m = bsc_model(0.8)
        pair = select_support_pair(m)
        assert pair == (0, 1)
        t1, t2 = m.given_theta1, m.given_theta2
        d = t2[1] * t1[0] - t1[1] * t2[0]
        assert d == pytest.approx(0.6)

    def test_skips_degenerate_pair(self):
        # symbols 0 and 1 have identical likelihoods -> zero determinant
        m = make_model([0.4, 0.4, 0.2], [0.3, 0.3, 0.4])
        assert select_support_pair(m) == (0, 2)

    def test_uninformative_raises(self):
        with pytest.raises(UninformativeModelError):
            select_support_pair(bsc_model(0.5))

    def test_one_rule_skips_a_second_symbol_without_mass(self):
        # (0, 2) ties (2, 0) on |d| and comes first, but symbol 2 has no mass under
        # theta1: every default takes (2, 0), the pair the attack forges on
        m = make_model([0.5, 0.5, 0.0], [0.1, 0.1, 0.8])
        assert select_support_pair(m) == (2, 0)
        assert distortion_region(m, 0.3, 0.2, 0.2, 1e-3).support_pair == (2, 0)
        assert known_divergence_attack(m, 0.3, 0.2, 0.2, 1e-3).params["support_pair"] == (2, 0)
        assert one_variable_feasibility(m, 0.3, 0.2, 0.2, 1e-3)
        with pytest.raises(DegeneratePairError, match="second pair symbol"):
            one_variable_feasibility(m, 0.3, 0.2, 0.2, 1e-3, pair=(0, 2))

    def test_no_pair_with_mass_at_its_second_symbol_raises(self):
        with pytest.raises(DegeneratePairError, match="no pair"):
            select_support_pair(make_model([1.0, 0.0], [0.0, 1.0]))


class TestDistortionRegion:
    def test_bsc09_reference_values(self):
        reg = distortion_region(bsc_model(0.9), 0.25, 0.5, 0.5, 0.01)
        assert reg.d_k == pytest.approx(0.8, abs=1e-15)
        assert reg.x1_prime == pytest.approx(2.5, abs=1e-12)
        assert abs(reg.x2_prime) == pytest.approx(2.5, abs=1e-12)
        assert reg.epsilon_bound == pytest.approx(1.0 / (math.exp(2.5) + 1.0), abs=1e-12)
        assert not reg.empty

    def test_zero_divergences_center_region(self):
        reg = distortion_region(bsc_model(0.9), 0.25, 0.0, 0.0, 0.01)
        assert reg.x1_prime == 0.0 and reg.x2_prime == 0.0
        # the anti-diagonal passes through the wedge around the origin
        assert one_variable_feasibility(bsc_model(0.9), 0.25, 0.0, 0.0, 0.01)

    def test_epsilon_at_bound_is_empty(self):
        reg = distortion_region(bsc_model(0.9), 0.25, 0.5, 0.5, 0.08)
        assert reg.empty

    def test_box_symmetry(self):
        reg = distortion_region(bsc_model(0.7), 0.3, 0.2, 0.4, 1e-3)
        assert reg.x_minus == -reg.x_plus

    @pytest.mark.parametrize("construct", [distortion_region, one_variable_feasibility])
    @pytest.mark.parametrize("pair", [(0, 5), (3, 0), (-1, 0), (1, -3)])
    def test_pair_outside_alphabet_refused(self, construct, pair):
        # a negative index would otherwise be read from the end of the alphabet
        m = make_model([0.6, 0.3, 0.1], [0.7, 0.1, 0.2])
        with pytest.raises(OutOfRangeError, match="outside the alphabet"):
            construct(m, 0.3, 0.5, 0.5, 1e-3, pair=pair)

    def test_repeated_symbol_pair_is_degenerate(self):
        m = make_model([0.6, 0.3, 0.1], [0.7, 0.1, 0.2])
        with pytest.raises(DegeneratePairError):
            distortion_region(m, 0.3, 0.5, 0.5, 1e-3, pair=(1, 1))


class TestKnownDivergenceAttack:
    def test_four_symbol_template_shape(self):
        m = make_model([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4])
        eps = 1e-3
        entry = known_divergence_attack(m, 0.3, 0.2, 0.2, eps)
        i, j = entry.params["support_pair"]
        alpha = entry.params["alpha"]
        assert alpha == pytest.approx(1.0 - 2 * eps)
        others = [s for s in range(4) if s not in (i, j)]
        for s in others:
            assert entry.forged.given_theta1[s] == eps
            assert entry.forged.given_theta2[s] == eps
        assert entry.forged.given_theta1[i] == pytest.approx(
            alpha - entry.params["p2"], abs=1e-12
        )
        assert entry.forged.given_theta2[j] == pytest.approx(
            alpha - entry.params["p1"], abs=1e-12
        )

    def test_midpoint_selectors_valid_masses(self):
        eps = 0.01
        entry = known_divergence_attack(bsc_model(0.9), 0.25, 0.5, 0.5, eps)
        p1, p2 = entry.params["p1"], entry.params["p2"]
        hi = 1.0 - (2 - 1) * eps
        assert eps < p1 < hi and eps < p2 < hi
        assert abs(sum(entry.forged.given_theta1.mass) - 1.0) < 1e-12
        assert abs(sum(entry.forged.given_theta2.mass) - 1.0) < 1e-12

    def test_randomized_deception_predicate(self):
        # small-scale version of the acceptance property suite
        rng = np.random.default_rng(33)
        done = 0
        while done < 150:
            n = int(rng.integers(2, 6))
            m = random_model(rng, n)
            u = float(rng.uniform(0.05, 0.5))
            s1, s2 = (float(x) for x in rng.uniform(0.0, 2.0, 2))
            reg = distortion_region(m, u, s1, s2, 1e-6)
            if reg.epsilon_bound <= 1e-280:
                continue
            eps = reg.epsilon_bound / 2.0
            entry = known_divergence_attack(m, u, s1, s2, eps)
            assert adversary_contribution(u, m, entry.forged, 1) > s1 + 1e-9
            assert adversary_contribution(u, m, entry.forged, 2) > s2 + 1e-9
            if entry.params["floor_satisfied"]:
                assert np.all(entry.forged.given_theta1.as_array() >= eps * (1 - 1e-9))
                assert np.all(entry.forged.given_theta2.as_array() >= eps * (1 - 1e-9))
            done += 1

    def test_epsilon_too_large(self):
        with pytest.raises(EpsilonTooLargeError):
            known_divergence_attack(bsc_model(0.9), 0.25, 0.5, 0.5, 0.09)

    def test_floor_infeasible_fallback_still_deceives(self):
        # frozen instance where the wedge only meets the box below the floor:
        # the relaxed construction must still clear both thresholds and be
        # flagged
        m = make_model(
            [0.6938267132471291, 0.30617328675287087],
            [0.8734007302956696, 0.12659926970433033],
        )
        u, s1, s2 = 0.3538172813515632, 0.22952856180400527, 0.02135837253422679
        eps = 0.016329307825644363
        entry = known_divergence_attack(m, u, s1, s2, eps)
        assert not entry.params["floor_satisfied"]
        assert adversary_contribution(u, m, entry.forged, 1) > s1
        assert adversary_contribution(u, m, entry.forged, 2) > s2
        assert np.all(entry.forged.given_theta1.as_array() > 0.0)
        assert np.all(entry.forged.given_theta2.as_array() > 0.0)

    def test_entry_below_the_floor(self):
        # past the box (x1 > x_plus) a forged mass falls below the floor: an
        # entry meant to satisfy it is refused, and the relaxed one is flagged
        region = distortion_region(bsc_model(0.9), 0.25, 0.5, 0.5, 0.01)
        x1, x2 = attacks._floor_feasible_point(region)
        assert attacks._entry(region, x1, x2, floor_satisfied=True) is not None
        assert attacks._entry(region, region.x_plus + 1.0, x2, floor_satisfied=True) is None
        relaxed = attacks._entry(region, region.x_plus + 1.0, x2, floor_satisfied=False)
        assert relaxed.params["floor_satisfied"] is False
        masses = np.concatenate([relaxed.forged.given_theta1.as_array(),
                                 relaxed.forged.given_theta2.as_array()])
        assert masses.min() < region.eps

    def test_floor_sliver_found(self):
        # frozen instance whose floor-feasible set is a sliver that a fixed
        # 768-point grid missed, forging a mass at 0.95 eps instead
        m = make_model(
            [0.09327256418316068, 0.07302761682875998, 0.8336998189880793],
            [0.2421887670590778, 0.2646002358682036, 0.4932109970727186],
        )
        u, s1, s2 = 0.5564500446868049, 0.8025870552880092, 0.28858152480442834
        eps = 0.0018238148873514753
        entry = known_divergence_attack(m, u, s1, s2, eps)
        assert entry.params["floor_satisfied"] is True
        assert np.all(entry.forged.given_theta1.as_array() >= eps * (1 - 1e-9))
        assert np.all(entry.forged.given_theta2.as_array() >= eps * (1 - 1e-9))
        assert adversary_contribution(u, m, entry.forged, 1) > s1
        assert adversary_contribution(u, m, entry.forged, 2) > s2

    def test_uninformative_raises(self):
        with pytest.raises(UninformativeModelError):
            known_divergence_attack(bsc_model(0.5), 0.25, 0.5, 0.5, 1e-3)

    @pytest.mark.parametrize("construct", [known_divergence_attack, distortion_region])
    @pytest.mark.parametrize("bad", [math.nan, -0.3, math.inf])
    def test_bad_divergence_refused(self, construct, bad):
        for s1, s2 in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(OutOfRangeError, match="divergences must be finite"):
                construct(bsc_model(0.9), 0.25, s1, s2, 1e-3)

    @pytest.mark.parametrize(
        "construct", [known_divergence_attack, distortion_region, one_variable_feasibility]
    )
    @pytest.mark.parametrize("bad", [0.0, -1e-3, 0.5, 0.7, math.nan])
    def test_bad_epsilon_refused(self, construct, bad):
        with pytest.raises(OutOfRangeError, match="epsilon must lie in"):
            construct(bsc_model(0.9), 0.25, 0.05, 0.05, bad)


def _count_constructions(monkeypatch) -> list:
    """The (model, centrality) pairs ``multi_adversary_known`` hands to
    ``known_divergence_attack``, in call order."""
    calls = []

    def counted(model, u_k, s1, s2, eps):
        calls.append((model, u_k))
        return known_divergence_attack(model, u_k, s1, s2, eps)

    monkeypatch.setattr(attacks, "known_divergence_attack", counted)
    return calls


def _assert_lone_constructions(plan, models, u_effs, s1, s2, eps):
    """Each informative entry equals its own construction, and owns its params."""
    for entry, m, u_eff in zip(plan.entries, models, u_effs, strict=True):
        if entry.strategy == "unmodified_uninformative":
            assert entry.forged is m
            continue
        lone = known_divergence_attack(m, u_eff, s1, s2, eps)
        assert entry == lone
        assert entry.forged.given_theta1.mass == lone.forged.given_theta1.mass
        assert entry.forged.given_theta2.mass == lone.forged.given_theta2.mass
    assert len({id(e.params) for e in plan.entries}) == len(plan.entries)


class TestMultiAdversary:
    def test_shared_model_aggregate_forges_once(self, monkeypatch):
        us = list(np.linspace(0.005, 0.013, 30))  # aggregate 0.27
        models = [NONSEP] * 30
        calls = _count_constructions(monkeypatch)
        plan = multi_adversary_known(models, us, 0.1, 0.12, 1e-5, aggregate_centrality=True)
        assert calls == [(NONSEP, float(sum(us)))]
        _assert_lone_constructions(plan, models, [float(sum(us))] * 30, 0.1, 0.12, 1e-5)
        assert len({id(e.forged) for e in plan.entries}) == 1

    def test_distinct_centralities_forge_per_adversary(self, monkeypatch):
        us = [0.1, 0.15, 0.2, 0.12, 0.18]
        models = [bsc_model(0.9)] * 5
        calls = _count_constructions(monkeypatch)
        plan = multi_adversary_known(models, us, 0.4, 0.4, 1e-3)
        assert [u for _, u in calls] == us
        _assert_lone_constructions(plan, models, us, 0.4, 0.4, 1e-3)

    def test_one_construction_per_informative_model(self, monkeypatch):
        a, b, flat = bsc_model(0.9), make_model([0.6, 0.3, 0.1], [0.2, 0.3, 0.5]), bsc_model(0.5)
        b3 = make_model([0.6, 0.3, 0.1], [0.2, 0.3, 0.5])  # equal to b, another object
        models = [a, b, flat, a, b3, flat, a]
        us = [0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08]
        u_total = float(sum(us))
        calls = _count_constructions(monkeypatch)
        plan = multi_adversary_known(models, us, 0.2, 0.2, 1e-3, aggregate_centrality=True)
        assert calls == [(a, u_total), (b, u_total)]
        _assert_lone_constructions(plan, models, [u_total] * 7, 0.2, 0.2, 1e-3)
        assert plan.entries[4].forged is plan.entries[1].forged

    def test_mutating_one_entry_leaves_the_others(self):
        plan = multi_adversary_known([bsc_model(0.8)] * 3, [0.1] * 3, 0.2, 0.2, 1e-3)
        before = [dict(e.params) for e in plan.entries]
        plan.entries[0].params["x1"] = 0.0
        assert [e.params for e in plan.entries[1:]] == before[1:]

    def test_all_informative(self):
        models = [bsc_model(0.9)] * 3
        us = [0.1, 0.15, 0.2]
        plan = multi_adversary_known(models, us, 0.4, 0.4, 1e-3)
        for u, entry, m in zip(us, plan.entries, models):
            assert adversary_contribution(u, m, entry.forged, 1) > 0.4
            assert adversary_contribution(u, m, entry.forged, 2) > 0.4

    def test_uninformative_member_keeps_true_model(self):
        models = [bsc_model(0.9), bsc_model(0.5)]
        us = [0.25, 0.1]
        plan = multi_adversary_known(models, us, 0.3, 0.3, 1e-3)
        assert plan.entries[1].forged is models[1]
        total1 = sum(
            adversary_contribution(u, m, e.forged, 1)
            for u, m, e in zip(us, models, plan.entries)
        )
        total2 = sum(
            adversary_contribution(u, m, e.forged, 2)
            for u, m, e in zip(us, models, plan.entries)
        )
        assert total1 > 0.3 and total2 > 0.3

    def test_all_uninformative_raises(self):
        with pytest.raises(AllUninformativeError):
            multi_adversary_known([bsc_model(0.5)] * 2, [0.1, 0.1], 0.2, 0.2, 1e-3)

    def test_aggregate_centrality_mode(self):
        models = [NONSEP] * 4
        us = [0.0675] * 4  # aggregate 0.27
        plan = multi_adversary_known(models, us, 0.1, 0.12, 1e-5, aggregate_centrality=True)
        total1 = sum(
            adversary_contribution(u, m, e.forged, 1)
            for u, m, e in zip(us, models, plan.entries)
        )
        total2 = sum(
            adversary_contribution(u, m, e.forged, 2)
            for u, m, e in zip(us, models, plan.entries)
        )
        assert total1 > 0.1 and total2 > 0.12


class TestRegionMembership:
    def test_wedge_membership_equals_deception_inequalities(self):
        """Mapping any transformed point back to forged PMFs, the two linear
        wedge inequalities hold iff both deception thresholds are cleared."""
        from sociallearn.attacks import _masses_from_x, _pair_geometry
        from sociallearn.probability import LikelihoodModel, make_pmf

        rng = np.random.default_rng(2718)
        checked = 0
        while checked < 10**4:
            n = int(rng.integers(2, 5))
            m = random_model(rng, n)
            u = float(rng.uniform(0.05, 0.5))
            s1, s2 = (float(x) for x in rng.uniform(0.0, 1.5, 2))
            eps = float(rng.uniform(1e-4, 0.2 / n))
            pair = select_support_pair(m)
            geom = _pair_geometry(m, u, s1, s2, eps, pair)
            span = min(abs(math.log(eps)), 30.0)
            # the back-map only reaches the two off-diagonal quadrants
            x1 = float(rng.uniform(-span, span))
            x2 = float(-np.sign(x1) * rng.uniform(1e-3, span))
            i, j = pair
            l11, l21 = m.given_theta1[i], m.given_theta1[j]
            l12, l22 = m.given_theta2[i], m.given_theta2[j]
            r1v = (s1 - u * l11 * x1) / (u * l21)
            r2v = -(s2 + u * l12 * x1) / (u * l22)
            if min(abs(x2 - r1v), abs(x2 - r2v)) < 1e-9:
                continue  # skip boundary-ambiguous draws
            inside = r1v < x2 < r2v

            p1, p2, f1, f2 = _masses_from_x(geom, x1, x2)
            if min(p1, p2, geom.alpha_k - p1, geom.alpha_k - p2) <= 0.0:
                continue  # outside the valid mass square
            forged = LikelihoodModel(make_pmf(f1), make_pmf(f2))
            deceives = (
                adversary_contribution(u, m, forged, 1) > s1
                and adversary_contribution(u, m, forged, 2) > s2
            )
            assert deceives == inside
            checked += 1


def reference_floor_x2_interval(region, x1):
    """The feasible x2 interval with all four floor bounds intersected."""
    from sociallearn.attacks import _logsubexp

    x1 = np.asarray(x1, dtype=float)
    u, eps = region.u_k, region.eps
    leps, lal, lame = math.log(eps), math.log(region.alpha_k), math.log(region.alpha_k - eps)
    lo = np.maximum((region.s1 - u * region.l11 * x1) / (u * region.l21), -region.x_plus)
    hi = np.minimum(-(region.s2 + u * region.l12 * x1) / (u * region.l22), region.x_plus)
    la_m_ame_e1 = _logsubexp(lal, lame + x1)  # ln(alpha - (alpha-eps) e^{x1})
    la_m_eps_e1 = _logsubexp(lal, leps + x1)  # ln(alpha - eps e^{x1})
    l_ae1_m_eps = _logsubexp(lal + x1, leps)  # ln(alpha e^{x1} - eps)
    l_ae1_m_ame = _logsubexp(lal + x1, lame)  # ln(alpha e^{x1} - (alpha-eps))
    if region.d_k > 0:
        lo = np.maximum(lo, np.where(np.isfinite(la_m_ame_e1), la_m_ame_e1 - leps, -np.inf))
        hi = np.minimum(hi, la_m_eps_e1 - lame)
        hi = np.minimum(hi, lame + x1 - l_ae1_m_eps)
        lo = np.maximum(lo, leps + x1 - l_ae1_m_ame)
    else:
        hi = np.minimum(hi, la_m_ame_e1 - leps)
        lo = np.maximum(lo, la_m_eps_e1 - lame)
        lo = np.maximum(lo, lame + x1 - l_ae1_m_eps)
        hi = np.minimum(hi, np.where(np.isfinite(l_ae1_m_ame), leps + x1 - l_ae1_m_ame, np.inf))
    return lo, hi


def seeded_regions(seed: int, count: int) -> list:
    """Every nonempty pair region of random models, floors and divergences."""
    from sociallearn.attacks import _candidate_pairs, _pair_geometry

    rng = np.random.default_rng(seed)
    regions = []
    while len(regions) < count:
        n = int(rng.integers(2, 6))
        m = random_model(rng, n)
        u = float(rng.uniform(0.05, 0.9))
        s1, s2 = (float(x) for x in rng.uniform(0.0, 2.0, 2))
        eps = float(np.exp(rng.uniform(math.log(1e-8), math.log(1.0 / n))))
        for pair in _candidate_pairs(m):
            region = _pair_geometry(m, u, s1, s2, eps, pair)
            if not region.empty:
                regions.append(region)
    return regions


def wedge_side(region) -> np.ndarray:
    """The x1 range the search covers: from the apex to the box edge."""
    if region.d_k > 0:
        return np.asarray([region.x1_prime, region.x_plus])
    return np.asarray([-region.x_plus, region.x1_prime])


def slack(region, x1) -> np.ndarray:
    lo, hi = attacks._floor_x2_interval(region, x1)
    return hi - lo


class TestFloorFeasiblePoint:
    def test_two_bounds_equal_four(self):
        regions = seeded_regions(3442, 400)
        assert {r.d_k > 0 for r in regions} == {True, False}
        for region in regions:
            a, b = wedge_side(region)
            x1 = np.concatenate([
                a + (b - a) * (np.arange(768) + 0.5) / 768,
                np.linspace(-region.x_plus, region.x_plus, 257),
            ])
            lo, hi = attacks._floor_x2_interval(region, x1)
            ref_lo, ref_hi = reference_floor_x2_interval(region, x1)
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)

    def test_search_beats_a_dense_scan(self):
        found = 0
        for region in seeded_regions(2506, 300):
            a, b = wedge_side(region)
            best = float(slack(region, np.linspace(a, b, 20_001)).max())
            point = attacks._floor_feasible_point(region)
            if best > 1e-12:
                assert point is not None
            if point is None:
                continue
            x1, x2 = point
            lo, hi = attacks._floor_x2_interval(region, np.asarray([x1]))
            assert hi[0] - lo[0] >= best - 1e-12
            assert lo[0] < x2 < hi[0]
            entry = attacks._entry(region, x1, x2, floor_satisfied=True)
            assert entry is not None
            for pmf in (entry.forged.given_theta1, entry.forged.given_theta2):
                assert np.all(pmf.as_array() >= region.eps * (1 - 1e-9))
            found += 1
        assert found > 250

    def test_fallback_instance_has_no_slack(self):
        # the instance of test_floor_infeasible_fallback_still_deceives: the
        # wedge midpoint runs only because no pair has a floor-feasible point
        from sociallearn.attacks import _candidate_pairs, _pair_geometry

        m = make_model(
            [0.6938267132471291, 0.30617328675287087],
            [0.8734007302956696, 0.12659926970433033],
        )
        u, s1, s2 = 0.3538172813515632, 0.22952856180400527, 0.02135837253422679
        eps = 0.016329307825644363
        regions = [_pair_geometry(m, u, s1, s2, eps, p) for p in _candidate_pairs(m)]
        admissible = [r for r in regions if not r.empty]
        assert admissible
        for region in admissible:
            a, b = wedge_side(region)
            assert slack(region, np.linspace(a, b, 100_001)).max() <= 1e-12
            assert attacks._floor_feasible_point(region) is None


class TestOneVariableFeasibility:
    def test_slope_violation_instance_infeasible(self):
        # pair with negative determinant and first-symbol-dominant theta1 row
        m = make_model([0.6, 0.3, 0.1], [0.7, 0.1, 0.2])
        t1, t2 = m.given_theta1, m.given_theta2
        d = t2[1] * t1[0] - t1[1] * t2[0]
        assert d < 0 and t1[0] > t1[1]
        assert not one_variable_feasibility(m, 0.3, 0.5, 0.5, 1e-3, pair=(0, 1))

    def test_bsc_small_divergences_feasible(self):
        assert one_variable_feasibility(bsc_model(0.9), 0.25, 0.05, 0.05, 1e-3)

    def test_empty_region_infeasible(self):
        assert not one_variable_feasibility(bsc_model(0.9), 0.25, 0.5, 0.5, 0.08)


class TestRandomAttack:
    def test_floor_and_normalization(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 4)
        forged = random_attack(m, 0.01, rng)
        for pmf in (forged.given_theta1, forged.given_theta2):
            arr = pmf.as_array()
            assert np.all(arr >= 0.01 - 1e-15)
            assert abs(arr.sum() - 1.0) < 1e-9

    def test_seed_reproducibility(self):
        m = bsc_model(0.8)
        a = random_attack(m, 1e-3, np.random.default_rng(55))
        b = random_attack(m, 1e-3, np.random.default_rng(55))
        assert a.given_theta1.mass == b.given_theta1.mass
        assert a.given_theta2.mass == b.given_theta2.mass

    def test_rarely_deceives_both_states(self):
        # aggregate-centrality benchmark: undirected forgeries almost never
        # clear both thresholds simultaneously
        from sociallearn import kl_divergence

        u_total = 0.27
        s1 = (1 - u_total) * kl_divergence(NONSEP.given_theta1, NONSEP.given_theta2)
        s2 = (1 - u_total) * kl_divergence(NONSEP.given_theta2, NONSEP.given_theta1)
        rng = np.random.default_rng(101)
        both = 0
        for _ in range(1000):
            forged = random_attack(NONSEP, 1e-5, rng)
            r1 = adversary_contribution(u_total, NONSEP, forged, 1)
            r2 = adversary_contribution(u_total, NONSEP, forged, 2)
            if r1 > s1 and r2 > s2:
                both += 1
        assert both <= 50
