"""Probability primitives: construction, KL, sampling, observation models."""

import math

import numpy as np
import pytest

from sociallearn import (
    Hypothesis,
    bsc_model,
    expected_log_ratio,
    is_informative,
    kl_divergence,
    make_model,
    make_pmf,
    sample,
)
from sociallearn.errors import (
    AlphabetMismatchError,
    AlphabetTooSmallError,
    InfiniteDivergenceError,
    NegativeMassError,
    NotNormalizedError,
    OutOfRangeError,
)
from sociallearn.probability import _inverse_cdf

from helpers import random_pmf


def kl_by_summation(p, q):
    """Independent oracle: direct summation with explicit zero handling."""
    total = 0.0
    for ps, qs in zip(p.mass, q.mass):
        if ps > 0.0:
            total += ps * math.log(ps / qs)
    return total


class TestMakePmf:
    def test_uniform_binary(self):
        assert make_pmf([0.5, 0.5]).mass == (0.5, 0.5)

    def test_bsc_row(self):
        p = make_pmf([0.8, 0.2])
        assert p.alphabet_size == 2

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            make_pmf([0.5, 0.6])

    def test_negative_mass(self):
        with pytest.raises(NegativeMassError):
            make_pmf([1.2, -0.2])

    def test_alphabet_too_small(self):
        with pytest.raises(AlphabetTooSmallError):
            make_pmf([1.0])

    def test_no_silent_normalization(self):
        with pytest.raises(NotNormalizedError):
            make_pmf([0.3, 0.3, 0.3])


class TestKlDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_pmf(rng, int(rng.integers(2, 7)))
            assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_bsc_08_closed_form(self):
        # 0.6 * ln 4, cross-checked by direct summation
        p, q = make_pmf([0.8, 0.2]), make_pmf([0.2, 0.8])
        expected = 0.6 * math.log(4.0)
        assert expected == pytest.approx(0.8317766166719344, abs=1e-15)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)
        assert kl_divergence(p, q) == pytest.approx(kl_by_summation(p, q), abs=1e-15)

    def test_bsc_09_closed_form(self):
        p, q = make_pmf([0.9, 0.1]), make_pmf([0.1, 0.9])
        expected = 0.8 * math.log(9.0)
        assert expected == pytest.approx(1.7577796618689758, abs=1e-15)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)

    def test_infinite_divergence(self):
        with pytest.raises(InfiniteDivergenceError):
            kl_divergence(make_pmf([0.5, 0.5]), make_pmf([1.0, 0.0]))

    def test_zero_mass_in_p_is_fine(self):
        assert kl_divergence(make_pmf([1.0, 0.0]), make_pmf([0.5, 0.5])) == pytest.approx(
            math.log(2.0)
        )

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            kl_divergence(make_pmf([0.5, 0.5]), make_pmf([0.4, 0.3, 0.3]))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            p, q = random_pmf(rng, n, 0.01), random_pmf(rng, n, 0.01)
            d = kl_divergence(p, q)
            assert d >= 0.0
            if np.max(np.abs(p.as_array() - q.as_array())) > 1e-12:
                assert d > 0.0

    def test_expected_log_ratio_matches_kl(self):
        rng = np.random.default_rng(5)
        p, q = random_pmf(rng, 4, 0.02), random_pmf(rng, 4, 0.02)
        assert expected_log_ratio(p, p, q) == pytest.approx(kl_divergence(p, q), abs=1e-14)


class TestSample:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        p = make_pmf([1.0, 0.0])
        assert all(sample(p, rng) == 0 for _ in range(100))

    def test_fair_coin_frequency(self):
        # CLT: 3 sigma for 1e6 draws of a fair coin is ~0.0015
        rng = np.random.default_rng(42)
        draws = sample(make_pmf([0.5, 0.5]), rng, size=10**6)
        freq0 = float(np.mean(draws == 0))
        assert 0.498 <= freq0 <= 0.502

    def test_determinism(self):
        p = make_pmf([0.3, 0.3, 0.4])
        a = sample(p, np.random.default_rng(123), size=1000)
        b = sample(p, np.random.default_rng(123), size=1000)
        assert np.array_equal(a, b)

    def test_empirical_convergence(self):
        rng = np.random.default_rng(9)
        n_draws = 10**5
        tol = 5.0 / math.sqrt(n_draws)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            p = random_pmf(rng, n)
            draws = sample(p, rng, size=n_draws)
            freqs = np.bincount(draws, minlength=n) / n_draws
            assert np.max(np.abs(freqs - p.as_array())) <= tol


def searchsorted_symbols(pmf, u):
    """Independent oracle: binary search on the cumulative masses, clamped."""
    cum = np.cumsum(np.asarray(pmf, dtype=float))
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def inverse_cdf_symbols(pmf, u):
    cum = np.cumsum(np.asarray(pmf, dtype=float))[:-1]
    values = np.arange(len(pmf), dtype=np.int64)
    return _inverse_cdf(cum, values, u, np.empty(np.shape(u), dtype=np.int64))


class TestInverseCdf:
    def test_seeded_uniforms_match_searchsorted(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pmf = random_pmf(rng, int(rng.integers(2, 7))).mass
            u = rng.random(2000)
            assert np.array_equal(inverse_cdf_symbols(pmf, u), searchsorted_symbols(pmf, u))

    def test_uniform_equal_to_a_cumulative_mass(self):
        pmf = [0.25, 0.25, 0.5]
        cum = np.cumsum(pmf)
        u = np.array([0.0, cum[0], np.nextafter(cum[0], 0.0), cum[1], np.nextafter(cum[1], 1.0)])
        got = inverse_cdf_symbols(pmf, u)
        assert np.array_equal(got, searchsorted_symbols(pmf, u))
        assert list(got) == [0, 1, 0, 2, 2]

    def test_zero_mass_symbol_never_drawn(self):
        pmf = [0.3, 0.0, 0.7]
        edges = [0.3, np.nextafter(0.3, 0.0)]
        u = np.concatenate([np.random.default_rng(5).random(5000), edges])
        got = inverse_cdf_symbols(pmf, u)
        assert np.array_equal(got, searchsorted_symbols(pmf, u))
        assert not np.any(got == 1)

    def test_last_symbol_takes_mass_lost_to_rounding(self):
        pmf = [0.1] * 10
        cum = np.cumsum(pmf)
        assert cum[-1] < 1.0  # the cumulative sum ends just below 1
        u = np.array([cum[-2], cum[-1], np.nextafter(1.0, 0.0)])
        got = inverse_cdf_symbols(pmf, u)
        assert np.array_equal(got, searchsorted_symbols(pmf, u))
        assert list(got) == [9, 9, 9]

    def test_values_copied_bit_for_bit(self):
        # float values, nan and infinities included, come out with their bits
        values = np.array([-np.inf, np.nan, 1.0 / 3.0, -0.0])
        pmf = [0.25, 0.25, 0.25, 0.25]
        u = np.random.default_rng(6).random(400)
        cum = np.cumsum(pmf)[:-1]
        got = _inverse_cdf(cum, values, u, np.empty(u.shape))
        want = values[searchsorted_symbols(pmf, u)]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_padded_alphabets_broadcast(self):
        # two agents, alphabets of 2 and 4; the shorter one is padded with inf
        pmfs = ([0.4, 0.6], [0.1, 0.2, 0.3, 0.4])
        cum = np.full((3, 2), np.inf)
        values = np.zeros((4, 2), dtype=np.int64)
        for k, pmf in enumerate(pmfs):
            cum[: len(pmf) - 1, k] = np.cumsum(pmf)[:-1]
            values[: len(pmf), k] = np.arange(len(pmf))
        u = np.random.default_rng(7).random((300, 2))
        got = _inverse_cdf(cum, values, u, np.empty(u.shape, dtype=np.int64))
        for k, pmf in enumerate(pmfs):
            assert np.array_equal(got[:, k], searchsorted_symbols(pmf, u[:, k]))

    def test_sample_draws_through_it(self):
        pmf = make_pmf([0.2, 0.5, 0.3])
        draws = sample(pmf, np.random.default_rng(8), size=1000)
        u = np.random.default_rng(8).random(1000)
        assert np.array_equal(draws, searchsorted_symbols(pmf.mass, u))
        assert sample(pmf, np.random.default_rng(8)) == int(draws[0])


class TestBscModel:
    def test_09(self):
        m = bsc_model(0.9)
        assert m.given_theta1.as_array() == pytest.approx([0.9, 0.1], abs=1e-15)
        assert m.given_theta2.as_array() == pytest.approx([0.1, 0.9], abs=1e-15)

    def test_08(self):
        m = bsc_model(0.8)
        assert m.given_theta1.as_array() == pytest.approx([0.8, 0.2], abs=1e-15)

    def test_05_uninformative(self):
        assert not is_informative(bsc_model(0.5))

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(OutOfRangeError):
                bsc_model(bad)

    def test_complement_symmetry(self):
        # bsc(p) and bsc(1-p) differ by a symbol swap; the row KL is symmetric
        for p in (0.6, 0.75, 0.9):
            m, w = bsc_model(p), bsc_model(1.0 - p)
            assert m.given_theta1.mass == tuple(reversed(w.given_theta1.mass))
            assert kl_divergence(m.given_theta1, m.given_theta2) == pytest.approx(
                kl_divergence(w.given_theta1, w.given_theta2), abs=1e-14
            )


class TestIsInformative:
    def test_bsc_08(self):
        assert is_informative(bsc_model(0.8))

    def test_uniform_both(self):
        third = 1.0 / 3.0
        m = make_model([third] * 3, [third] * 3)
        assert not is_informative(m)

    def test_matches_the_array_form_at_the_tolerance(self):
        # the pure-Python scan gives the array form's answer, differences of a
        # few ulps either side of 1e-12 included
        rng = np.random.default_rng(12)
        for _ in range(2000):
            a = rng.dirichlet(np.ones(rng.integers(2, 6)))
            shift = rng.choice([0.0, 1e-12]) + rng.integers(-4, 5) * 2.0**-60
            b = a.copy()
            b[0] -= shift
            b[-1] += shift
            m = make_model(a, b)
            diff = m.given_theta1.as_array() - m.given_theta2.as_array()
            assert is_informative(m) is bool(np.max(np.abs(diff)) > 1e-12)


class TestHypothesis:
    def test_other(self):
        assert Hypothesis.THETA1.other is Hypothesis.THETA2
        assert Hypothesis.THETA2.other is Hypothesis.THETA1

    def test_from_name(self):
        assert Hypothesis.from_name("theta1") is Hypothesis.THETA1
        assert Hypothesis.from_name("theta2") is Hypothesis.THETA2
        for name in ("theta3", "theta_1", "THETA1", " theta1 ", "1", "2"):
            with pytest.raises(OutOfRangeError):
                Hypothesis.from_name(name)

