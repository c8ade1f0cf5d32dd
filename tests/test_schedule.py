from itertools import islice

import numpy as np
import pytest

from altproj.engine import rate_bound
from altproj.schedule import Schedule, diagnose, filter_pair

from reference import product_lemma_check


class TestConstruction:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Schedule.constant(-0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda v: Schedule.constant(v),
        lambda v: Schedule.cyclic([0.5, v]),
        lambda v: Schedule.explicit([0.5, v, 0.5]),
        lambda v: Schedule.random_uniform(v, 2.0, seed=1),
        lambda v: Schedule.random_uniform(0.0, v, seed=1),
    ], ids=["constant", "cyclic", "explicit", "random-lo", "random-hi"])
    def test_non_finite_coefficient_rejected(self, make, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            make(bad)

    def test_non_finite_coefficient_rejected_from_dict(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Schedule.from_dict({"kind": "explicit", "values": [1.0, float("nan")]})

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            Schedule.random_uniform(0.0, 2.0, None)

    def test_explicit_over_length_rejected(self):
        s = Schedule.explicit([1.0, 1.5])
        with pytest.raises(ValueError):
            s.alphas(3)

    def test_random_prefix_stable(self):
        s = Schedule.random_uniform(0.1, 1.9, seed=42)
        assert np.array_equal(s.alphas(10), s.alphas(20)[:10])

    def test_cyclic_repeats(self):
        s = Schedule.cyclic([0.5, 1.5])
        assert np.allclose(s.alphas(5), [0.5, 1.5, 0.5, 1.5, 0.5])

    def test_roundtrip_serialization(self):
        for s in (
            Schedule.constant(1.2),
            Schedule.cyclic([0.5, 1.0]),
            Schedule.harmonic_to_2(offset=1),
            Schedule.geometric_to_2(gap=0.5, ratio=0.5),
            Schedule.explicit([0.1, 0.2]),
            Schedule.random_uniform(0.0, 2.0, seed=3),
        ):
            back = Schedule.from_dict(s.to_dict())
            assert back == s
            assert np.array_equal(back.alphas(4) if s.kind != "explicit" else back.alphas(2),
                                  s.alphas(4) if s.kind != "explicit" else s.alphas(2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Schedule.from_dict({"kind": "mystery"})


ALL_KINDS = [
    Schedule.constant(1.2),
    Schedule.cyclic([0.5, 1.0, 1.5]),
    Schedule.harmonic_to_2(offset=1),
    Schedule.geometric_to_2(gap=0.5, ratio=0.999),
    Schedule.explicit(np.linspace(0.1, 1.9, 10_000)),
    Schedule.random_uniform(0.0, 2.0, seed=3),
]


class TestStream:
    @pytest.mark.parametrize("s", ALL_KINDS, ids=lambda s: s.kind)
    def test_prefix_equals_alphas(self, s):
        # 10 000 terms span several generation chunks
        n = 10_000
        streamed = np.fromiter(islice(s.stream(), n), dtype=float, count=n)
        assert np.array_equal(streamed, s.alphas(n))

    def test_explicit_stream_ends_after_last_term(self):
        s = Schedule.explicit([0.5, 1.0, 1.5])
        assert list(s.stream()) == [0.5, 1.0, 1.5]
        assert list(Schedule.explicit([]).stream()) == []

    def test_length(self):
        assert Schedule.explicit([0.5, 1.0]).length == 2
        assert Schedule.constant(1.0).length is None


class TestDiagnose:
    def test_constant_one_diverges(self):
        diag = diagnose(Schedule.constant(1.0), mu=1.0, horizon=10_000)
        assert diag.verdict == "diverges-numerically"
        assert diag.partial_sums[-1] == pytest.approx(10_000.0)
        assert diag.in_box and diag.box_eps == pytest.approx(1.0)

    def test_geometric_approach_converges(self):
        # sum of s*(2-s) is bounded by a geometric series
        diag = diagnose(Schedule.geometric_to_2(gap=1.0, ratio=0.5), mu=1.0, horizon=10_000)
        assert diag.verdict == "converges-numerically"
        assert diag.partial_sums[-1] <= 4.0

    def test_harmonic_approach_diverges(self):
        # partial sums grow like twice the harmonic series
        diag = diagnose(Schedule.harmonic_to_2(), mu=1.0, horizon=10_000,
                        growth_threshold=15.0)
        assert diag.verdict == "diverges-numerically"
        expected = np.sum((2.0 - 1.0 / np.arange(1, 10_001)) / np.arange(1, 10_001))
        assert diag.partial_sums[-1] == pytest.approx(expected)

    def test_out_of_range_counted_as_violations(self):
        diag = diagnose(Schedule.constant(1.5), mu=2.0, horizon=100)
        assert diag.violations == 100
        assert diag.verdict == "indeterminate"

    def test_partial_sums_nondecreasing_in_range(self):
        diag = diagnose(Schedule.random_uniform(0.0, 2.0, seed=5), mu=1.0, horizon=500)
        assert np.all(np.diff(diag.partial_sums) >= 0)


class TestFilterPoly:
    """The filter polynomial F_n: the first of the pair filter_pair returns."""

    def test_empty_product_is_one(self):
        assert filter_pair(Schedule.constant(1.0), 0.7, 0)[0] == 1.0

    def test_unit_step_annihilates(self):
        s = Schedule.constant(1.0)
        for n in (1, 2, 10):
            assert filter_pair(s, 1.0, n)[0] == 0.0

    def test_half_step_closed_form(self):
        assert filter_pair(Schedule.constant(0.5), 1.0, 3)[0] == pytest.approx(0.125)

    @pytest.mark.parametrize("seed", range(5))
    def test_bounded_by_one_inside_box(self, seed):
        # scaled coefficients in [0, 2] keep every filter value in [-1, 1]
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.2, 1.0)
        s = Schedule.random_uniform(0.0, 2.0 / mu, seed=seed)
        for lam in np.linspace(1e-3, mu, 7):
            for n in (1, 5, 20, 100):
                assert abs(filter_pair(s, lam, n)[0]) <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_array_matches_per_value_products(self, seed):
        # coefficients up to 1.9 on lam up to 1 flip the sign of some factors
        s = Schedule.random_uniform(0.0, 1.9, seed=seed)
        lam = np.random.default_rng(seed).uniform(0.0, 1.0, (3, 4))
        got = filter_pair(s, lam, 60)[0]
        assert isinstance(got, np.ndarray) and got.shape == lam.shape
        expected = [np.prod(1.0 - s.alphas(60) * v) for v in lam.ravel()]
        assert np.allclose(got.ravel(), expected, rtol=1e-13, atol=1e-300)
        assert np.array_equal(filter_pair(s, lam, 0)[0], np.ones_like(lam))
        assert filter_pair(s, np.zeros(0), 60)[0].shape == (0,)

    def test_scalar_gives_float(self):
        value = filter_pair(Schedule.cyclic([0.5, 1.5]), 0.3, 7)[0]
        assert type(value) is float
        assert value == pytest.approx(0.85 ** 4 * 0.55 ** 3, rel=1e-14)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            filter_pair(Schedule.constant(1.0), 0.5, -1)

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_is_filter_and_its_complement(self, seed):
        s = Schedule.random_uniform(0.0, 1.9, seed=seed)
        lam = np.random.default_rng(seed).uniform(0.0, 1.0, 12)
        f, g = filter_pair(s, lam, 60)
        expected = [np.prod(1.0 - s.alphas(60) * v) for v in lam]
        assert np.allclose(f, expected, rtol=1e-13, atol=1e-300)
        assert np.allclose(g, 1.0 - f, rtol=0, atol=1e-14)
        assert np.array_equal(filter_pair(s, lam, 0)[1], np.zeros_like(lam))

    def test_complement_keeps_accuracy_where_filter_rounds_to_one(self):
        # F_100(1e-20) = 1 - 1e-18 rounds to 1, so 1 - F would give 0
        f, g = filter_pair(Schedule.constant(1.0), 1e-20, 100)
        assert f == 1.0 and type(g) is float
        assert g == pytest.approx(1e-18, rel=1e-14)

    def test_divergent_schedule_drives_filter_to_zero(self):
        s = Schedule.constant(1.0)
        for lam in np.linspace(0.05, 1.0, 10):
            assert abs(filter_pair(s, lam, 2000)[0]) < 1e-6


class TestProductLemma:
    def test_unit_values_kill_product(self):
        partial, prod = product_lemma_check([1.0] * 5)
        assert partial == pytest.approx(5.0)
        assert prod == 0.0

    def test_boundary_values_never_decay(self):
        partial, prod = product_lemma_check([2.0] * 50)
        assert partial == pytest.approx(0.0)
        assert prod == pytest.approx(1.0)

    def test_half_constant_closed_form(self):
        partial, prod = product_lemma_check([0.5] * 100, horizon=20)
        assert partial == pytest.approx(15.0)
        assert prod == pytest.approx(0.5**20)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            product_lemma_check([0.5, 2.5])

    @pytest.mark.parametrize("seed", range(10))
    def test_exponential_bound(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.0, 2.0, 200)
        partial, prod = product_lemma_check(s)
        a = np.minimum(s, 2.0 - s)
        assert prod <= np.exp(-np.sum(a)) * (1 + 1e-12)
        # the clamped terms bracket the series terms
        terms = s * (2.0 - s)
        assert np.all(a <= terms + 1e-15) and np.all(terms <= 2 * a + 1e-15)
        del partial


class TestMaxAdmissibleConstant:
    """The largest constant relaxation with alpha * nu^2 <= 2 - eps is
    (2 - eps) / nu^2; the rate bound reads back its margin eps."""

    def test_unrelaxed_case(self):
        alpha = (2.0 - 1.0) / 1.0**2
        assert alpha == pytest.approx(1.0)
        assert rate_bound(1.0, 1.0, [alpha]).epsilon == pytest.approx(1.0)

    def test_over_relaxation_beyond_two(self):
        nu = np.sqrt(0.5)
        alpha = (2.0 - 0.5) / nu**2
        assert alpha == pytest.approx(3.0)
        assert rate_bound(nu, 1.0, [alpha]).epsilon == pytest.approx(0.5)

    def test_direct_formula(self):
        alpha = (2.0 - 0.5) / 1.0**2
        assert alpha == pytest.approx(1.5)
        assert rate_bound(1.0, 1.0, [alpha]).epsilon == pytest.approx(0.5)

    def test_degenerate_nu_rejected(self):
        with pytest.raises(ValueError):
            rate_bound(0.0, 1.0, [1.0])
