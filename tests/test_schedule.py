import copy
import itertools
import math
import pickle
import re
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from altproj.engine import rate_bound
from altproj.schedule import (MU_ULPS, Schedule, _filter_runs, _theorem, classify, diagnose,
                              filter_pair)

from helpers import property_settings
from reference import product_lemma_check, stepwise_filter_pair


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

    def test_serialized_form_does_not_change_the_schedule(self):
        s = Schedule.cyclic([0.5, 1.0])
        try:
            s.to_dict()["values"].append(-7.0)
        except AttributeError:  # the values need not be a list
            pass
        assert s.alphas(3).tolist() == [0.5, 1.0, 0.5]

    @pytest.mark.parametrize("kind, params", [
        ("constant", {"value": float("nan")}),
        ("constant", {"value": -1.0}),
        ("cyclic", {"values": []}),
        ("constant", {}),
    ], ids=["nan", "negative", "empty-cycle", "no-value"])
    def test_direct_construction_is_checked_as_from_dict(self, kind, params):
        with pytest.raises(ValueError) as loaded:
            Schedule.from_dict({"kind": kind, **params})
        with pytest.raises(ValueError) as direct:
            Schedule(kind, params)
        assert str(direct.value) == str(loaded.value)


ALL_KINDS = [
    Schedule.constant(1.2),
    Schedule.cyclic([0.5, 1.0, 1.5]),
    Schedule.harmonic_to_2(offset=1),
    Schedule.geometric_to_2(gap=0.5, ratio=0.999),
    Schedule.explicit(np.linspace(0.1, 1.9, 10_000)),
    Schedule.random_uniform(0.0, 2.0, seed=3),
]


class TestValue:
    """A schedule is a value: read-only params, a hash that agrees with
    equality, and copies that keep both."""

    @pytest.mark.parametrize("s", ALL_KINDS, ids=lambda s: s.kind)
    def test_params_are_read_only(self, s):
        # a dict here once let s.params["value"] = -1.0 pass every check
        with pytest.raises(TypeError):
            s.params["value"] = -1.0
        with pytest.raises(TypeError):
            del s.params[next(iter(s.params))]

    @pytest.mark.parametrize("s", ALL_KINDS, ids=lambda s: s.kind)
    def test_equal_schedules_hash_equal(self, s):
        for twin in (Schedule.from_dict(s.to_dict()), Schedule(s.kind, dict(s.params))):
            assert twin == s and hash(twin) == hash(s)
            assert len({s, twin}) == 1

    @pytest.mark.parametrize("s", ALL_KINDS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy,
                                       copy.copy], ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_equal_read_only_values(self, s, clone):
        back = clone(s)
        assert back == s and hash(back) == hash(s)
        assert np.array_equal(back.alphas(5), s.alphas(5))
        with pytest.raises(TypeError):
            back.params["value"] = -1.0

    def test_different_schedules_are_unequal(self):
        assert len({*ALL_KINDS, Schedule.constant(1.3), Schedule.cyclic([1.0, 0.5, 1.5])}) == 8

    @pytest.mark.parametrize("s, period", [
        (Schedule.constant(1.2), (1.2,)),
        (Schedule.cyclic([0.5, 1, 1.5]), (0.5, 1.0, 1.5)),
        (Schedule.harmonic_to_2(offset=1), None),
        (Schedule.geometric_to_2(gap=0.5, ratio=0.999), None),
        (Schedule.explicit([0.5, 0.5]), None),
        (Schedule.random_uniform(1.0, 1.0, seed=3), None),
    ], ids=lambda v: v.kind if isinstance(v, Schedule) else None)
    def test_period(self, s, period):
        assert s.period == period
        if period is not None:  # the terms repeat it
            assert s.alphas(3 * len(period) + 1).tolist() == [*period * 3, period[0]]


class TestStream:
    @pytest.mark.parametrize("s", ALL_KINDS, ids=lambda s: s.kind)
    def test_prefix_equals_alphas(self, s):
        # 10 000 terms in blocks of uneven sizes, as the engine asks for them
        sizes = [1, 16, 32, 4096, 5855]
        blocks = list(s.stream(sizes))
        assert [b.size for b in blocks] == sizes
        assert np.array_equal(np.concatenate(blocks), s.alphas(10_000))

    def test_explicit_stream_ends_after_last_term(self):
        s = Schedule.explicit([0.5, 1.0, 1.5])
        assert [b.tolist() for b in s.stream([2, 2, 2])] == [[0.5, 1.0], [1.5]]
        assert [b.tolist() for b in s.stream([3, 3])] == [[0.5, 1.0, 1.5]]
        assert list(Schedule.explicit([]).stream([1, 1])) == []

    def test_length(self):
        assert Schedule.explicit([0.5, 1.0]).length == 2
        assert Schedule.constant(1.0).length is None


def _split(values):
    """(value, count) for each run of equal consecutive *values*, one by one."""
    return [(v, len(list(group))) for v, group in itertools.groupby(values)]


class TestRuns:
    @pytest.mark.parametrize("s", [*ALL_KINDS, Schedule.explicit([0.5, 0.5, 1.0, 1.0, 1.0, 0.5]),
                                   Schedule.cyclic([1.0, 1.0, 0.5])], ids=lambda s: s.kind)
    @pytest.mark.parametrize("n", [0, 1, 2, 6, 7, 10_000])
    def test_runs_split_the_coefficients(self, s, n):
        if s.length is not None and n > s.length:
            with pytest.raises(ValueError, match="explicit schedule has only"):
                s.runs(n)
            return
        runs = s.runs(n)
        assert runs == _split(s.alphas(n).tolist())
        assert all(type(alpha) is float and type(m) is int for alpha, m in runs)

    @pytest.mark.parametrize("s", ALL_KINDS, ids=lambda s: s.kind)
    def test_negative_count_rejected(self, s):
        with pytest.raises(ValueError, match="n must be a nonnegative integer, got -1"):
            s.runs(-1)

    @pytest.mark.parametrize("s", ALL_KINDS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integer_count_rejected(self, s, n):
        # a constant schedule used to take 2.5 as a run of 2.5 steps, and
        # filter_pair to give 0.5^2.5 for it
        with pytest.raises(ValueError, match=re.escape(f"n must be a nonnegative integer, got {n!r}")):
            s.runs(n)
        with pytest.raises(ValueError, match="n must be"):
            s.alphas(n)
        with pytest.raises(ValueError, match="n must be"):
            filter_pair(s, 1.0, n)

    def test_explicit_schedule_past_its_end_rejected(self):
        with pytest.raises(ValueError, match="explicit schedule has only 3 terms, 4 requested"):
            Schedule.explicit([0.5, 1.0, 1.0]).runs(4)

    def test_constant_run_draws_no_terms(self, monkeypatch):
        def refuse(self, n):
            raise AssertionError(f"drew {n} terms")

        monkeypatch.setattr(Schedule, "alphas", refuse)
        assert Schedule.constant(0.5).runs(10 ** 18) == [(0.5, 10 ** 18)]


class TestDiagnose:
    def test_constant_one_diverges(self):
        diag = diagnose(Schedule.constant(1.0), mu=1.0, horizon=10_000)
        assert diag.verdict == "diverges"
        assert diag.partial_sum == pytest.approx(10_000.0)
        assert diag.in_box and diag.box_eps == pytest.approx(1.0)

    def test_geometric_approach_converges(self):
        # sum of s*(2-s) is bounded by a geometric series; mu = 1 is the
        # boundary of the class, which one ulp more of mu leaves
        sched = Schedule.geometric_to_2(gap=1.0, ratio=0.5)
        assert _theorem(sched, 1.0) == ("converges", None)
        diag = diagnose(sched, mu=1.0, horizon=10_000)
        assert diag.verdict == "ambiguous"
        assert diag.partial_sum <= 4.0

    def test_harmonic_approach_diverges(self):
        # partial sums grow like twice the harmonic series
        diag = diagnose(Schedule.harmonic_to_2(), mu=1.0, horizon=10_000)
        assert diag.verdict == "diverges"
        expected = np.sum((2.0 - 1.0 / np.arange(1, 10_001)) / np.arange(1, 10_001))
        assert diag.partial_sum == pytest.approx(expected)

    def test_out_of_range_counted_as_violations(self):
        diag = diagnose(Schedule.constant(1.5), mu=2.0, horizon=100)
        assert diag.violations == 100
        assert diag.verdict == "outside-class"

    def test_explicit_schedule_diagnosed_over_its_own_terms(self):
        # a horizon past the last term diagnoses the terms there are
        sched = Schedule.explicit([0.5, 1.0, 1.5])
        capped, exact = diagnose(sched, 1.0, horizon=10_000), diagnose(sched, 1.0, horizon=3)
        assert capped.partial_sum == exact.partial_sum
        assert (capped.verdict, capped.box_eps) == (exact.verdict, exact.box_eps)

    def test_empty_explicit_schedule_rejected(self):
        with pytest.raises(ValueError, match="no terms"):
            diagnose(Schedule.explicit([]), 1.0)

    @pytest.mark.parametrize("sched", [
        Schedule.constant(1.2),
        Schedule.cyclic([0.5, 1.0, 1.5]),
        Schedule.harmonic_to_2(offset=1),
        Schedule.geometric_to_2(gap=0.5, ratio=0.999),
        Schedule.explicit(np.linspace(0.1, 1.9, 700)),
        Schedule.random_uniform(0.0, 2.0, seed=5),
    ], ids=lambda s: s.kind)
    def test_partial_sum_is_the_series_over_the_horizon(self, sched):
        # every term lies in [0, 2] at mu = 1; the sum is taken over runs
        diag = diagnose(sched, mu=1.0, horizon=500)
        expected = product_lemma_check(sched.alphas(500), horizon=500)[0]
        assert diag.partial_sum == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize("values", [
        [0.5, 1.5],
        [0.1, 0.7, 1.9],
        np.random.default_rng(11).uniform(0.0, 2.0, 7).tolist(),
    ], ids=lambda v: f"P={len(v)}")
    @pytest.mark.parametrize("extra", [0, 1], ids=["multiple", "remainder"])
    def test_periodic_partial_sum_rounding(self, values, extra):
        # q copies of one period's sum and the sum of its first r terms:
        # summing P nonnegative terms errs by at most (P - 1) u relative, and
        # the product by q and the final addition by u each, so the result is
        # within (P + 1) u |x| < (P + 1) ulp of the exact sum of the rounded
        # terms s (2 - s)
        sched, mu = Schedule.cyclic(values), 0.9
        n = 3000 * len(values) + extra * (len(values) - 1)
        s = sched.alphas(n) * mu
        exact = math.fsum((s * (2.0 - s)).tolist())
        partial_sum = diagnose(sched, mu, horizon=n).partial_sum
        assert abs(partial_sum - exact) <= (len(values) + 1) * math.ulp(exact)

    def test_periodic_counts_are_taken_over_one_period(self):
        # at mu = 1, 2.5 lies outside the class: 3 of each period of 4, and
        # 2 of the first 3 terms of the next period
        diag = diagnose(Schedule.cyclic([2.5, 0.5, 2.5, 3.0]), 1.0, horizon=4 * 25 + 3)
        assert (diag.violations, diag.box_eps) == (3 * 25 + 2, 0.0)
        short = diagnose(Schedule.cyclic([1.0, 0.5, 2.5]), 1.0, horizon=2)
        assert (short.violations, short.box_eps, short.partial_sum) == (0, 0.5, 1.0 + 0.75)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 2.5, True, "5"])
    def test_horizon_must_be_a_count(self, horizon):
        # a NaN horizon once turned off the ambiguity test: constant 2.0 at
        # mu = 1 "converges", which the default horizon calls ambiguous
        for decide in (classify, diagnose):
            with pytest.raises(ValueError, match="horizon"):
                decide(Schedule.constant(2.0), 1.0, horizon=horizon)

    def test_integral_float_horizon_is_read_as_its_int(self):
        sched = Schedule.cyclic([0.5, 1.5])
        assert diagnose(sched, 1.0, horizon=5.0) == diagnose(sched, 1.0, horizon=5)


ABOVE_ONE = float(np.nextafter(1.0, 2.0))

# (schedule, mu, the theorem's verdict and first violation at mu itself,
# classify's verdict at the default horizon), at mu below, at and above
# each boundary of each kind's rule
THEOREMS = [
    # constant c: in the class iff c mu <= 2; the series diverges iff 0 < c mu < 2
    (Schedule.constant(1.0), 1.5, "diverges", None, "diverges"),
    (Schedule.constant(1.0), 2.0, "converges", None, "ambiguous"),
    (Schedule.constant(1.0), 2.5, "outside-class", 0, "outside-class"),
    (Schedule.constant(0.0), 1.0, "converges", None, "converges"),
    # 1.5 mu rounds to 2 at the float 4/3 (the exact product is 2 - 2^-53),
    # and 1.5 is the least coefficient above 2 / mu one ulp higher
    (Schedule.constant(1.5), 4 / 3, "diverges", None, "ambiguous"),
    (Schedule.constant(1.5), float(np.nextafter(4 / 3, 2.0)), "outside-class", 0, "ambiguous"),
    # cyclic: decided over one period
    (Schedule.cyclic([0.5, 1.0, 2.0]), 0.5, "diverges", None, "diverges"),
    (Schedule.cyclic([0.5, 1.0, 2.0]), 1.0, "diverges", None, "ambiguous"),
    (Schedule.cyclic([0.5, 1.0, 2.0]), 1.5, "outside-class", 2, "outside-class"),
    (Schedule.cyclic([0.0, 2.0]), 1.0, "converges", None, "ambiguous"),
    (Schedule.cyclic([0.0, 0.0]), 1.0, "converges", None, "converges"),
    # harmonic-to-2: diverges for mu <= 1; above, s_n > 2 from the first
    # m = n + 1 + offset > mu / (2 (mu - 1))
    (Schedule.harmonic_to_2(), 0.5, "diverges", None, "diverges"),
    (Schedule.harmonic_to_2(), 1.0, "diverges", None, "diverges"),
    (Schedule.harmonic_to_2(), ABOVE_ONE, "outside-class", 3002399751580330, "outside-class"),
    (Schedule.harmonic_to_2(), 1.25, "outside-class", 2, "outside-class"),
    (Schedule.harmonic_to_2(offset=3), 1.25, "outside-class", 0, "outside-class"),
    # geometric-to-2: diverges for mu < 1, converges at 1; above, s_n > 2
    # once gap ratio^n < 2 (1 - 1/mu)
    (Schedule.geometric_to_2(1.0, 0.5), 0.5, "diverges", None, "diverges"),
    (Schedule.geometric_to_2(1.0, 0.5), 1.0, "converges", None, "ambiguous"),
    (Schedule.geometric_to_2(1.0, 0.5), ABOVE_ONE, "outside-class", 52, "ambiguous"),
    (Schedule.geometric_to_2(1.0, 0.5), 1.25, "outside-class", 2, "outside-class"),
    # random-uniform: diverges almost surely when [lo mu, hi mu] lies in
    # [0, 2] and is not a single point at 0 or 2
    (Schedule.random_uniform(0.5, 2.0, 1), 0.5, "diverges-almost-surely", None,
     "diverges-almost-surely"),
    (Schedule.random_uniform(0.5, 2.0, 1), 1.0, "diverges-almost-surely", None, "ambiguous"),
    (Schedule.random_uniform(0.5, 2.0, 1), 1.5, "outside-class", None, "outside-class"),
    (Schedule.random_uniform(0.0, 2.0, 1), 1.0, "diverges-almost-surely", None, "ambiguous"),
    (Schedule.random_uniform(1.0, 1.0, 1), 1.0, "diverges-almost-surely", None,
     "diverges-almost-surely"),
    (Schedule.random_uniform(0.0, 0.0, 1), 1.0, "converges", None, "converges"),
    (Schedule.random_uniform(2.0, 2.0, 1), 1.0, "converges", None, "ambiguous"),
    # explicit: a finite sequence, inside the box or not
    (Schedule.explicit([0.5, 1.0, 2.0]), 0.5, "finite", None, "finite"),
    (Schedule.explicit([0.5, 1.0, 2.0]), 1.0, "finite", None, "ambiguous"),
    (Schedule.explicit([0.5, 1.0, 2.0]), 1.5, "outside-class", 2, "outside-class"),
]


def _assert_first_violation(sched, index, mu):
    """Term *index* of s_n = alpha_n mu exceeds 2 and the term before it
    does not, in exact products of the float coefficients and mu (a
    product just above 2 can round to 2)."""
    s = [Fraction(float(a)) * Fraction(mu) for a in sched.alphas(index + 1)[-2:]]
    assert s[-1] > 2
    assert index == 0 or s[0] <= 2


class TestClassify:
    @pytest.mark.parametrize("sched, mu, theorem, index, verdict", THEOREMS,
                             ids=lambda v: v.kind if isinstance(v, Schedule) else repr(v))
    def test_each_kind_follows_its_theorem(self, sched, mu, theorem, index, verdict):
        assert _theorem(sched, mu) == (theorem, index)
        assert classify(sched, mu) == (verdict, index)
        diag = diagnose(sched, mu)
        assert (diag.verdict, diag.first_violation, diag.scaled_by) == (verdict, index, mu)
        if sched.kind != "random-uniform":  # the horizon holds a violation iff it reaches it
            assert (diag.violations > 0) == (index is not None and index < 10_000)
        if index is not None and index < 10_000:
            _assert_first_violation(sched, index, mu)

    def test_widened_violation_past_the_horizon_is_not_ambiguous(self):
        # a run of 1 step never reaches the term at 2, which leaves the
        # class one ulp above mu = 1
        sched = Schedule.explicit([0.5, 2.0])
        assert classify(sched, 1.0, horizon=1) == ("finite", None)
        assert classify(sched, 1.0, horizon=2) == ("ambiguous", None)
        # harmonic-to-2 leaves the class ~7e13 steps in, MU_ULPS ulp above 1
        assert classify(Schedule.harmonic_to_2(), 1.0, horizon=10 ** 13)[0] == "diverges"
        assert classify(Schedule.harmonic_to_2(), 1.0, horizon=10 ** 14)[0] == "ambiguous"
        assert _theorem(Schedule.harmonic_to_2(), 1.0 + MU_ULPS * np.finfo(float).eps)[0] \
            == "outside-class"
        # the violation can lie on mu's side: one ulp above 1, harmonic-to-2
        # leaves the class ~3e15 steps in, and MU_ULPS ulp below it does not
        index = 3002399751580330
        assert classify(Schedule.harmonic_to_2(), ABOVE_ONE, horizon=index) \
            == ("outside-class", index)
        assert classify(Schedule.harmonic_to_2(), ABOVE_ONE, horizon=index + 1) \
            == ("ambiguous", index)
        assert _theorem(Schedule.harmonic_to_2(), 1.0 - MU_ULPS * np.finfo(float).eps) \
            == ("diverges", None)

    def test_harmonic_diverges_at_the_default_horizon(self):
        diag = diagnose(Schedule.harmonic_to_2(), 1.0)
        assert (diag.verdict, diag.first_violation) == ("diverges", None)
        assert diag.partial_sum == pytest.approx(17.93, abs=5e-3)

    def test_geometric_one_ulp_above_the_boundary_is_ambiguous(self):
        diag = diagnose(Schedule.geometric_to_2(gap=1.0, ratio=0.5), np.nextafter(1.0, 2.0))
        assert (diag.verdict, diag.first_violation) == ("ambiguous", 52)

    @pytest.mark.parametrize("mu", [True, "1.0", float("nan"), 0.0, -1.0, float("inf")])
    def test_mu_must_be_a_positive_finite_number(self, mu):
        with pytest.raises(ValueError, match="mu must be"):
            classify(Schedule.constant(1.0), mu)
        with pytest.raises(ValueError, match="mu must be"):
            diagnose(Schedule.constant(1.0), mu)

    def test_extreme_mu_is_decided(self):
        # 2 / mu overflows, and mu (1 + MU_ULPS eps) would
        assert classify(Schedule.constant(1.0), 5e-324) == ("diverges", None)
        assert classify(Schedule.constant(1.0), np.finfo(float).max) == ("outside-class", 0)

    def test_constant_schedule_costs_no_memory_in_the_horizon(self):
        tracemalloc.start()
        try:
            diag = diagnose(Schedule.constant(1.0), 1.0, horizon=10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (diag.verdict, diag.partial_sum, diag.violations) == ("diverges", 1e9, 0)
        assert peak < 2 ** 20

    @property_settings(150)
    @given(st.floats(1.0, 4.0, exclude_min=True), st.integers(0, 50))
    def test_harmonic_first_violation(self, mu, offset):
        self._check_first_violation(Schedule.harmonic_to_2(offset), mu)

    @property_settings(150)
    @given(st.floats(1.0, 4.0, exclude_min=True), st.floats(0.0, 2.0, exclude_min=True),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_geometric_first_violation(self, mu, gap, ratio):
        self._check_first_violation(Schedule.geometric_to_2(gap, ratio), mu)

    @staticmethod
    def _check_first_violation(sched, mu):
        verdict, index = _theorem(sched, mu)
        assert verdict == "outside-class"
        assume(index <= 10 ** 6)
        _assert_first_violation(sched, index, mu)

    def test_readme_names_every_verdict(self):
        # the check-schedule paragraph of README documents each verdict
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("\n- `check-schedule`", 1)[1].split("\n#", 1)[0]
        verdicts = {v for row in THEOREMS for v in (row[2], row[4])}
        assert len(verdicts) == 6
        for verdict in verdicts:
            assert f"`{verdict}`" in paragraph


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

    @pytest.mark.parametrize("length", [1, 2, 3, 16, 17, 255])
    def test_runs_match_per_value_products(self, length):
        # a run of 1.7 and a run of zeros between single terms; on lam up to
        # 2 / 1.7, alpha lam passes 1 in the run, flipping the factor's sign
        alphas = np.concatenate([[0.5], np.full(length, 1.7), np.zeros(length), [1.5]])
        lam = np.linspace(0.0, 2.0 / 1.7, 41)
        f, g = filter_pair(Schedule.explicit(alphas), lam, alphas.size)
        expected = np.array([np.prod(1.0 - alphas * v) for v in lam])
        assert np.allclose(f, expected, rtol=1e-13, atol=1e-300)
        assert np.allclose(g, 1.0 - expected, rtol=0, atol=1e-14)

    def test_filter_keeps_relative_accuracy_where_factor_is_small(self):
        # 1 - h rounds away what is left of F once h is within 1e-16 of 1;
        # squaring the factor keeps it
        assert filter_pair(Schedule.constant(0.5), 1.0, 100)[0] == 2.0 ** -100
        f = filter_pair(Schedule.constant(0.9), 1.0, 40)[0]
        assert f == pytest.approx(np.prod(np.full(40, 1.0 - 0.9)), rel=1e-13)

    @pytest.mark.parametrize("alpha, lam, n", [(1.0, 1e-9, 10 ** 7), (1.0, 3e-8, 10 ** 7),
                                               (1.0, 1e-7, 10 ** 6), (0.5, 1e-20, 10 ** 18)])
    def test_filter_keeps_relative_accuracy_where_one_minus_h_rounds(self, alpha, lam, n):
        # 1 - h rounds where h = alpha lam < 1/2, and its n-th power would
        # compound that rounding n times (up to ~4e-10 relative here; F = 1
        # against 0.995 at n = 10^18); (1 - h)^n in 60-digit arithmetic
        f = filter_pair(Schedule.constant(alpha), lam, n)[0]
        with localcontext() as ctx:
            ctx.prec = 60
            exact = float((1 - Decimal(alpha) * Decimal(lam)) ** n)
        assert f == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.9])
    @pytest.mark.parametrize("n", [200, 2000, 20_000])
    def test_constant_complement_matches_closed_form(self, alpha, n):
        # 1 - F_n = 1 - (1 - alpha lam)^n, from log1p and expm1, which keep
        # their relative accuracy where alpha lam n is small
        i = np.arange(1, 20_001, dtype=float)
        lam = i ** -2.0
        lam = lam[alpha * lam < 1.0]
        g = filter_pair(Schedule.constant(alpha), lam, n)[1]
        assert np.allclose(g, -np.expm1(n * np.log1p(-alpha * lam)), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("length", [2, 3, 255, 20_000])
    def test_closed_form_runs_match_stepwise_products(self, length):
        # a constant 1 makes h = alpha lam = lam exactly. At h = 1 and 1 +- 1
        # ulp F_m is 0 or rounds to it (log1p(-1) would divide by zero); near
        # 0 and 2, 1 - F_m is far below F_m; 2.5 lies outside the box, where
        # |F_m| grows. Warnings are errors here, so none may escape.
        h = [1e-20, 0.3, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.5,
             2.0 - 1e-12, 2.0, 2.5]
        if length == 20_000:
            h.pop()  # 1.5 ** 20 000 overflows, in the stepwise product too
        lam = np.array(h)
        sched = Schedule.constant(1.0)
        f, g = filter_pair(sched, lam, length)
        f_ref, g_ref = stepwise_filter_pair(sched, lam, length)
        products = np.array([np.prod(np.full(length, 1.0 - v)) for v in lam])
        assert np.allclose(f, f_ref, rtol=1e-13, atol=1e-300)
        assert np.allclose(f, products, rtol=1e-13, atol=1e-300)
        inside = np.abs(f_ref) <= 1.0
        assert np.allclose(g[inside], g_ref[inside], rtol=0, atol=1e-14)
        assert np.allclose(g[inside], 1.0 - products[inside], rtol=0, atol=1e-14)
        # outside the box 1 - F_m does not cancel, so it is compared relatively
        assert np.allclose(g[~inside], 1.0 - products[~inside], rtol=1e-13, atol=0)
        # 1 - F_m keeps its relative accuracy where it is far below 1
        # (h = 1e-20, 2 - 1e-12): 1 - (1 - h)^m in 200-digit arithmetic
        with localcontext() as ctx:
            ctx.prec = 200
            exact = [float(1 - (1 - Decimal(v)) ** length) for v in h]
        assert np.allclose(g, exact, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sched", [
        Schedule.random_uniform(0.0, 1.9, seed=4),
        Schedule.cyclic([0.3, 1.1, 1.7]),
        Schedule.harmonic_to_2(),
    ], ids=lambda s: s.kind)
    def test_schedule_without_repeats_matches_stepwise_updates_exactly(self, sched):
        lam = np.random.default_rng(4).uniform(0.0, 1.0, 50)
        for n in (1, 7, 300):
            f, g = filter_pair(sched, lam, n)
            f_ref, g_ref = stepwise_filter_pair(sched, lam, n)
            assert np.array_equal(f, f_ref) and np.array_equal(g, g_ref)

    # every kind, and two schedules with runs of repeated terms
    KINDS = [
        Schedule.constant(0.9),
        Schedule.cyclic([0.3, 1.1, 1.7]),
        Schedule.harmonic_to_2(),
        Schedule.geometric_to_2(),
        Schedule.explicit([0.4, 0.4, 0.4, 1.2, 0.7, 0.7] * 50),
        Schedule.random_uniform(0.5, 1.5, seed=4),
        Schedule.cyclic([0.6, 0.6, 0.6, 0.2]),
        Schedule.explicit([0.3] * 5 + [0.8] * 295),
    ]

    @pytest.mark.parametrize("sched", KINDS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("top", [0.99, 1.5])
    def test_complement_only_last_run_gives_the_same_complement(self, sched, top):
        # the last run's h = alpha lam spans [0, top], across 1/2: below 1
        # it takes the expm1-only form, and with some h >= 1 the closed form
        # without F_m; either way 1 - F is filter_pair's, bit for bit
        for n in (1, 2, 7, 300):
            runs = sched.runs(n)
            lam = np.linspace(0.0, top / runs[-1][0], 41)
            g = _filter_runs(runs, lam, keep_f=False)[1]
            assert np.array_equal(g, filter_pair(sched, lam, n)[1])

    @pytest.mark.parametrize("sched", KINDS, ids=lambda s: s.kind)
    def test_read_only_lam_is_left_unchanged(self, sched):
        lam = np.linspace(0.0, 1.2, 25)
        f_ref, g_ref = filter_pair(sched, lam.copy(), 40)
        lam.setflags(write=False)
        f, g = filter_pair(sched, lam, 40)
        assert np.array_equal(lam, np.linspace(0.0, 1.2, 25))
        assert np.array_equal(f, f_ref) and np.array_equal(g, g_ref)

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
        assert rate_bound(nu, nu, [alpha]).epsilon == pytest.approx(0.5)

    def test_direct_formula(self):
        alpha = (2.0 - 0.5) / 1.0**2
        assert alpha == pytest.approx(1.5)
        assert rate_bound(1.0, 1.0, [alpha]).epsilon == pytest.approx(0.5)

    def test_degenerate_nu_rejected(self):
        with pytest.raises(ValueError):
            rate_bound(0.0, 1.0, [1.0])
