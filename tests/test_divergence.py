"""Closed-form values, identities, and conventions of the divergence suite."""

import math

import numpy as np
import pytest

from hetquant import (
    BinningMismatchError,
    ParameterError,
    ProbabilityDistribution,
    bhattacharyya_coefficient,
    bhattacharyya_distance,
    evaluate,
    hellinger_affinity,
    hellinger_standard,
    jensen_shannon_divergence,
    kl_divergence,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    tsallis_divergence,
)
from hetquant.divergence import LOG_BASES, _power_sum


def dist(*masses: float) -> ProbabilityDistribution:
    """Distribution over unit support with the given bin masses."""
    masses_arr = np.array(masses, dtype=float)
    edges = np.linspace(0.0, 1.0, masses_arr.size + 1)
    return ProbabilityDistribution(edges, masses_arr)


def random_dist(rng: np.random.Generator, bins: int, zeros: bool = False):
    raw = rng.random(bins)
    if zeros and bins > 1:
        empty = rng.random(bins) < 0.3
        if empty.all():
            empty[0] = False
        raw[empty] = 0.0
    return dist(*(raw / raw.sum()))


def random_pairs(rng: np.random.Generator, count: int, bins: int):
    return [(random_dist(rng, bins), random_dist(rng, bins)) for _ in range(count)]


# Hand evaluations of the closed forms behind the contract's frozen values.
BC_HALF_NINE = math.sqrt(0.45) + math.sqrt(0.05)


class TestBhattacharyya:
    def test_identical_distributions_score_one(self):
        p = dist(0.25, 0.25, 0.25, 0.25)
        assert bhattacharyya_coefficient(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_score_zero(self):
        assert bhattacharyya_coefficient(dist(1.0, 0.0), dist(0.0, 1.0)) == 0.0

    def test_hand_value(self):
        value = bhattacharyya_coefficient(dist(0.5, 0.5), dist(0.9, 0.1))
        assert value == pytest.approx(BC_HALF_NINE, abs=1e-12)
        assert value == pytest.approx(0.894427, abs=1e-6)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            bins = int(rng.integers(2, 65))
            p = random_dist(rng, bins, zeros=True)
            q = random_dist(rng, bins, zeros=True)
            forward = bhattacharyya_coefficient(p, q)
            backward = bhattacharyya_coefficient(q, p)
            assert forward == pytest.approx(backward, abs=1e-15)
            assert 0.0 <= forward <= 1.0

    def test_distance_hand_value_and_identity(self):
        p, q = dist(0.5, 0.5), dist(0.9, 0.1)
        value = bhattacharyya_distance(p, q)
        assert value == pytest.approx(-math.log(BC_HALF_NINE), abs=1e-12)
        assert value == pytest.approx(0.111572, abs=1e-6)
        assert bhattacharyya_distance(p, p) == 0.0

    def test_distance_is_infinite_on_disjoint_supports(self):
        assert math.isinf(bhattacharyya_distance(dist(1.0, 0.0), dist(0.0, 1.0)))


class TestHellinger:
    def test_affinity_variant_hand_value(self):
        value = hellinger_affinity(dist(0.5, 0.5), dist(0.9, 0.1))
        assert value == pytest.approx(1.0 - math.sqrt(1.0 - BC_HALF_NINE), abs=1e-12)
        assert value == pytest.approx(0.675080, abs=1e-6)

    def test_standard_variant_hand_value(self):
        value = hellinger_standard(dist(0.5, 0.5), dist(0.9, 0.1))
        assert value == pytest.approx(math.sqrt(1.0 - BC_HALF_NINE), abs=1e-12)
        assert value == pytest.approx(0.324920, abs=1e-6)

    def test_extremes(self):
        same = dist(0.5, 0.5)
        assert hellinger_affinity(same, same) == pytest.approx(1.0, abs=1e-12)
        assert hellinger_standard(same, same) == pytest.approx(0.0, abs=1e-12)
        apart = (dist(1.0, 0.0), dist(0.0, 1.0))
        assert hellinger_affinity(*apart) == pytest.approx(0.0, abs=1e-12)
        assert hellinger_standard(*apart) == pytest.approx(1.0, abs=1e-12)

    def test_variants_are_linked_to_the_coefficient(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            bins = int(rng.integers(2, 65))
            p = random_dist(rng, bins, zeros=True)
            q = random_dist(rng, bins, zeros=True)
            coefficient = bhattacharyya_coefficient(p, q)
            standard = hellinger_standard(p, q)
            assert standard**2 == pytest.approx(1.0 - coefficient, abs=1e-12)
            assert hellinger_affinity(p, q) == pytest.approx(1.0 - standard, abs=1e-12)


class TestKl:
    def test_identical_distributions(self):
        p = dist(0.3, 0.7)
        assert kl_divergence(p, p) == 0.0

    def test_hand_value_in_nats(self):
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        value = kl_divergence(dist(0.5, 0.5), dist(0.25, 0.75))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.143841, abs=1e-6)

    def test_zero_p_mass_contributes_nothing(self):
        value = kl_divergence(dist(1.0, 0.0), dist(0.5, 0.5))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_q_mass_is_infinite(self):
        assert math.isinf(kl_divergence(dist(0.5, 0.5), dist(1.0, 0.0)))

    def test_base_switch(self):
        p, q = dist(0.5, 0.5), dist(0.25, 0.75)
        nats = kl_divergence(p, q, "natural")
        bits = kl_divergence(p, q, "base2")
        assert bits == pytest.approx(nats / math.log(2.0), abs=1e-12)

    def test_invalid_base(self):
        with pytest.raises(ParameterError):
            kl_divergence(dist(0.5, 0.5), dist(0.5, 0.5), "base10")

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            bins = int(rng.integers(2, 33))
            value = kl_divergence(random_dist(rng, bins), random_dist(rng, bins))
            assert value >= 0.0


class TestRenyi:
    def test_hand_value_at_one_half(self):
        value = renyi_divergence(dist(0.5, 0.5), dist(0.9, 0.1), 0.5)
        assert value == pytest.approx(-2.0 * math.log(BC_HALF_NINE), abs=1e-12)
        assert value == pytest.approx(0.223144, abs=1e-6)

    def test_twice_bhattacharyya_distance(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            bins = int(rng.integers(2, 65))
            p = random_dist(rng, bins)
            q = random_dist(rng, bins)
            assert renyi_divergence(p, q, 0.5) == pytest.approx(
                2.0 * bhattacharyya_distance(p, q), abs=1e-12
            )

    def test_identical_distributions_vanish(self):
        p = dist(0.2, 0.3, 0.5)
        for alpha in (0.25, 0.5, 0.9, 1.5, 3.0):
            assert renyi_divergence(p, p, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_zero_carries_a_positive_sign(self):
        p = dist(0.5, 0.25, 0.25)
        for alpha in (0.5, 2.0):
            value = renyi_divergence(p, p, alpha)
            assert math.copysign(1.0, value) == 1.0, f"got {value!r}"
            value = tsallis_divergence(p, p, alpha)
            assert math.copysign(1.0, value) == 1.0, f"got {value!r}"

    def test_nondecreasing_in_alpha(self):
        rng = np.random.default_rng(7)
        alphas = (0.3, 0.5, 0.9, 1.5, 2.0)
        for _ in range(100):
            p = random_dist(rng, 16)
            q = random_dist(rng, 16)
            values = [renyi_divergence(p, q, a) for a in alphas]
            for lower, upper in zip(values, values[1:]):
                assert upper >= lower - 1e-12

    def test_infinite_above_one_when_q_vanishes(self):
        p, q = dist(0.5, 0.5), dist(1.0, 0.0)
        assert math.isinf(renyi_divergence(p, q, 1.5))
        assert renyi_divergence(p, q, 0.5) < math.inf

    def test_disjoint_supports_are_infinite(self):
        assert math.isinf(renyi_divergence(dist(1.0, 0.0), dist(0.0, 1.0), 0.5))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0, math.inf, 5000.0])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ParameterError):
            renyi_divergence(dist(0.5, 0.5), dist(0.5, 0.5), alpha)

    def test_base_switch(self):
        p, q = dist(0.5, 0.5), dist(0.9, 0.1)
        nats = renyi_divergence(p, q, 2.0)
        bits = renyi_divergence(p, q, 2.0, "base2")
        assert bits == pytest.approx(nats / math.log(2.0), abs=1e-12)


class TestTsallis:
    def test_hand_value_at_two(self):
        expected = (0.25 / 0.9 + 0.25 / 0.1) - 1.0
        value = tsallis_divergence(dist(0.5, 0.5), dist(0.9, 0.1), 2.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.777778, abs=1e-6)

    def test_identical_distributions_vanish(self):
        p = dist(0.1, 0.6, 0.3)
        for alpha in (0.5, 2.0, 3.5):
            assert tsallis_divergence(p, p, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_infinite_above_one_when_q_vanishes(self):
        p, q = dist(0.5, 0.5), dist(1.0, 0.0)
        assert math.isinf(tsallis_divergence(p, q, 2.0))
        assert tsallis_divergence(p, q, 0.5) < math.inf

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = random_dist(rng, 16, zeros=True)
            q = random_dist(rng, 16, zeros=True)
            for alpha in (0.5, 2.0):
                assert tsallis_divergence(p, q, alpha) >= 0.0

    @pytest.mark.parametrize("alpha", [0.0, -2.0, 1.0, math.inf, 5000.0])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ParameterError):
            tsallis_divergence(dist(0.5, 0.5), dist(0.5, 0.5), alpha)


class TestJensenShannon:
    def test_identical_distributions_vanish(self):
        p = dist(0.4, 0.6)
        assert jensen_shannon_divergence(p, p) == 0.0

    def test_hand_value(self):
        expected = 0.5 * math.log2(4.0 / 3.0) + 0.5 * (
            0.5 * math.log2(2.0 / 3.0) + 0.5 * math.log2(2.0)
        )
        value = jensen_shannon_divergence(dist(1.0, 0.0), dist(0.5, 0.5))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.311278, abs=1e-6)

    def test_disjoint_supports_reach_one(self):
        value = jensen_shannon_divergence(dist(1.0, 0.0), dist(0.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            bins = int(rng.integers(2, 65))
            p = random_dist(rng, bins, zeros=True)
            q = random_dist(rng, bins, zeros=True)
            forward = jensen_shannon_divergence(p, q)
            assert forward == pytest.approx(jensen_shannon_divergence(q, p), abs=1e-15)
            assert 0.0 <= forward <= 1.0


class TestEntropies:
    def test_degenerate_distribution_has_zero_entropy(self):
        assert shannon_entropy(dist(1.0, 0.0, 0.0)) == 0.0

    def test_fair_coin(self):
        assert shannon_entropy(dist(0.5, 0.5)) == pytest.approx(math.log(2.0), abs=1e-12)
        assert shannon_entropy(dist(0.5, 0.5), "base2") == pytest.approx(1.0, abs=1e-12)

    def test_uniform_entropy_is_log_bin_count(self):
        for bins in (2, 5, 64):
            uniform = dist(*([1.0 / bins] * bins))
            assert shannon_entropy(uniform) == pytest.approx(math.log(bins), abs=1e-12)
            for alpha in (0.5, 2.0, 7.0):
                assert renyi_entropy(uniform, alpha) == pytest.approx(
                    math.log(bins), abs=1e-12
                )

    def test_collision_entropy(self):
        assert renyi_entropy(dist(0.5, 0.5), 2.0) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_limit_approaches_shannon(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_dist(rng, 16)
            gap = abs(renyi_entropy(p, 0.999) - shannon_entropy(p))
            assert gap < 1e-2

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, math.inf, 5000.0])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ParameterError):
            renyi_entropy(dist(0.5, 0.5), alpha)


class TestLogBases:
    """Base 2 is natural log divided by ln 2 for KL and Shannon entropy, and
    log2 of the power sum for the Renyi quantities, to the last bit."""

    PAIRS = [
        (dist(0.5, 0.5), dist(0.25, 0.75)),
        (dist(0.125, 0.25, 0.375, 0.25), dist(0.25, 0.25, 0.25, 0.25)),
        *random_pairs(np.random.default_rng(7), 3, bins=64),
    ]

    def test_names_and_order(self):
        assert LOG_BASES == ("natural", "base2")

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_kl_and_shannon_divide_the_natural_value(self, p, q):
        assert kl_divergence(p, q) > 0.0
        assert kl_divergence(p, q, "base2") == kl_divergence(p, q) / math.log(2.0)
        assert shannon_entropy(p) > 0.0
        assert shannon_entropy(p, "base2") == shannon_entropy(p) / math.log(2.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("p, q", PAIRS)
    def test_renyi_takes_log2_of_the_power_sum(self, p, q, alpha):
        divergence = math.log2(_power_sum(p.masses, q.masses, alpha)) / (alpha - 1.0)
        assert divergence > 0.0
        assert renyi_divergence(p, q, alpha, "base2") == divergence
        entropy = math.log2(_power_sum(p.masses, np.ones_like(p.masses), alpha)) / (1.0 - alpha)
        assert entropy > 0.0
        assert renyi_entropy(p, alpha, "base2") == entropy


class TestLimitsTowardKl:
    def test_renyi_and_tsallis_approach_kl(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_dist(rng, 16)
            q = random_dist(rng, 16)
            target = kl_divergence(p, q)
            assert abs(renyi_divergence(p, q, 0.999) - target) < 1e-2
            assert abs(tsallis_divergence(p, q, 0.999) - target) < 1e-2


class TestBinningMismatch:
    @pytest.mark.parametrize(
        "op",
        [
            bhattacharyya_coefficient,
            bhattacharyya_distance,
            hellinger_affinity,
            hellinger_standard,
            kl_divergence,
            jensen_shannon_divergence,
            lambda p, q: renyi_divergence(p, q, 0.5),
            lambda p, q: tsallis_divergence(p, q, 2.0),
        ],
    )
    def test_mismatched_edges_are_rejected(self, op):
        p = ProbabilityDistribution(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5]))
        q = ProbabilityDistribution(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))
        with pytest.raises(BinningMismatchError):
            op(p, q)


class TestEvaluateDispatcher:
    def test_pairwise_metric(self):
        result = evaluate("bc", dist(0.5, 0.5), dist(0.5, 0.5))
        assert result.metric == "bc"
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.alpha is None
        assert result.log_base is None
        assert result.bounded

    def test_alpha_metric_records_parameters(self):
        result = evaluate("renyi", dist(0.5, 0.5), dist(0.9, 0.1), alpha=0.5)
        assert result.alpha == 0.5
        assert result.log_base == "natural"
        assert not result.bounded

    def test_jsd_reports_base_two(self):
        result = evaluate("jsd", dist(0.5, 0.5), dist(0.9, 0.1))
        assert result.log_base == "base2"

    def test_tsallis_has_no_log_base(self):
        result = evaluate("tsallis", dist(0.5, 0.5), dist(0.9, 0.1), alpha=2.0)
        assert result.log_base is None

    def test_entropy_takes_single_distribution(self):
        result = evaluate("shannon_entropy", dist(0.5, 0.5))
        assert result.value == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(metric="nope", p=dist(1.0)), "unknown metric"),
            (dict(metric="kl", p=dist(1.0)), "second distribution"),
            (dict(metric="shannon_entropy", p=dist(1.0), q=dist(1.0)), "only one"),
            (dict(metric="renyi", p=dist(1.0), q=dist(1.0)), "requires alpha"),
            (dict(metric="bc", p=dist(1.0), q=dist(1.0), alpha=0.5), "not a parameter"),
            (dict(metric="bc", p=dist(1.0), q=dist(1.0), log_base="bogus"), "log_base"),
        ],
    )
    def test_parameter_validation(self, kwargs, fragment):
        metric = kwargs.pop("metric")
        p = kwargs.pop("p")
        with pytest.raises(ParameterError, match=fragment):
            evaluate(metric, p, **kwargs)
