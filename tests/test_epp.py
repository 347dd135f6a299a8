import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.epp import (
    Constant,
    DiscreteChoice,
    EpisodeParameterProvider,
    Increment,
    NotYetSampled,
    ParameterSpec,
    TruncatedGaussian,
    Uniform,
    UnknownHyperparameter,
    UnknownReference,
    UnsampleableParameter,
    _parameter_rng,
)
from envforge.units import METER, Quantity, get_unit


def make_epp(*specs):
    return EpisodeParameterProvider(list(specs))


class TestDistributions:
    def test_constant(self):
        rng = np.random.default_rng(0)
        assert Constant(3.5).sample(rng) == 3.5

    def test_uniform_support(self):
        dist = Uniform(-2.0, 5.0)
        rng = np.random.default_rng(1)
        samples = [dist.sample(rng) for _ in range(10_000)]
        assert all(-2.0 <= s <= 5.0 for s in samples)
        assert min(samples) < -1.5 and max(samples) > 4.5

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 0.0).validate()

    def test_uniform_range_must_be_finite(self):
        # each bound is finite, but the generator cannot draw from a range
        # whose width overflows
        with pytest.raises(ValueError, match="high - low is not finite"):
            Uniform(-1e308, 1e308).validate()
        wide = Uniform(-1e308, 0.0)
        wide.validate()
        assert -1e308 <= wide.sample(np.random.default_rng(0)) <= 0.0

    def test_truncated_gaussian_support(self):
        dist = TruncatedGaussian(mu=0.0, sigma=2.0, low=-1.0, high=3.0)
        rng = np.random.default_rng(2)
        samples = np.array([dist.sample(rng) for _ in range(10_000)])
        assert np.all(samples >= -1.0) and np.all(samples <= 3.0)

    def test_truncated_gaussian_matches_scipy_oracle(self):
        # Independent oracle: compare the empirical CDF against scipy's
        # truncnorm at several probe points.
        mu, sigma, low, high = 1.0, 0.5, 0.0, 2.0
        dist = TruncatedGaussian(mu, sigma, low, high)
        rng = np.random.default_rng(3)
        samples = np.array([dist.sample(rng) for _ in range(20_000)])
        oracle = scipy.stats.truncnorm((low - mu) / sigma, (high - mu) / sigma, mu, sigma)
        for probe in [0.25, 0.75, 1.0, 1.25, 1.75]:
            empirical = np.mean(samples <= probe)
            assert empirical == pytest.approx(oracle.cdf(probe), abs=0.015)

    def test_truncated_gaussian_invalid(self):
        with pytest.raises(ValueError):
            TruncatedGaussian(0.0, -1.0, 0.0, 1.0).validate()
        with pytest.raises(ValueError):
            TruncatedGaussian(0.0, 1.0, 2.0, 1.0).validate()

    def test_discrete_choice(self):
        dist = DiscreteChoice([1.0, 2.0, 3.0])
        rng = np.random.default_rng(4)
        samples = {dist.sample(rng) for _ in range(1000)}
        assert samples == {1.0, 2.0, 3.0}

    def test_discrete_choice_weights(self):
        dist = DiscreteChoice([0.0, 1.0], weights=[0.0, 1.0])
        rng = np.random.default_rng(5)
        assert all(dist.sample(rng) == 1.0 for _ in range(100))
        with pytest.raises(ValueError):
            DiscreteChoice([1.0], weights=[1.0, 2.0]).validate()
        with pytest.raises(ValueError, match="finite"):  # the probabilities would be weight / inf
            DiscreteChoice([1.0, 2.0], weights=[1e308, 1e308]).validate()


class TestSampling:
    def test_bit_identical_reproducibility(self):
        epp = make_epp(
            ParameterSpec("a", Uniform(0.0, 1.0), METER),
            ParameterSpec("b", TruncatedGaussian(0.0, 1.0, -2.0, 2.0)),
        )
        first = epp.sample_episode(seed=42)
        second = epp.sample_episode(seed=42)
        assert first["a"] == second["a"]
        assert first["b"] == second["b"]

    def test_different_seeds_differ(self):
        epp = make_epp(ParameterSpec("a", Uniform(0.0, 1.0)))
        assert epp.sample_episode(1)["a"] != epp.sample_episode(2)["a"]

    def test_per_name_independence(self):
        # Draws for one parameter must not depend on which other parameters exist.
        solo = make_epp(ParameterSpec("x", Uniform(0.0, 1.0)))
        with_neighbor = make_epp(
            ParameterSpec("w", Uniform(5.0, 6.0)),
            ParameterSpec("x", Uniform(0.0, 1.0)),
        )
        for seed in range(20):
            assert solo.sample_episode(seed)["x"] == with_neighbor.sample_episode(seed)["x"]

    def test_rng_keyed_by_seed_and_name(self):
        a = _parameter_rng(7, "x").uniform()
        b = _parameter_rng(7, "x").uniform()
        c = _parameter_rng(7, "y").uniform()
        assert a == b and a != c

    def test_units_attached(self):
        epp = make_epp(ParameterSpec("r", Constant(2.0), METER))
        assert epp.sample_episode(0)["r"] == Quantity.scalar(2.0, METER)

    def test_overrides_convert_units(self):
        epp = make_epp(ParameterSpec("r", Constant(2.0), METER))
        sampled = epp.sample_episode(0, overrides={"r": Quantity.scalar(3.0, get_unit("kilometer"))})
        assert sampled["r"].unit is METER
        assert sampled["r"].item == 3000.0

    def test_duplicate_name_rejected(self):
        epp = make_epp(ParameterSpec("a", Constant(1.0)))
        with pytest.raises(ValueError):
            epp.add(ParameterSpec("a", Constant(2.0)))

    def test_unsampleable_distribution_names_its_path(self):
        # an updater may move a valid distribution where it cannot be drawn from
        epp = EpisodeParameterProvider()
        spec = ParameterSpec("u", Uniform(0.0, 1.0))
        epp.add(spec, "reference_store/u")
        spec.distribution.low, spec.distribution.high = -1e308, 1e308
        with pytest.raises(UnsampleableParameter) as caught:
            epp.sample_episode(0)
        assert caught.value.errors[0][:2] == ("reference_store/u/distribution", "TypeMismatch")
        assert "cannot be sampled" in str(caught.value)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_sampling_within_support_property(self, seed):
        epp = make_epp(ParameterSpec("u", Uniform(-3.0, 7.0)))
        assert -3.0 <= epp.sample_episode(seed)["u"].item <= 7.0


class TestReferenceStore:
    def test_lookup_before_sampling(self):
        epp = make_epp(ParameterSpec("a", Constant(1.0)))
        with pytest.raises(NotYetSampled):
            epp.reference_lookup("a")

    def test_unknown_key(self):
        epp = make_epp(ParameterSpec("a", Constant(1.0)))
        epp.sample_episode(0)
        with pytest.raises(UnknownReference):
            epp.reference_lookup("nope")

    def test_stable_within_episode(self):
        epp = make_epp(ParameterSpec("a", Uniform(0.0, 1.0)))
        epp.sample_episode(9)
        assert epp.reference_lookup("a") == epp.reference_lookup("a")


class TestCurriculum:
    def test_increment_exact_arithmetic_and_clamp(self):
        # Uniform high starts at 2.4; +0.1 per application, limit 3.0.
        spec = ParameterSpec(
            "x0",
            Uniform(0.0, 2.4),
            updaters=[Increment(target="high", step=0.1, limit=3.0)],
        )
        epp = make_epp(spec)
        highs = []
        for _ in range(10):
            epp.apply_training_result()
            highs.append(spec.distribution.high)
        # 2.4 + 6 * 0.1 == 3.0 exactly under the clamp; stays clamped after.
        assert highs[5] == 3.0
        assert all(h < 3.0 for h in highs[:5])
        assert all(h == 3.0 for h in highs[5:])

    def test_negative_step_clamps_from_below(self):
        dist = Uniform(0.0, 5.0)
        updater = Increment(target="high", step=-2.0, limit=1.0)
        updater.apply(dist)
        updater.apply(dist)
        updater.apply(dist)
        assert dist.high == 1.0

    def test_unknown_target_rejected(self):
        with pytest.raises(UnknownHyperparameter):
            Increment(target="mode", step=0.1).apply(Uniform(0.0, 1.0))

    def test_clamp_restores_uniform_invariant(self):
        dist = Uniform(2.0, 3.0)
        Increment(target="low", step=5.0).apply(dist)
        assert dist.low <= dist.high

    def test_sampling_respects_updated_support(self):
        spec = ParameterSpec("x", Uniform(0.0, 1.0), updaters=[Increment("high", 1.0, 2.0)])
        epp = make_epp(spec)
        epp.apply_training_result()
        samples = [epp.sample_episode(s)["x"].item for s in range(2000)]
        assert max(samples) > 1.0
        assert all(0.0 <= v <= 2.0 for v in samples)

    def test_snapshot_state(self):
        spec = ParameterSpec("x", Uniform(0.0, 1.0), METER, [Increment("high", 0.5)])
        epp = make_epp(spec)
        before = epp.snapshot_state()
        epp.apply_training_result()
        after = epp.snapshot_state()
        assert before["x"]["high"] == 1.0
        assert after["x"]["high"] == 1.5
        assert after["x"]["kind"] == "Uniform"
        assert after["x"]["unit"] == "meter"
