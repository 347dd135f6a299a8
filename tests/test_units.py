import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from envforge.units import (
    NONE,
    REGISTRY,
    DimensionMismatch,
    Quantity,
    UnknownUnit,
    as_vector,
    check_compatibility,
    convert,
    get_unit,
)


def units_by_dimension():
    groups = {}
    for unit in REGISTRY.values():
        groups.setdefault(unit.dimension, []).append(unit)
    return groups


class TestRegistry:
    def test_lookup_is_case_insensitive(self):
        assert get_unit("Meter") is REGISTRY["meter"]
        assert get_unit("  METER ") is REGISTRY["meter"]

    def test_na_aliases_to_none(self):
        assert get_unit("N/A") is NONE
        assert get_unit("n/a") is NONE

    def test_unknown_unit_raises(self):
        with pytest.raises(UnknownUnit):
            get_unit("furlong")

    def test_registry_is_closed_and_scales_positive(self):
        assert len(REGISTRY) == 14
        assert all(u.scale_to_base > 0 for u in REGISTRY.values())


class TestConversion:
    def test_known_factors(self):
        assert convert(Quantity.scalar(1.0, get_unit("kilometer")), get_unit("meter")).item == 1000.0
        assert convert(Quantity.scalar(1.0, get_unit("foot")), get_unit("meter")).item == pytest.approx(0.3048, rel=1e-15)
        assert convert(Quantity.scalar(180.0, get_unit("degree")), get_unit("radian")).item == pytest.approx(np.pi, rel=1e-15)

    def test_percent_fraction(self):
        assert convert(Quantity.scalar(50.0, get_unit("percent")), get_unit("fraction")).item == pytest.approx(0.5, rel=1e-15)
        assert convert(Quantity.scalar(0.25, get_unit("fraction")), get_unit("percent")).item == pytest.approx(25.0, rel=1e-15)

    def test_pairwise_round_trip_within_each_dimension(self):
        # Exhaustive: a -> b -> a must come back within 1e-12 relative.
        for units in units_by_dimension().values():
            for a, b in itertools.permutations(units, 2):
                q = Quantity.scalar(3.7, a)
                back = q.to(b).to(a)
                assert back.item == pytest.approx(3.7, rel=1e-12), (a.name, b.name)

    def test_identity_conversion_is_exact(self):
        q = Quantity.scalar(1.23456789, get_unit("meter"))
        assert q.to(get_unit("meter")).item == 1.23456789

    def test_cross_dimension_raises(self):
        with pytest.raises(DimensionMismatch):
            convert(Quantity.scalar(1.0, get_unit("meter")), get_unit("second"))

    def test_overflow_raises_without_a_warning(self):
        # pytest turns numpy's overflow warning into an error, so a warning fails here
        with pytest.raises(OverflowError, match="a value in kilometer overflows a float in meter"):
            convert(Quantity.scalar(1e308, get_unit("kilometer")), get_unit("meter"))
        infinite = convert(Quantity.scalar(float("inf"), get_unit("kilometer")), get_unit("meter"))
        assert infinite.item == float("inf")  # already not finite: nothing overflowed

    def test_none_only_matches_none(self):
        assert check_compatibility(NONE, NONE)
        assert not check_compatibility(NONE, get_unit("fraction"))
        with pytest.raises(DimensionMismatch):
            Quantity.scalar(1.0, NONE).to(get_unit("fraction"))

    @given(
        value=st.floats(-1e12, 1e12, allow_nan=False),
        pair=st.sampled_from(
            [
                (a, b)
                for units in units_by_dimension().values()
                for a in units
                for b in units
            ]
        ),
    )
    def test_round_trip_property(self, value, pair):
        a, b = pair
        back = Quantity.scalar(value, a).to(b).to(a).item
        assert back == pytest.approx(value, rel=1e-12, abs=1e-12)

    @settings(max_examples=1000)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False),
        pair=st.sampled_from([(a, b) for units in units_by_dimension().values() for a in units for b in units]),
    )
    def test_conversion_is_one_float64_product(self, value, pair):
        # a converted value is numpy's float64 product by the units' factor,
        # bit for bit (the sign of zero too), and overflows where it is infinite
        a, b = pair
        with np.errstate(over="ignore"):
            expected = np.array([value]) * (a.scale_to_base / b.scale_to_base)
        if np.isinf(expected[0]):
            with pytest.raises(OverflowError):
                Quantity.scalar(value, a).to(b)
        else:
            converted = Quantity.scalar(value, a).to(b)
            assert type(converted.item) is float
            assert np.array([converted.item]).tobytes() == expected.tobytes()

    @given(
        value=st.floats(-1e9, 1e9, allow_nan=False),
        scale=st.floats(-1e3, 1e3, allow_nan=False),
    )
    def test_conversion_is_linear(self, value, scale):
        meter, foot = get_unit("meter"), get_unit("foot")
        lhs = Quantity.scalar(value * scale, meter).to(foot).item
        rhs = Quantity.scalar(value, meter).to(foot).item * scale
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_transitivity(self):
        # a -> c directly equals a -> b -> c within tolerance.
        m, cm, km = get_unit("meter"), get_unit("centimeter"), get_unit("kilometer")
        q = Quantity.scalar(123.456, cm)
        direct = q.to(km).item
        chained = q.to(m).to(km).item
        assert direct == pytest.approx(chained, rel=1e-12)


class TestQuantity:
    def test_scalar_and_equality(self):
        a = Quantity.scalar(2.0, get_unit("meter"))
        assert a == Quantity(2.0, get_unit("meter"))
        assert a != Quantity.scalar(2.0, get_unit("kilometer"))


class TestAsVector:
    """``as_vector`` is ``np.atleast_1d(np.asarray(v, dtype=float))``, bit for bit."""

    arrays = hnp.arrays(
        dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_, np.dtype(">f8")]),
        shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
    )
    plain = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-(2**53), 2**53),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
    )

    @given(value=st.one_of(arrays, plain))
    def test_matches_numpy(self, value):
        expected = np.atleast_1d(np.asarray(value, dtype=float))
        got = as_vector(value)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @given(value=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0)))
    def test_one_dimensional_float64_is_returned_itself(self, value):
        assert as_vector(value) is value
