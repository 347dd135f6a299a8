import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envforge.parts import (
    Box,
    Controller,
    InvalidReading,
    NoMatch,
    Platform,
    PluginRegistry,
    Sensor,
    UnknownGroup,
    all_finite,
)
from envforge.units import METER, NONE


def position_property():
    return Box(1, -10.0, 10.0, METER, name="position")


class TestPartProperty:
    """A part's property is a Box."""

    def test_broadcast_bounds(self):
        prop = Box(3, -1.0, 1.0, NONE, name="p")
        assert prop.low.shape == (3,) and prop.high.shape == (3,)

    def test_low_above_high_rejected(self):
        with pytest.raises(ValueError):
            Box(1, 2.0, 1.0, NONE, name="p")


class TestBox:
    def test_low_above_high_error_names_the_property(self):
        with pytest.raises(ValueError, match="property 'thrust': low > high"):
            Box(2, [-1.0, 2.0], [1.0, 1.0], NONE, name="thrust")
        with pytest.raises(ValueError, match="box: low > high"):
            Box(1, 2.0, 1.0)

    def test_unit_defaults_to_none(self):
        assert Box(1, -1.0, 1.0).unit == NONE

    def test_bounds_are_read_only(self):
        # One compiled box is shared by every reader, so no reader may change it.
        box = Box(2, -1.0, 1.0)
        with pytest.raises(ValueError):
            box.low[0] = 5.0
        with pytest.raises(ValueError):
            box.high[1] = -5.0

    def test_name_is_not_part_of_equality(self):
        assert Box(1, -1.0, 1.0, NONE, name="a") == Box(1, -1.0, 1.0, NONE, name="b")


class TestSensor:
    def test_invalid_reading_after_a_valid_one_raises(self):
        values = iter([1.0, float("nan")])
        sensor = Sensor("s", position_property(), lambda _: np.array([next(values)]))
        assert sensor.measure(None)[0] == 1.0
        with pytest.raises(InvalidReading, match=r"sensor 's' read \[nan\]: expected 1 finite elements"):
            sensor.measure(None)

    def test_invalid_first_reading_raises(self):
        sensor = Sensor("s", position_property(), lambda _: np.array([float("inf")]))
        with pytest.raises(InvalidReading, match="sensor 's'"):
            sensor.measure(None)

    def test_wrong_shape_is_invalid(self):
        values = iter([np.array([1.0]), np.array([1.0, 2.0])])
        sensor = Sensor("s", position_property(), lambda _: next(values))
        assert sensor.measure(None)[0] == 1.0
        with pytest.raises(InvalidReading, match=r"sensor 's' read \[1.0, 2.0\]: expected 1 finite elements"):
            sensor.measure(None)


class TestController:
    def test_clamping_and_count(self):
        ctrl = Controller("c", Box(1, -1.0, 1.0, NONE, name="thrust"))
        ctrl.apply(np.array([0.5]))
        assert ctrl.clamp_count == 0
        assert ctrl.take_pending()[0] == 0.5
        ctrl.apply(np.array([5.0]))
        assert ctrl.clamp_count == 1
        assert ctrl.take_pending()[0] == 1.0

    def test_no_pending_yields_zero(self):
        ctrl = Controller("c", Box(1, -1.0, 1.0, NONE, name="thrust"))
        assert ctrl.take_pending()[0] == 0.0

    def test_take_pending_consumes_command(self):
        # A command applies to one step: taking it leaves nothing pending.
        ctrl = Controller("c", Box(1, -1.0, 1.0, NONE, name="thrust"))
        ctrl.apply(np.array([0.5]))
        assert ctrl.take_pending()[0] == 0.5
        assert ctrl.pending is None
        assert ctrl.take_pending()[0] == 0.0

    def test_zero_clipped_into_bounds(self):
        ctrl = Controller("c", Box(1, 0.5, 1.0, NONE, name="thrust"))
        assert ctrl.take_pending()[0] == 0.5

    def test_reset(self):
        ctrl = Controller("c", Box(1, -1.0, 1.0, NONE, name="thrust"))
        ctrl.apply(np.array([9.0]))
        ctrl.reset()
        assert ctrl.pending is None and ctrl.clamp_count == 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_apply_matches_np_clip_bit_for_bit(self, data):
        # Signed zeros are the case where clamping orders differ: np.clip keeps
        # the sign that maximum-then-minimum keeps.
        edge = st.sampled_from([0.0, -0.0, 1.0, -1.0])
        finite = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
        shape = data.draw(st.integers(1, 4))
        ends = data.draw(st.lists(st.tuples(finite, finite), min_size=shape, max_size=shape))
        # sorted() keeps the drawn order of equal ends, so low may be 0.0 with high -0.0
        low, high = (np.array(end) for end in zip(*(sorted(pair) for pair in ends)))
        box = Box(shape, low, high, NONE, name="p")
        on_bound = st.integers(0, shape - 1).flatmap(
            lambda i: st.sampled_from([float(low[i]), float(high[i])])
        )
        values = np.array(
            data.draw(st.lists(st.one_of(finite, on_bound), min_size=shape, max_size=shape))
        )
        ctrl = Controller("c", box)
        ctrl.apply(values)
        expected = np.clip(values, box.low, box.high)
        assert ctrl.pending.tobytes() == expected.tobytes()
        assert ctrl.clamp_count == int(not np.array_equal(expected, values))


#: values at the edges of the finiteness and clamp checks
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]
any_float = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def clip_cases(draw):
    """A box, with infinite bounds, signed zeros and ``low == high`` among
    its ends, and an array for its ``clip``: NaN, infinite, signed-zero and
    on-bound elements, and at times a wrong length, a second dimension or
    float32 elements."""
    shape = draw(st.integers(1, 4))
    edge = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf])
    bound = st.one_of(edge, st.floats(allow_nan=False))
    pair = st.one_of(st.tuples(bound, bound), bound.map(lambda b: (b, b)))
    # sorted() keeps the drawn order of equal ends, so low may be 0.0 with high -0.0
    ends = [sorted(draw(pair)) for _ in range(shape)]
    box = Box(shape, [low for low, _ in ends], [high for _, high in ends])
    element = st.one_of(edge, st.sampled_from([b for end in ends for b in end]), any_float)
    length = draw(st.sampled_from([shape, shape, shape, 1, shape + 1]))
    values = np.array(draw(st.lists(element, min_size=length, max_size=length)))
    form = draw(st.sampled_from(["1-D", "2-D", "float32"]))
    if form == "2-D":
        values = values.reshape(1, -1)
    elif form == "float32":
        with np.errstate(over="ignore"):  # a float64 beyond float32's range becomes inf
            values = values.astype(np.float32)
    return box, values


class TestExactChecks:
    """The step's checks on small arrays give numpy's verdict exactly."""

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(any_float, max_size=64))
    @example(values=[1.7e308, 1.7e308])  # finite elements whose sum overflows
    @example(values=[np.inf, -np.inf])  # a sum of NaN from infinite elements
    @example(values=[-1.7e308, -1.7e308, np.nan])
    @example(values=[])
    def test_all_finite_is_numpys(self, values):
        array = np.array(values, dtype=float)
        assert all_finite(array) is bool(np.isfinite(array).all())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_clamp_count_is_numpys(self, data):
        shape = data.draw(st.integers(1, 4))
        edge = st.sampled_from([0.0, -0.0, 1.0, -1.0])
        bound = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
        ends = data.draw(st.lists(st.tuples(bound, bound), min_size=shape, max_size=shape))
        low, high = (np.array(end) for end in zip(*(sorted(pair) for pair in ends)))
        values = np.array(data.draw(st.lists(st.one_of(edge, any_float), min_size=shape, max_size=shape)))
        ctrl = Controller("c", Box(shape, low, high, NONE, name="p"))
        ctrl.apply(values)
        assert ctrl.clamp_count == int((np.clip(values, low, high) != values).any())

    @settings(max_examples=500, deadline=None)
    @given(case=clip_cases())
    @example(case=(Box(1, 0.0, 1.0), np.array([-0.0])))  # numpy's maximum gives 0.0, Python's max -0.0
    @example(case=(Box(1, -0.0, 0.0), np.array([0.0])))
    @example(case=(Box(2, [-np.inf, 1.0], [np.inf, 1.0]), np.array([np.nan, 1.0])))
    @example(case=(Box(2, -1.0, 1.0), np.array([0.5, -0.5, 0.0])))  # a wrong length
    def test_clip_is_numpys_and_returns_only_a_value_strictly_inside(self, case):
        box, values = case
        try:
            expected = np.minimum(np.maximum(values, box.low), box.high)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                box.clip(values)
            return
        got = box.clip(values)
        assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
        strictly_inside = (
            values.dtype == np.float64 and values.shape == (box.shape,)
            and all(lo < v < hi for lo, v, hi in zip(box.low.tolist(), values.tolist(), box.high.tolist()))
        )
        assert (got is values) == strictly_inside

    @pytest.mark.parametrize(
        "value, clamps",
        [(0.0, False), (-0.0, False), (np.nan, True), (2.0, True), (-np.inf, True)],
    )
    def test_signed_zero_on_a_bound_and_nan(self, value, clamps):
        # [-0.0, 0.0] holds both zeros; NaN compares unequal to itself, so
        # numpy counts it as clamped and so does the list comparison.
        ctrl = Controller("c", Box(1, -0.0, 0.0, NONE, name="p"))
        ctrl.apply(np.array([value]))
        assert ctrl.clamp_count == int(clamps)


class TestPlatform:
    def test_duplicate_part_rejected(self):
        platform = Platform("p", "T")
        part = Controller("c", Box(1, -1.0, 1.0, NONE, name="thrust"))
        platform.add_part(part)
        with pytest.raises(ValueError):
            platform.add_part(Controller("c", Box(1, -1.0, 1.0, NONE, name="thrust")))

    def test_sensor_controller_partition(self):
        platform = Platform("p", "T")
        platform.add_part(Controller("c", Box(1, -1.0, 1.0, NONE, name="t")))
        platform.add_part(Sensor("s", position_property(), lambda _: np.array([0.0])))
        assert set(platform.controllers()) == {"c"}

    def test_controllers_include_one_added_later(self):
        platform = Platform("p", "T")
        platform.add_part(Controller("c", Box(1, -1.0, 1.0, NONE, name="t")))
        assert platform.controllers() is platform.controllers()  # built once
        assert set(platform.controllers()) == {"c"}
        platform.add_part(Controller("d", Box(1, -1.0, 1.0, NONE, name="t")))
        assert set(platform.controllers()) == {"c", "d"}


class TestPluginRegistry:
    def factory(self, tag):
        def make(name, config):
            part = Controller(name, Box(1, -1.0, 1.0, NONE, name="t"))
            part.tag = tag
            return part

        return make

    def test_first_matching_entry_wins(self):
        reg = PluginRegistry()
        reg.register("G", self.factory("specific"), simulator_type="SimA")
        reg.register("G", self.factory("generic"))
        assert reg.match("G", "SimA", "P").factory("x", {}).tag == "specific"
        assert reg.match("G", "SimB", "P").factory("x", {}).tag == "generic"

    def test_wildcard_conditions(self):
        reg = PluginRegistry()
        reg.register("G", self.factory("any"))
        assert reg.match("G", "whatever", "thing").factory("x", {}).tag == "any"

    def test_platform_condition(self):
        reg = PluginRegistry()
        reg.register("G", self.factory("cart"), platform_type="Cart")
        with pytest.raises(NoMatch):
            reg.match("G", "Sim", "Rover")

    def test_unknown_group(self):
        reg = PluginRegistry()
        with pytest.raises(UnknownGroup):
            reg.match("Missing", "Sim", "P")

    def test_same_group_across_simulators(self):
        # The simulator-swap property: one group name, per-simulator factories.
        reg = PluginRegistry()
        reg.register("Sensor_State", self.factory("dock"), simulator_type="Dock")
        reg.register("Sensor_State", self.factory("cart"), simulator_type="Cart")
        assert reg.match("Sensor_State", "Dock", "P").factory("x", {}).tag == "dock"
        assert reg.match("Sensor_State", "Cart", "P").factory("x", {}).tag == "cart"
