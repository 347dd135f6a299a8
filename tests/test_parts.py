import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.parts import (
    Box,
    Controller,
    NoMatch,
    NoValidMeasurementYet,
    Platform,
    PluginRegistry,
    RegistryFrozen,
    Sensor,
    UnknownGroup,
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

    def test_contains(self):
        prop = Box(2, -1.0, 1.0, NONE, name="p")
        assert prop.contains(np.array([0.0, 1.0]))
        assert not prop.contains(np.array([0.0, 1.5]))
        assert not prop.contains(np.array([0.0]))


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
    def test_invalid_reading_holds_last_valid(self):
        values = iter([1.0, float("nan"), 2.0])
        sensor = Sensor("s", position_property(), lambda _: np.array([next(values)]))
        assert sensor.measure(None)[0] == 1.0
        assert sensor.measure(None)[0] == 1.0  # NaN reading: held
        assert sensor.measure(None)[0] == 2.0  # recovers on next valid value

    def test_invalid_first_reading_raises(self):
        sensor = Sensor("s", position_property(), lambda _: np.array([float("inf")]))
        with pytest.raises(NoValidMeasurementYet):
            sensor.measure(None)

    def test_wrong_shape_is_invalid(self):
        values = iter([np.array([1.0]), np.array([1.0, 2.0])])
        sensor = Sensor("s", position_property(), lambda _: next(values))
        assert sensor.measure(None)[0] == 1.0
        assert sensor.measure(None)[0] == 1.0  # shape mismatch: held

    def test_reset_clears_hold(self):
        sensor = Sensor("s", position_property(), lambda _: np.array([1.0]))
        sensor.measure(None)
        sensor.reset()
        assert sensor.last_valid is None


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
        assert set(platform.sensors()) == {"s"}
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

    def test_freeze_blocks_registration(self):
        reg = PluginRegistry()
        reg.register("G", self.factory("a"))
        reg.freeze()
        assert reg.frozen
        with pytest.raises(RegistryFrozen):
            reg.register("H", self.factory("b"))
        # Resolution still works after freezing.
        assert reg.match("G", "Sim", "P").factory("x", {}).tag == "a"

    def test_same_group_across_simulators(self):
        # The simulator-swap property: one group name, per-simulator factories.
        reg = PluginRegistry()
        reg.register("Sensor_State", self.factory("dock"), simulator_type="Dock")
        reg.register("Sensor_State", self.factory("cart"), simulator_type="Cart")
        assert reg.match("Sensor_State", "Dock", "P").factory("x", {}).tag == "dock"
        assert reg.match("Sensor_State", "Cart", "P").factory("x", {}).tag == "cart"
