"""Tests for the activity taxonomy and sensor-suite model."""

import pytest

from repro.data.activities import ACTIVITY_NAMES, Activity, activity_from_name
from repro.data.sensors import SensorSuite, default_sensor_suite
from repro.exceptions import ConfigurationError, DataError


class TestActivities:
    def test_five_activities(self):
        assert len(list(Activity)) == 5
        assert ACTIVITY_NAMES == ["Drive", "E-scooter", "Run", "Still", "Walk"]

    def test_display_names(self):
        assert Activity.ESCOOTER.display_name == "E-scooter"
        assert Activity.RUN.display_name == "Run"

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("Run", Activity.RUN),
            ("walk", Activity.WALK),
            ("E-scooter", Activity.ESCOOTER),
            ("escooter", Activity.ESCOOTER),
            ("  Still ", Activity.STILL),
        ],
    )
    def test_activity_from_name(self, name, expected):
        assert activity_from_name(name) == expected

    def test_unknown_activity_raises(self):
        with pytest.raises(DataError):
            activity_from_name("Swim")

    def test_integer_values_are_stable(self):
        assert int(Activity.DRIVE) == 0
        assert int(Activity.WALK) == 4


class TestSensorSuite:
    def test_default_suite_has_22_channels(self):
        suite = default_sensor_suite()
        assert suite.n_channels == 22
        assert len(suite.triaxial_groups) == 6
        assert len(suite.scalar_channels()) == 4

    def test_window_length_at_120hz(self):
        assert default_sensor_suite().window_length == 120

    def test_triaxial_groups_cover_disjoint_channels(self):
        suite = default_sensor_suite()
        flat = [index for group in suite.triaxial_groups for index in group]
        assert len(flat) == len(set(flat)) == 18

    def test_channel_names_are_unique(self):
        suite = default_sensor_suite()
        assert len(set(suite.channel_names)) == suite.n_channels

    def test_invalid_suites_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorSuite(channel_names=(), triaxial_groups=())
        with pytest.raises(ConfigurationError):
            SensorSuite(channel_names=("a", "b"), triaxial_groups=((0, 1, 5),))
        with pytest.raises(ConfigurationError):
            SensorSuite(channel_names=("a",), triaxial_groups=(), sampling_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            SensorSuite(channel_names=("a", "b", "c"), triaxial_groups=((0, 1),))
