"""Fixture: simulated-clock module using the sanctioned seam."""

from repro.utils.clock import perf_seconds


def measured():
    start = perf_seconds()
    return perf_seconds() - start


def simulated(lane_available_at, service_seconds):
    return lane_available_at + service_seconds


CLOCKS = (measured, simulated)
