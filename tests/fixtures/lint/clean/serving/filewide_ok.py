"""Fixture: a file-level suppression silences every listed rule."""

# repro: noqa[repro-clock] this whole file benchmarks the raw clock

import time


def raw_a():
    return time.time()


def raw_b():
    return time.perf_counter()


RAW_CLOCKS = (raw_a, raw_b)
