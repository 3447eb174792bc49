"""Fixture: conforming RNG usage plus a line-level suppression."""

from repro.utils.rng import resolve_rng


def seeded(seed):
    return resolve_rng(seed).normal(size=4)


def legacy_site():
    import numpy as np

    # A justified exception, suppressed on its own line with a reason:
    return np.random.default_rng(0)  # repro: noqa[repro-rng] bit-compat fixture


# Callers, so repro-unused sees every definition referenced.
SITES = (seeded, legacy_site)
