"""Fixture: concrete class present in both the registry and __all__."""


class Backend:
    name = "abstract"


class CompleteBackend(Backend):
    name = "complete"


class OptOutBackend(Backend):  # repro: noqa[repro-registry] fixture opt-out
    name = "opt-out"


BACKENDS = {CompleteBackend.name: CompleteBackend}
