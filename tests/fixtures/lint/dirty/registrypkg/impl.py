"""Fixture: in the registry dict but missing from the package __all__."""


class Backend:
    name = "abstract"


class ShadowBackend(Backend):
    name = "shadow"


BACKENDS = {ShadowBackend.name: ShadowBackend}
