"""Fixture: in the registry dict but missing from the package __all__."""


class Controller:
    name = "abstract"


class ShadowController(Controller):
    name = "shadow"


CONTROLLERS = {ShadowController.name: ShadowController}
