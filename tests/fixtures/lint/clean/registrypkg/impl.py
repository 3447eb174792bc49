"""Fixture: concrete class present in both the registry and __all__."""


class Controller:
    name = "abstract"


class CompleteController(Controller):
    name = "complete"


class OptOutController(Controller):  # repro: noqa[repro-registry] fixture opt-out
    name = "opt-out"


CONTROLLERS = {CompleteController.name: CompleteController}

OPTED_OUT = (OptOutController,)
