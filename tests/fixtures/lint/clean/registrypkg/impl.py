"""Fixture: concrete class present in both the registry and __all__."""


class RoutingPolicy:
    name = "abstract"


class CompletePolicy(RoutingPolicy):
    name = "complete"


class OptOutPolicy(RoutingPolicy):  # repro: noqa[repro-registry] fixture opt-out
    name = "opt-out"


ROUTING_POLICIES = {CompletePolicy.name: CompletePolicy}

OPTED_OUT = (OptOutPolicy,)
