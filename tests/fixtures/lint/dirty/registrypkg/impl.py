"""Fixture: in the registry dict but missing from the package __all__."""


class RoutingPolicy:
    name = "abstract"


class ShadowPolicy(RoutingPolicy):
    name = "shadow"


ROUTING_POLICIES = {ShadowPolicy.name: ShadowPolicy}
