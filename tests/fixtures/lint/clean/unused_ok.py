"""Fixture: definitions reached without a plain call, and one kept by noqa."""

PLUGINS = {}


def register_plugin(cls):
    PLUGINS[cls.__name__] = cls
    return cls


@register_plugin
class Plugin:
    """Registered by its decorator: the registry is its caller."""


class Base:
    """Referenced only as a base class."""


class Derived(Base):
    def by_name(self):
        """Reached only through a getattr string."""
        return 1


def dispatch(obj):
    return getattr(obj, "by_name")()


def for_a_caller_elsewhere():  # repro: noqa[repro-unused] fixture: examples/demo.py calls it
    return 3


RESULT = dispatch(Derived())
