"""Fixture package: registry and __all__ both complete."""

__all__ = ["CompleteController"]
