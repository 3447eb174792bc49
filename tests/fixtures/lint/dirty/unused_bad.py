"""Fixture: three definitions that nothing references."""

__all__ = ["Widget", "exported_only"]


def never_called():
    return 1


class Widget:
    def exported_only(self):
        """Named only in ``__all__``."""
        return 2


class ImportedOnly:
    """Named only in an import (see unused_importer.py)."""


WIDGET = Widget()
