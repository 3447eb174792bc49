"""Fixture: an import alone does not reference the imported class."""

from unused_bad import ImportedOnly  # noqa: F401
