"""Minimal logging configuration for the library.

The library never configures the root logger; it only attaches a
``NullHandler`` to its own namespace so applications stay in control of log
output, and offers :func:`enable_console_logging` as an opt-in convenience for
scripts and examples.
"""

from __future__ import annotations

import logging

_LIBRARY_LOGGER_NAME = "repro"

logging.getLogger(_LIBRARY_LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name: str = None) -> logging.Logger:
    """Return a logger under the library namespace.

    ``get_logger("core.pilote")`` returns the ``repro.core.pilote`` logger.
    """
    if not name:
        return logging.getLogger(_LIBRARY_LOGGER_NAME)
    if name.startswith(_LIBRARY_LOGGER_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_LIBRARY_LOGGER_NAME}.{name}")


def enable_console_logging() -> logging.Logger:
    """Attach an INFO-level stream handler to the library logger (idempotent)."""
    logger = logging.getLogger(_LIBRARY_LOGGER_NAME)
    logger.setLevel(logging.INFO)
    has_stream = any(isinstance(h, logging.StreamHandler) for h in logger.handlers)
    if not has_stream:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
        logger.addHandler(handler)
    return logger
