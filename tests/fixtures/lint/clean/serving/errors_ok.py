"""Fixture: typed raises, re-raises, and a non-silent broad handler."""

from repro.exceptions import ConfigurationError, ServingError, WorkerDiedError


def typed(value):
    if value < 0:
        raise ServingError("negative")
    if value > 10:
        raise ConfigurationError("too large")


def reraise(stored_error):
    if stored_error is not None:
        raise stored_error
    try:
        typed(-1)
    except ServingError:
        raise


def portable(batch):
    try:
        return batch.run()
    except Exception as error:
        # Broad but not silent: converted to a typed error.
        raise WorkerDiedError(str(error)) from error


HANDLERS = (reraise, portable)
