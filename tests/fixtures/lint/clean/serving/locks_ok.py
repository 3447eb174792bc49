"""Fixture: callbacks collected under the lock, fired after release."""

import threading


class Notifier:
    def __init__(self):
        self._lock = threading.Lock()
        self._callbacks = []

    def fire_outside(self, result):
        with self._lock:
            pending = list(self._callbacks)
        for callback in pending:
            callback(result)


FIRE = Notifier().fire_outside
