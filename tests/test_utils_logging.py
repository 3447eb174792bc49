"""Tests for repro.utils.logging."""

import logging

from repro.utils.logging import enable_console_logging, get_logger


class TestGetLogger:
    def test_returns_namespaced_logger(self):
        assert get_logger("core.pilote").name == "repro.core.pilote"

    def test_root_library_logger(self):
        assert get_logger().name == "repro"

    def test_already_namespaced_not_doubled(self):
        assert get_logger("repro.data").name == "repro.data"


class TestEnableConsoleLogging:
    def test_adds_stream_handler_once(self):
        logger = enable_console_logging()
        count_before = len(logger.handlers)
        enable_console_logging()
        assert len(logger.handlers) == count_before
        assert logger.level == logging.INFO
