"""Structured key=value logging shared by the harness and the CLI.

Every operational line the harness and the CLI emit — sweep progress,
shard completions, heartbeats, bench history appends — goes through one
``repro``-rooted :mod:`logging` hierarchy with a key=value line format::

    ts=2026-08-08T12:00:01 level=info logger=repro.harness.sweep \
event=sweep.shard shard="fft x8 RC" source=run wall=1.2s done=3 total=8

Libraries call :func:`get_logger` and emit with :func:`log_kv`; only the
CLI entry point calls :func:`setup_logging` (picking the level from its
``--log-level`` flag, one of :data:`LOG_LEVELS`), so importing repro never
configures global logging state and test runs stay silent unless they opt
in.
"""

from __future__ import annotations

import logging
import time

__all__ = ["LOG_LEVELS", "ROOT_LOGGER", "get_logger", "kv_line", "log_kv",
           "setup_logging"]

#: Name of the root of the repro logging hierarchy.
ROOT_LOGGER = "repro"

#: CLI-selectable levels (``--log-level`` choices), mildest last.
LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

#: Marker attribute identifying handlers installed by :func:`setup_logging`
#: so repeated setup calls (tests calling ``main`` again) replace instead
#: of stack.
_HANDLER_MARK = "_repro_structured_handler"


def get_logger(name: str = "") -> logging.Logger:
    """The repro-hierarchy logger for a dotted component ``name``."""
    return logging.getLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)


def _format_value(value) -> str:
    """Render one key=value payload value: floats compact, strings quoted
    when they contain whitespace or ``=`` (so lines stay splittable)."""
    if isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    if any(ch in text for ch in ' \t="'):
        escaped = text.replace('"', '\\"')
        return f'"{escaped}"'
    return text


def kv_line(event: str, **fields) -> str:
    """One structured line: ``event=<event> key=value ...``.

    Field order is the caller's keyword order — put the identifying keys
    (shard, workload) first so the lines scan well.
    """
    parts = [f"event={_format_value(event)}"]
    parts.extend(f"{key}={_format_value(value)}"
                 for key, value in fields.items())
    return " ".join(parts)


def log_kv(logger: logging.Logger, level: int, event: str, **fields) -> None:
    """Emit :func:`kv_line` through ``logger`` at ``level``."""
    if logger.isEnabledFor(level):
        logger.log(level, kv_line(event, **fields))


class _StructuredFormatter(logging.Formatter):
    """``ts=... level=... logger=... <message>`` — the message itself is
    already key=value when it came through :func:`log_kv`."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S",
                              time.localtime(record.created))
        return (f"ts={stamp} level={record.levelname.lower()} "
                f"logger={record.name} {record.getMessage()}")


def setup_logging(level: str = "info", stream=None) -> logging.Logger:
    """Install the structured stderr handler on the ``repro`` logger.

    Idempotent: a previously installed structured handler is replaced, so
    calling a CLI ``main()`` repeatedly (tests do) never duplicates lines.
    Returns the configured root logger.
    """
    if level not in LOG_LEVELS:
        raise ValueError(f"unknown log level {level!r}; "
                         f"expected one of {sorted(LOG_LEVELS)}")
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(LOG_LEVELS[level])
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(_StructuredFormatter())
    setattr(handler, _HANDLER_MARK, True)
    logger.addHandler(handler)
    return logger
