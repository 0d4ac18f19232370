"""One run's ledger: the stage seconds and health facts a command reports.

A command opens a record and writes its meta file from it.  Inside one,
``stage`` adds the seconds a block takes to the record's ``timings_s``,
``count`` adds to a counter and ``note`` keeps one value; outside, each
is a no-op, so a library call keeps nothing.  Maps run serially, so a
stack of open records is enough: the innermost one receives.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_open: list[dict] = []


@contextmanager
def record():
    """Yield the dict of one command; it is closed on exit, by an error too."""
    _open.append({"timings_s": {}})
    try:
        yield _open[-1]
    finally:
        _open.pop()


@contextmanager
def stage(name: str):
    t0 = time.perf_counter()
    yield
    if _open:
        timings = _open[-1]["timings_s"]
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


def count(name: str, n) -> None:
    if _open:
        _open[-1][name] = _open[-1].get(name, 0) + int(n)


def note(name: str, value) -> None:
    if _open:
        _open[-1][name] = value
