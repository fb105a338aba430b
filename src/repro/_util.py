"""Small internal utilities shared across the library."""

from __future__ import annotations

import sys
import time


def ensure_recursion_limit(limit: int = 100_000) -> None:
    """Raise CPython's recursion limit to at least ``limit``.

    The language front end recurses over the AST; realistic benchmark
    programs (e.g. the ~1200-line lexgen stand-in) nest ``let`` chains
    deeply enough to exceed the default limit of 1000.
    """
    if sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)


def make_checkers(what: str):
    """The ``(fail, expect, check_int, check_number)`` helper quartet
    every record validator is written in terms of, with failure
    messages naming ``what`` (e.g. ``"batch record"``)."""

    def fail(path: str, message: str) -> None:
        raise ValueError(f"invalid {what} at {path}: {message}")

    def expect(condition: bool, path: str, message: str) -> None:
        if not condition:
            fail(path, message)

    def check_int(value, path: str) -> None:
        expect(
            isinstance(value, int) and not isinstance(value, bool),
            path,
            f"expected integer, got {type(value).__name__}",
        )

    def check_number(value, path: str) -> None:
        expect(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            path,
            f"expected number, got {type(value).__name__}",
        )

    return fail, expect, check_int, check_number


class Stopwatch:
    """A tiny perf_counter-based stopwatch used by the bench harness."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
