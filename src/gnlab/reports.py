"""Uniform result objects for verification checks.

Every check returns a Report instead of asserting, so callers (tests, the
CLI verifier) decide what a failure means.  JSON serialisation is flat:
{"check": ..., <data fields>, "failures": [...], "passed": ...}.
"""

from __future__ import annotations


class Report:
    """A check's name, its data and its failures; two Reports are equal
    when all three are."""

    def __init__(self, check: str, data: dict,
                 failures: list[str] | None = None):
        self.check = check
        self.data = data
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.check, self.data, self.failures) == \
            (other.check, other.data, other.failures)

    def __repr__(self) -> str:
        return (f"Report(check={self.check!r}, data={self.data!r}, "
                f"failures={self.failures!r})")

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = {"check": self.check}
        out.update(self.data)
        out["failures"] = list(self.failures)
        out["passed"] = self.passed
        return out

    def __str__(self) -> str:
        status = "ok" if self.passed else f"{len(self.failures)} failure(s)"
        return f"{self.check}: {status}"
