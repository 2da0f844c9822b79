"""Shared exception types."""

from __future__ import annotations

__all__ = ["ConfigurationError", "DivergenceError", "reject"]


class ConfigurationError(ValueError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def reject(problems: list[tuple[str | None, str]]) -> None:
    """Raise the messages of (config field or None, message) pairs, if any."""
    if problems:
        raise ConfigurationError([message for _, message in problems])


class DivergenceError(RuntimeError):
    """Non-finite value produced during time marching."""

    def __init__(self, message: str, step: int, where: str):
        self.step = step
        self.where = where
        super().__init__(f"{message} at step {step} ({where})")
