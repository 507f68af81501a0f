"""Exception types shared across the package."""

import os

DEFAULT_STATE_CAP = 1_000_000

STATE_CAP_ENV = "KWM_STATE_CAP"


class KwmixError(Exception):
    """Base class for package errors."""


class StateCapExceeded(KwmixError):
    """A requested state space is larger than the configured cap."""


class InvariantViolation(KwmixError):
    """An internal consistency check failed (bad kernel, invalid path, ...)."""


def state_cap() -> int:
    """Current state-space cap, overridable via the KWM_STATE_CAP env var."""
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is None:
        return DEFAULT_STATE_CAP
    cap = int(raw)
    if cap <= 0:
        raise ValueError(f"{STATE_CAP_ENV} must be positive, got {cap}")
    return cap


def check_state_cap(size: int, what: str, unit: str = "states") -> None:
    """Refuse `size` `unit`s of `what` above the cap (StateCapExceeded)."""
    cap = state_cap()
    if size > cap:
        raise StateCapExceeded(f"{what} has {size} {unit}, cap is {cap}")
