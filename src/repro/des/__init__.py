"""Discrete-event simulation kernel (simpy-flavoured, dependency-free)."""

from .control import WaitTimeout, first_success, with_timeout
from .core import AllOf, AnyOf, Environment, Event, Process, SimulationError, Timeout
from .resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "Request",
    "Resource",
    "Store",
    "WaitTimeout",
    "first_success",
    "with_timeout",
]
