"""dispatchsim: deterministic discrete-event simulation of cloud job
dispatch with Round-Robin scheduling, Shortest-Job-First load
balancing, wait-vs-hop migration, and rejection/starvation metrics."""

from .engine import EventCalendar, Event, HorizonExceeded, PastEvent, Simulation
from .metrics import RunMetrics, StatSummary
from .scenario import ScenarioConfig, load_scenario, serialize

__all__ = [
    "Event",
    "EventCalendar",
    "HorizonExceeded",
    "PastEvent",
    "RunMetrics",
    "ScenarioConfig",
    "Simulation",
    "StatSummary",
    "load_scenario",
    "serialize",
]

__version__ = "0.1.0"
