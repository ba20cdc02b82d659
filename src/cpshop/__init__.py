"""Job-shop scheduling toolkit.

A constraint-model-backed dispatching environment for the job-shop
scheduling problem, static priority dispatching rules, a small learned
dispatching policy with its training loop, an anytime expert solver, and
a benchmark CLI.
"""

from cpshop.instances import Instance, Operation, generate_instance, parse_instance
from cpshop.model import Solution, compress, validate

__all__ = [
    "Instance",
    "Operation",
    "Solution",
    "compress",
    "generate_instance",
    "parse_instance",
    "validate",
]

__version__ = "0.1.0"
