"""Abstract persuasion argumentation: dynamic attack graphs, per-state
admissibility semantics, and temporal queries over the induced transition
system."""

from .dynamics import ALL, LTS, SelectorFamily, reachable
from .errors import ApaError
from .fileformat import parse_framework, print_framework
from .model import APAFramework, PersuasionAct, State, framework
from .semantics import extensions, grounded_set, holds

__version__ = "0.1.0"

__all__ = [
    "ALL",
    "APAFramework",
    "ApaError",
    "LTS",
    "PersuasionAct",
    "SelectorFamily",
    "State",
    "extensions",
    "framework",
    "grounded_set",
    "holds",
    "parse_framework",
    "print_framework",
    "reachable",
    "__version__",
]
