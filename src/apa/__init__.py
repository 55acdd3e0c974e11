"""Abstract persuasion argumentation: dynamic attack graphs, per-state
admissibility semantics, and temporal queries over the induced transition
system.

The names below load their module on first use (PEP 562), so that a CLI
process, which imports this package first, loads only the modules its
command runs."""

__version__ = "0.1.0"

#: Each re-exported name and the module that defines it.
_SOURCES = {
    "ALL": "dynamics",
    "APAFramework": "model",
    "ApaError": "errors",
    "LTS": "dynamics",
    "PersuasionAct": "model",
    "SelectorFamily": "dynamics",
    "State": "model",
    "extensions": "semantics",
    "framework": "model",
    "grounded_set": "semantics",
    "holds": "semantics",
    "parse_framework": "fileformat",
    "print_framework": "fileformat",
    "reachable": "dynamics",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_SOURCES[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value
