"""Graphviz DOT rendering of a reachable LTS.

One node per state labeled with its visible set, one edge per (selector,
successor), deadlock states double-circled. Output is byte-identical
across runs: states, edges and attributes are emitted in canonical order.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .dynamics import LTS


def selector_label(lts: LTS, selector: int) -> str:
    """`*` for the wildcard family, else the selector's reference set."""
    if lts.family.is_wildcard:
        return "*"
    return lts.framework.format_set(lts.family.effective[selector])


def export_dot(lts: LTS, annotate_extensions: str | None = None) -> str:
    """Render `lts` as DOT text.

    When `annotate_extensions` names a semantics label, each node also
    lists that label's extensions at the state (a search bounded by the
    default `--max-args`; only use at desk scale). Only then does it load
    `semantics`, whose `extensions` rejects an unknown label.
    """
    if annotate_extensions is not None:
        from . import semantics
    fw = lts.framework
    ids = {state: f"s{i}" for i, state in enumerate(lts.states)}

    lines = ["digraph apa {", "  rankdir=LR;", '  node [shape=ellipse];']
    for state in lts.states:
        label = fw.format_set(state.visible)
        if annotate_extensions is not None:
            exts = semantics.extensions(fw, annotate_extensions, state)
            ext_text = " ".join(fw.format_set(e) for e in exts)
            label = f"{label}\\n{annotate_extensions}: {ext_text}"
        attrs = [f'label="{label}"']
        if state == lts.initial:
            attrs.append("style=bold")
        if state in lts.deadlocks:
            attrs.append("peripheries=2")
        lines.append(f'  {ids[state]} [{", ".join(attrs)}];')
    labels = [selector_label(lts, sel)
              for sel in range(len(lts.family.effective))]
    for src, edges in groupby(lts.walk(), itemgetter(0)):
        lines.append("\n".join(f'  {ids[src]} -> {ids[dst]} [label="{labels[sel]}"];'
                               for _, sel, dst in edges))
    lines.append("}\n")
    return "\n".join(lines)
