"""Graphviz DOT rendering of a reachable LTS.

One node per state labeled with its visible set, one edge per (selector,
successor), deadlock states double-circled. Output is byte-identical
across runs: states, edges and attributes are emitted in canonical order.
The text is written as it is made, the nodes in one write and then the
edges of one source state per write, so it is never held whole.
"""

from __future__ import annotations

from .dynamics import LTS


def export_dot(lts: LTS, out, annotate_extensions: str | None = None) -> None:
    """Write `lts` as DOT text to the text stream `out`.

    When `annotate_extensions` names a semantics label, each node also
    lists that label's extensions at the state (a search bounded by the
    default `--max-args`; only use at desk scale). Only then does it load
    `semantics`, whose `extensions` rejects an unknown label. Every node
    is rendered before the first write, so an error there writes nothing.
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
    out.write("\n".join(lines) + "\n")
    labels = [lts.selector_label(sel)
              for sel in range(len(lts.family.effective))]
    for src, edges in lts.walk():
        out.write("".join(f'  {ids[src]} -> {ids[dst]} [label="{labels[sel]}"];\n'
                          for sel, dst in edges))
    out.write("}\n")
