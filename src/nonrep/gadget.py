"""Vertex gadgets that force consecutive edge labels to differ.

A switch gadget for k labels is a digraph with one entry node and one exit
node per label such that entry x reaches exit y exactly when x != y.  A walk
that enters a vertex on an edge labeled x and leaves on an edge labeled y can
then be routed through the vertex's gadget iff the labels differ.

``build_switch_gadget`` yields the linear-size construction (labels are
paired up, pairs are wired directly, and the pair index recurses on a gadget
half the size).  The obvious quadratic wiring (``build_dense_gadget``) and
the all-pairs entry-to-exit reach sweep (``exit_reach_sets``) are test
references and live in ``tests/oracles.py``.

Size of the linear gadget follows nodes(k) = 2k + nodes(ceil(k/2)) and grows
as 4k + O(log k); the frozen test bounds are nodes <= 4k + 6 and
arcs <= 6k + 4 for all k <= 64.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SwitchGadget:
    """Local node ids are 0..num_nodes-1; entry/exit map label slots to nodes."""

    label_count: int
    num_nodes: int
    entry: tuple[int, ...]
    exit: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]


def build_switch_gadget(k: int) -> SwitchGadget:
    """Linear-size switch gadget for ``k`` label slots."""
    if k < 1:
        raise ValueError("gadget needs at least one label")
    if k == 1:
        return SwitchGadget(1, 2, (0,), (1,), ())
    if k == 2:
        return SwitchGadget(2, 4, (0, 1), (2, 3), ((0, 3), (1, 2)))
    sub = build_switch_gadget((k + 1) // 2)
    off = 2 * k
    entry = tuple(range(k))
    exit_ = tuple(k + i for i in range(k))
    arcs: list[tuple[int, int]] = []
    for x in range(0, k, 2):
        y = x + 1
        z = x // 2
        if y < k:
            # Paired slots reach each other directly and share one sub slot.
            arcs.append((x, k + y))
            arcs.append((y, k + x))
            arcs.append((x, off + sub.entry[z]))
            arcs.append((y, off + sub.entry[z]))
            arcs.append((off + sub.exit[z], k + x))
            arcs.append((off + sub.exit[z], k + y))
        else:
            # Odd k: the last slot has no partner, only its sub-gadget wiring.
            arcs.append((x, off + sub.entry[z]))
            arcs.append((off + sub.exit[z], k + x))
    arcs.extend((off + a, off + b) for a, b in sub.arcs)
    return SwitchGadget(k, off + sub.num_nodes, entry, exit_, tuple(arcs))
