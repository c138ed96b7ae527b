"""The fixed work the speed monitor times (``speed_probe.py``).

Pointer chasing through a ring of small objects laid out in a random
order, far larger than the caches, plus dict updates: attribute loads,
reference counting and cache misses, the costs that make the compiler's
speed move with a noisy neighbour.  A tight loop that stays in the
caches moves much less than the compiler does.
"""

import random

#: Objects in the ring (about 25 MB of heap).
RING = 300_000
#: Steps of one reading's chase.
STEPS = 20_000


class _Node:
    __slots__ = ("next", "value")


def make_ring(seed: int = 1) -> list:
    nodes = [_Node() for _ in range(RING)]
    order = list(range(RING))
    random.Random(seed).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
        nodes[here].value = here
    return nodes


def loop(nodes: list) -> int:
    """One reading's work over a ring from ``make_ring``."""
    node = nodes[0]
    total = 0
    for _ in range(STEPS):
        total += node.value
        node = node.next
    table = {}
    for index in range(0, RING, 20):
        table[nodes[index].value & 1023] = index
    return total + len(table)
