"""The breadth-first walk that every graph chore in the package shares."""

from collections import deque


def _breadth_first(start, step) -> dict:
    """{node: (parent, label)} for each node reached from start, in discovery order.

    step(u) yields (label, neighbour) pairs.  The start maps to None and every other
    node to the node and label that first reached it: a spanning tree of the component.
    """
    reached = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for label, w in step(u):
            if w not in reached:
                reached[w] = (u, label)
                queue.append(w)
    return reached
