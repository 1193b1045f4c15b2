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


def _components(nodes, step) -> list:
    """The components of the graph on nodes that step spans, as lists in walk order.

    Each component starts from its first node in the order of nodes.
    """
    comps = []
    seen = set()
    for start in nodes:
        if start not in seen:
            comps.append(list(_breadth_first(start, step)))
            seen.update(comps[-1])
    return comps
