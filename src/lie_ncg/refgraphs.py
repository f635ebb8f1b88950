"""Reference graphs used by the verification harness.

Each entry is a labeled edge list transcribed from the drawings the theorem
statements point at (ids F1..F7).  F2 is K_7, F4 is K_3, F3 and F5 are two
drawings of the octahedron, and F6/F7 are copies of K_{3,3}.  Nothing reads
the names: ``figure_graph`` numbers them and builds an unnamed Graph.
"""

from .graphs import Graph

FIGURE_EDGES = {
    # 7 vertices, 18 edges: K_7 minus the triangle {y, z, y+z}
    "F1": [
        ("y+z", "x"), ("x", "x+y"), ("x+y", "x+z"), ("x+z", "x+y+z"),
        ("x+y+z", "y+z"), ("x", "x+z"), ("x+z", "z"), ("z", "x"),
        ("x+y", "z"), ("z", "x+y+z"), ("x+y+z", "x+y"), ("x+y", "y+z"),
        ("x+y+z", "x"), ("y+z", "x+z"), ("x+z", "y"), ("y", "x+y"),
        ("x+y+z", "y"), ("y", "x"),
    ],
    # K_7
    "F2": [
        (a, b)
        for i, a in enumerate(["x", "y", "z", "x+y", "x+z", "y+z", "x+y+z"])
        for b in ["x", "y", "z", "x+y", "x+z", "y+z", "x+y+z"][i + 1:]
    ],
    # octahedron on six labeled elements
    "F3": [
        ("x", "y"), ("y", "x+z"), ("x+z", "y+z"), ("y+z", "x+y+z"),
        ("x+y+z", "x"), ("x", "x+y"), ("x+y", "x+z"), ("x+z", "x+y+z"),
        ("x+y+z", "y"), ("y", "x+y"), ("x+y", "y+z"), ("y+z", "x"),
    ],
    # K_3
    "F4": [("x", "y"), ("x", "x+y"), ("y", "x+y")],
    # the octahedron again, drawn planarly
    "F5": [
        ("x", "y"), ("y", "x+y+z"), ("x+y+z", "y+z"), ("y+z", "x+z"),
        ("x+z", "y"), ("y+z", "x+y"), ("x+y", "x+z"), ("x", "x+y+z"),
        ("y", "x+y"), ("x+y", "x"), ("y+z", "x"), ("x+z", "x+y+z"),
    ],
    # K_{3,3} inside the |L| = 9 graph
    "F6": [
        (a, b)
        for a in ["2x+y", "y", "2y"]
        for b in ["x+y", "x", "2x+2y"]
    ],
    # K_{3,3} inside F1
    "F7": [
        (a, b)
        for a in ["z", "y", "x"]
        for b in ["x+z", "x+y", "x+y+z"]
    ],
}

FIGURE_IDS = tuple(sorted(FIGURE_EDGES))


def figure_graph(figure_id):
    """The unnamed reference Graph of one figure id (F1..F7), each name
    numbered in order of its first appearance in the edge list."""
    edges = FIGURE_EDGES[figure_id]
    index = {}
    for edge in edges:
        for x in edge:
            index.setdefault(x, len(index))
    return Graph.from_edges(len(index), [(index[a], index[b]) for a, b in edges])
