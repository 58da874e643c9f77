"""Serialisation of decision diagrams.

Serialises a DD to a JSON-compatible dictionary (and back) so states and
operators can be checkpointed, diffed, or shipped between processes.  The
format stores each distinct node once (exploiting the sharing that makes
DDs compact), in bottom-up topological order:

```json
{
  "kind": "vector",
  "root": [nodeRef, re, im],
  "nodes": [[level, [childRef, re, im], [childRef, re, im]], ...]
}
```

``nodeRef`` is an index into ``nodes`` or ``-1`` for the terminal; zero
edges are stored as ``[-1, 0.0, 0.0]``.  Loading re-interns everything
through the target package, so loaded diagrams share structure with the
diagrams already living there.

Deserialisation is *defensive*: checkpoints live on disk where they can be
truncated or corrupted, so every structural assumption (``nodes`` present
and a list, per-node arity, child references pointing strictly backwards
into already-built nodes) is validated with a :class:`ValueError` naming
the offending node index -- never a bare ``KeyError``/``IndexError``.
"""

from __future__ import annotations

import json
from typing import Any

from .edge import Edge
from .node import MatrixNode
from .package import Package

__all__ = ["serialize_dd", "deserialize_dd", "dumps_dd", "loads_dd"]

_TERMINAL_REF = -1


def serialize_dd(edge: Edge) -> dict[str, Any]:
    """Serialise a vector or matrix DD to a JSON-compatible dict."""
    kind = "matrix" if isinstance(edge.node, MatrixNode) else "vector"
    nodes: list[list] = []
    if edge.weight == 0:
        root = [_TERMINAL_REF, 0.0, 0.0]
    else:
        root = [_encode_node(edge.node, nodes, {}), edge.weight.real,
                edge.weight.imag]
    return {"kind": kind, "root": root, "nodes": nodes}


def _encode_node(node, nodes: list[list], index_of: dict[int, int]) -> int:
    """Append ``node``'s sub-DD to ``nodes`` bottom-up; return its index.

    Module-level rather than a closure: a self-calling closure would keep
    ``nodes`` and ``index_of`` alive in a reference cycle until the cyclic
    collector runs.
    """
    if node.level == -1:
        return _TERMINAL_REF
    found = index_of.get(id(node))
    if found is not None:
        return found
    encoded_children = []
    for child in node.edges:
        if child.weight == 0:
            encoded_children.append([_TERMINAL_REF, 0.0, 0.0])
        else:
            encoded_children.append([_encode_node(child.node, nodes,
                                                  index_of),
                                     child.weight.real, child.weight.imag])
    index = len(nodes)
    index_of[id(node)] = index
    nodes.append([node.level, *encoded_children])
    return index


def _decode_edge_ref(encoded, where: str) -> tuple[int, complex]:
    """Validate one ``[ref, re, im]`` triple; return ``(ref, weight)``."""
    if (not isinstance(encoded, (list, tuple)) or len(encoded) != 3):
        raise ValueError(f"malformed edge {encoded!r} at {where}: "
                         "expected [nodeRef, re, im]")
    ref, re, im = encoded
    if not isinstance(ref, int) or isinstance(ref, bool):
        raise ValueError(f"malformed node reference {ref!r} at {where}: "
                         "expected an integer")
    try:
        weight = complex(float(re), float(im))
    except (TypeError, ValueError):
        raise ValueError(f"malformed edge weight ({re!r}, {im!r}) "
                         f"at {where}") from None
    return ref, weight


def deserialize_dd(package: Package, payload: dict[str, Any]) -> Edge:
    """Rebuild a DD inside ``package`` from :func:`serialize_dd` output.

    Raises :class:`ValueError` (naming the offending node index) on any
    structural corruption: missing/non-list ``nodes``, wrong per-node
    arity, or child references that do not point strictly backwards into
    already-built nodes.  A truncated or hand-edited checkpoint therefore
    fails loudly instead of surfacing a ``KeyError`` deep in the package.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"DD payload must be a dict, "
                         f"got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in ("vector", "matrix"):
        raise ValueError(f"unknown DD kind {kind!r}")
    make_node = package.make_matrix_node if kind == "matrix" \
        else package.make_vector_node
    arity = 4 if kind == "matrix" else 2
    nodes = payload.get("nodes")
    if nodes is None:
        raise ValueError("DD payload has no 'nodes' list")
    if not isinstance(nodes, list):
        raise ValueError(f"'nodes' must be a list, "
                         f"got {type(nodes).__name__}")
    if "root" not in payload:
        raise ValueError("DD payload has no 'root' edge")
    rebuilt: list[Edge] = []

    def edge_from(encoded, where: str) -> Edge:
        ref, weight = _decode_edge_ref(encoded, where)
        if weight == 0:
            return package.zero
        if ref == _TERMINAL_REF:
            return package.terminal_edge(weight)
        if not 0 <= ref < len(rebuilt):
            raise ValueError(
                f"dangling node reference {ref} at {where}: child "
                f"references must point backwards into the "
                f"{len(rebuilt)} node(s) built so far")
        return package._scaled(rebuilt[ref], weight)

    for index, entry in enumerate(nodes):
        if not isinstance(entry, (list, tuple)) or len(entry) < 1:
            raise ValueError(f"malformed entry at node index {index}: "
                             f"expected [level, *children], got {entry!r}")
        level, *children = entry
        if not isinstance(level, int) or isinstance(level, bool) \
                or level < 0:
            raise ValueError(f"node index {index} has invalid level "
                             f"{level!r}")
        if len(children) != arity:
            raise ValueError(f"node index {index} (level {level}) has "
                             f"{len(children)} children, expected {arity} "
                             f"for kind {kind!r}")
        rebuilt.append(make_node(level, tuple(
            edge_from(child, f"node index {index}, child {position}")
            for position, child in enumerate(children))))
    return edge_from(payload["root"], "root")


def dumps_dd(edge: Edge, indent: int | None = None) -> str:
    """Serialise a DD to a JSON string."""
    return json.dumps(serialize_dd(edge), indent=indent)


def loads_dd(package: Package, text: str) -> Edge:
    """Load a DD from a JSON string produced by :func:`dumps_dd`."""
    return deserialize_dd(package, json.loads(text))
