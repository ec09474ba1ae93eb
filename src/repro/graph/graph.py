"""DAG container for ConvNet computational graphs.

Nodes are inserted in topological order by :class:`~repro.graph.builder.
GraphBuilder`; the graph stores resolved per-sample output shapes so every
metric query is a cheap lookup rather than a re-inference.

Blocks — the repeating units the paper predicts in Section 4.1.2 — are
recorded as hierarchical scope strings on each node (for example
``"layer1.0"``), and :meth:`ComputeGraph.block_subgraph` extracts a block as
a standalone graph so the same performance model applies unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

from repro.graph.layers import Input, Layer
from repro.graph.tensor import TensorShape


@dataclass(frozen=True)
class Node:
    """A single layer instance in the graph."""

    name: str
    layer: Layer
    inputs: tuple[str, ...]
    output_shape: TensorShape
    block: str = ""

    def in_block(self, scope: str) -> bool:
        """True if this node lives in ``scope`` or a nested scope of it."""
        return self.block == scope or self.block.startswith(scope + ".")


class ComputeGraph:
    """An immutable-after-construction DAG of layers in topological order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._order: list[str] = []
        self._fingerprint: str | None = None
        self._consumers: dict[str, list[Node]] | None = None

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Append a node; all of its inputs must already be present."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r} in {self.name}")
        for parent in node.inputs:
            if parent not in self._nodes:
                raise ValueError(
                    f"node {node.name!r} references unknown input {parent!r}"
                )
        self._nodes[node.name] = node
        self._order.append(node.name)
        self._fingerprint = None
        self._consumers = None

    def fingerprint(self) -> str:
        """Stable content hash of the graph: name, node order, layer
        configurations, wiring, shapes, and block scopes.

        Two graphs with equal fingerprints are structurally identical, so
        a deterministic pass pipeline rewrites them identically — the
        cache key :data:`repro.graph.passes.PIPELINE_CACHE` relies on.
        Layer configurations enter through their dataclass ``repr``, which
        covers every cost-relevant field.  Cached until the next
        :meth:`add_node`.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self.name.encode())
            for name in self._order:
                node = self._nodes[name]
                h.update(
                    "\x1f".join(
                        (
                            node.name,
                            repr(node.layer),
                            "\x1e".join(node.inputs),
                            repr(node.output_shape),
                            node.block,
                        )
                    ).encode()
                )
                h.update(b"\x00")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[Node]:
        for name in self._order:
            yield self._nodes[name]

    def node(self, name: str) -> Node:
        return self._nodes[name]

    @property
    def nodes(self) -> list[Node]:
        return [self._nodes[n] for n in self._order]

    @property
    def input_nodes(self) -> list[Node]:
        return [n for n in self if isinstance(n.layer, Input)]

    @property
    def output_node(self) -> Node:
        """The unique sink of the graph (no node consumes it)."""
        consumed = {parent for n in self for parent in n.inputs}
        sinks = [n for n in self if n.name not in consumed]
        if len(sinks) != 1:
            raise ValueError(
                f"graph {self.name!r} has {len(sinks)} sinks; expected exactly 1"
            )
        return sinks[0]

    def input_shapes(self, node: Node) -> list[TensorShape]:
        """Resolved per-sample shapes of a node's inputs."""
        return [self._nodes[p].output_shape for p in node.inputs]

    def successors(self, name: str) -> list[Node]:
        """Nodes that read ``name``, in graph order, each listed once.

        Served from a consumer index built on the first query and dropped
        by :meth:`add_node`, so the repeated queries of the passes, the
        verifier and :meth:`topological_order` cost a lookup each instead
        of a scan over every node.
        """
        if self._consumers is None:
            consumers: dict[str, list[Node]] = {}
            for node in self:
                for parent in dict.fromkeys(node.inputs):
                    consumers.setdefault(parent, []).append(node)
            self._consumers = consumers
        return list(self._consumers.get(name, ()))

    # -- traversals --------------------------------------------------------

    def topological_order(self) -> list[Node]:
        """Nodes in dependency order, recomputed from the edges.

        Unlike iterating the graph (which trusts insertion order), this is
        a Kahn walk over the actual edge set, with ties broken by insertion
        order so the result is deterministic.  It is the one traversal the
        shape reporter, the verifier, and the pass framework all share.
        Raises :class:`ValueError` when the edges admit no schedule (a
        cycle or an unknown input reference).
        """
        indegree = {name: 0 for name in self._order}
        for node in self:
            for parent in node.inputs:
                if parent not in indegree:
                    raise ValueError(
                        f"node {node.name!r} references unknown input "
                        f"{parent!r}"
                    )
                indegree[node.name] += 1
        ready = [name for name in self._order if indegree[name] == 0]
        ordered: list[Node] = []
        while ready:
            # Pop the earliest-inserted ready node: deterministic, and on
            # well-formed graphs it reproduces the insertion order exactly.
            name = ready.pop(0)
            ordered.append(self._nodes[name])
            for succ in self.successors(name):
                indegree[succ.name] -= 1
                if indegree[succ.name] == 0:
                    ready.append(succ.name)
        if len(ordered) != len(self._order):
            stuck = sorted(set(self._order) - {n.name for n in ordered})
            raise ValueError(
                f"graph {self.name!r} has no topological order; nodes "
                f"{stuck} sit on a cycle"
            )
        return ordered

    def reachable_from_sink(self) -> set[str]:
        """Names of nodes the sink transitively reads (itself included).

        The sink is the last node in topological order — the graph's output
        by construction.  Everything outside this set is dead weight: its
        FLOPs and parameters still land in the metric vector, which is
        exactly what verify's IR002 and the ``EliminateDeadLayers`` pass
        use this walk to find.
        """
        if not self._order:
            return set()
        stack = [self._order[-1]]
        seen: set[str] = set()
        while stack:
            name = stack.pop()
            if name in seen or name not in self._nodes:
                continue  # unknown refs are IR003's finding, not ours
            seen.add(name)
            stack.extend(self._nodes[name].inputs)
        return seen

    # -- blocks ------------------------------------------------------------

    def block_names(self) -> list[str]:
        """Block scopes in first-appearance order."""
        seen: dict[str, None] = {}
        for node in self:
            if node.block:
                seen.setdefault(node.block, None)
        return list(seen)

    def block_nodes(self, scope: str) -> list[Node]:
        nodes = [n for n in self if n.in_block(scope)]
        if not nodes:
            raise KeyError(f"no nodes in block scope {scope!r} of {self.name}")
        return nodes

    def block_subgraph(self, scope: str) -> "ComputeGraph":
        """Extract a block as a standalone graph.

        Edges crossing into the block are replaced with fresh ``Input``
        placeholder nodes carrying the producer's shape, so the block is a
        well-formed small network of its own — the property the paper relies
        on for block-wise prediction ("blocks are small neural networks
        themselves").
        """
        members = {n.name for n in self.block_nodes(scope)}
        sub = ComputeGraph(f"{self.name}/{scope}")
        placeholder_of: dict[str, str] = {}
        for node in self:
            if node.name not in members:
                continue
            inputs: list[str] = []
            for parent in node.inputs:
                if parent in members:
                    inputs.append(parent)
                    continue
                if parent not in placeholder_of:
                    ph_name = f"__input_{len(placeholder_of)}"
                    shape = self._nodes[parent].output_shape
                    sub.add_node(
                        Node(ph_name, Input(shape), (), shape, block="")
                    )
                    placeholder_of[parent] = ph_name
                inputs.append(placeholder_of[parent])
            sub.add_node(
                Node(node.name, node.layer, tuple(inputs), node.output_shape, "")
            )
        return sub

    # -- aggregate metrics ---------------------------------------------------

    def validate(self) -> None:
        """Re-run shape inference on every node and check stored shapes."""
        for node in self:
            inferred = node.layer.infer_shape(self.input_shapes(node))
            if inferred != node.output_shape:
                raise ValueError(
                    f"stored shape {node.output_shape} of {node.name!r} does not "
                    f"match inferred {inferred}"
                )

    def parameter_count(self) -> int:
        """Total learnable parameters (the paper's Weights metric W)."""
        return sum(n.layer.param_count() for n in self)

    def parametric_layer_count(self) -> int:
        """Number of layers owning parameters (the paper's Layers metric L).

        Horovod synchronises gradients per parameter tensor, so the natural
        realisation of "number of layers" for the gradient-update model is
        the count of layers that actually produce gradients.
        """
        return sum(1 for n in self if n.layer.has_params)

    def conv_nodes(self) -> list[Node]:
        return [n for n in self if n.layer.is_conv]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComputeGraph({self.name!r}, {len(self)} nodes)"


def sequential_shapes(graph: ComputeGraph) -> list[tuple[str, TensorShape]]:
    """(name, shape) pairs in topological order — a debugging/report helper.

    Recomputes the order from the edge set via
    :meth:`ComputeGraph.topological_order`, so the report stays honest even
    for graphs whose insertion order was corrupted.
    """
    return [(n.name, n.output_shape) for n in graph.topological_order()]


def check_same_topology(a: ComputeGraph, b: ComputeGraph) -> bool:
    """True when two graphs share layer sequence and wiring (ignoring names)."""
    if len(a) != len(b):
        return False
    index_a = {n.name: i for i, n in enumerate(a)}
    index_b = {n.name: i for i, n in enumerate(b)}
    for na, nb in zip(a, b):
        if type(na.layer) is not type(nb.layer):
            return False
        if tuple(index_a[p] for p in na.inputs) != tuple(
            index_b[p] for p in nb.inputs
        ):
            return False
    return True


__all__ = [
    "Node",
    "ComputeGraph",
    "sequential_shapes",
    "check_same_topology",
]
