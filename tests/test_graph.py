"""Unit tests for the DAG container, blocks, and graph metrics."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph, Node, check_same_topology, sequential_shapes
from repro.graph.layers import Activation, Add, Conv2d, Input
from repro.graph.metrics import graph_costs, node_cost, summarize_costs
from repro.graph.tensor import TensorShape


def _linear_chain() -> ComputeGraph:
    b = GraphBuilder("chain")
    x = b.input(3, 8, 8)
    x = b.conv(x, 4, kernel_size=3, padding=1)
    x = b.relu(x)
    return b.finish()


class TestComputeGraph:
    def test_length_and_iteration_order(self):
        g = _linear_chain()
        assert len(g) == 3
        types = [type(n.layer).__name__ for n in g]
        assert types == ["Input", "Conv2d", "Activation"]

    def test_duplicate_name_rejected(self):
        g = ComputeGraph("g")
        shape = TensorShape(3, 4, 4)
        g.add_node(Node("a", Input(shape), (), shape))
        with pytest.raises(ValueError, match="duplicate"):
            g.add_node(Node("a", Input(shape), (), shape))

    def test_unknown_input_rejected(self):
        g = ComputeGraph("g")
        shape = TensorShape(3, 4, 4)
        with pytest.raises(ValueError, match="unknown input"):
            g.add_node(
                Node("b", Activation("relu"), ("missing",), shape)
            )

    def test_output_node_is_unique_sink(self):
        g = _linear_chain()
        assert g.output_node.name == g.nodes[-1].name

    def test_output_node_multiple_sinks_raises(self):
        b = GraphBuilder("fork")
        x = b.input(3, 8, 8)
        b.conv(x, 4, kernel_size=1)
        b.conv(x, 4, kernel_size=1)
        with pytest.raises(ValueError, match="sinks"):
            b.graph.output_node

    def test_successors(self):
        g = _linear_chain()
        first = g.nodes[0]
        succ = g.successors(first.name)
        assert len(succ) == 1
        assert isinstance(succ[0].layer, Conv2d)

    def test_successor_index_matches_scan_and_follows_add_node(self):
        # resnet18 has fan-out (residual forks) and fan-in (Add); the
        # index must list consumers exactly as a scan over the nodes did.
        from repro.zoo import build_model

        g = build_model("resnet18", 64)
        for node in g:
            scan = [n for n in g if node.name in n.inputs]
            assert g.successors(node.name) == scan
        shape = TensorShape(3, 4, 4)
        h = ComputeGraph("h")
        h.add_node(Node("in", Input(shape), (), shape))
        h.add_node(Node("sum", Add(), ("in", "in"), shape))
        assert [n.name for n in h.successors("in")] == ["sum"]  # once
        assert h.successors("sum") == []
        h.add_node(Node("relu", Activation("relu"), ("sum",), shape))
        assert [n.name for n in h.successors("sum")] == ["relu"]

    def test_contains_and_node_lookup(self):
        g = _linear_chain()
        name = g.nodes[1].name
        assert name in g
        assert g.node(name).layer.is_conv

    def test_validate_passes_on_builder_output(self):
        _linear_chain().validate()

    def test_validate_catches_corrupted_shape(self):
        g = ComputeGraph("bad")
        in_shape = TensorShape(3, 8, 8)
        g.add_node(Node("in", Input(in_shape), (), in_shape))
        wrong = TensorShape(5, 8, 8)
        g.add_node(
            Node("conv", Conv2d(3, 4, kernel_size=1), ("in",), wrong)
        )
        with pytest.raises(ValueError, match="does not match"):
            g.validate()

    def test_sequential_shapes(self):
        g = _linear_chain()
        pairs = sequential_shapes(g)
        assert len(pairs) == 3
        assert pairs[0][1] == TensorShape(3, 8, 8)


class TestBlocks:
    def _blocked(self) -> ComputeGraph:
        b = GraphBuilder("blocked")
        x = b.input(3, 8, 8)
        with b.block("stage1"):
            x = b.conv_bn_act(x, 8, kernel_size=3, padding=1)
        with b.block("stage2"):
            y = b.conv(x, 8, kernel_size=1)
            x = b.add(x, y)
        return b.finish()

    def test_block_names(self):
        g = self._blocked()
        assert g.block_names() == ["stage1", "stage2"]

    def test_block_nodes(self):
        g = self._blocked()
        assert len(g.block_nodes("stage2")) == 2

    def test_unknown_block_raises(self):
        with pytest.raises(KeyError):
            self._blocked().block_nodes("nope")

    def test_subgraph_is_valid_standalone(self):
        sub = self._blocked().block_subgraph("stage2")
        sub.validate()
        # One placeholder input feeding both the conv and the add.
        inputs = sub.input_nodes
        assert len(inputs) == 1

    def test_subgraph_preserves_costs(self):
        g = self._blocked()
        sub = g.block_subgraph("stage1")
        orig = [node_cost(g, n) for n in g.block_nodes("stage1")]
        new = graph_costs(sub)
        assert sum(c.flops for c in orig) == sum(c.flops for c in new)
        assert sum(c.params for c in orig) == sum(c.params for c in new)

    def test_nested_scopes(self):
        b = GraphBuilder("nested")
        x = b.input(3, 8, 8)
        with b.block("outer"):
            with b.block("inner"):
                x = b.conv(x, 4, kernel_size=1)
        g = b.finish()
        assert g.block_names() == ["outer.inner"]
        assert len(g.block_nodes("outer")) == 1  # prefix match includes nested


class TestTopologyComparison:
    def test_same_graph_matches(self):
        assert check_same_topology(_linear_chain(), _linear_chain())

    def test_different_layer_type_fails(self):
        b = GraphBuilder("other")
        x = b.input(3, 8, 8)
        x = b.conv(x, 4, kernel_size=3, padding=1)
        x = b.bn(x)
        assert not check_same_topology(_linear_chain(), b.finish())

    def test_different_length_fails(self):
        b = GraphBuilder("short")
        b.input(3, 8, 8)
        assert not check_same_topology(_linear_chain(), b.finish())


class TestGraphMetrics:
    def test_parameter_count(self, tiny_graph):
        expected = sum(n.layer.param_count() for n in tiny_graph)
        assert tiny_graph.parameter_count() == expected
        assert tiny_graph.parameter_count() > 0

    def test_parametric_layer_count(self, tiny_graph):
        # conv + bn + linear = 3 parameter-owning layers.
        assert tiny_graph.parametric_layer_count() == 3

    def test_conv_nodes(self, tiny_graph):
        assert len(tiny_graph.conv_nodes()) == 1

    def test_costs_skip_input_placeholder(self, tiny_graph):
        costs = graph_costs(tiny_graph)
        assert all(c.layer_type != "Input" for c in costs)
        assert len(costs) == len(tiny_graph) - 1

    def test_summary_conv_only_io(self, tiny_graph):
        summary = summarize_costs(tiny_graph)
        conv_costs = [c for c in graph_costs(tiny_graph) if c.is_conv]
        assert summary.conv_input_elems == sum(
            c.input_elems for c in conv_costs
        )
        assert summary.conv_output_elems == sum(
            c.output_elems for c in conv_costs
        )

    def test_summary_flops_all_layers(self, tiny_graph):
        summary = summarize_costs(tiny_graph)
        assert summary.flops == sum(c.flops for c in graph_costs(tiny_graph))

    def test_layer_cost_byte_properties(self, tiny_graph):
        cost = graph_costs(tiny_graph)[0]
        assert cost.input_bytes == 4 * cost.input_elems
        assert cost.output_bytes == 4 * cost.output_elems
        assert cost.weight_bytes == 4 * cost.params

    def test_depthwise_flags_in_costs(self):
        b = GraphBuilder("dw")
        x = b.input(8, 8, 8)
        x = b.conv(x, 8, kernel_size=3, padding=1, groups=8)
        x = b.conv(x, 16, kernel_size=1)
        g = b.finish()
        costs = graph_costs(g)
        assert costs[0].is_depthwise and costs[0].conv_groups == 8
        assert costs[1].is_pointwise and not costs[1].is_depthwise
