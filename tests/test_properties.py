"""Property-based tests across the stack (hypothesis).

Random ConvNet-shaped graphs are generated through the builder; invariants
of shape inference, cost accounting, the roofline, and the regression must
hold for all of them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import forward_design, target
from repro.core.forward import ForwardModel
from repro.graph.builder import GraphBuilder
from repro.graph.metrics import graph_costs, summarize_costs
from repro.graph.reference import ReferenceExecutor
from repro.hardware.device import A100_80GB, XEON_GOLD_5318Y_CORE
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.roofline import layer_times, profile_graph

# A random "stage" of a ConvNet: (kind, out_channels, kernel, stride).
_stage = st.tuples(
    st.sampled_from(["conv", "conv_dw", "pool", "act", "bn"]),
    st.integers(4, 32),
    st.sampled_from([1, 3]),
    st.sampled_from([1, 2]),
)


def _build_random_graph(stages, channels=3, size=32):
    b = GraphBuilder("random")
    x = b.input(channels, size, size)
    for kind, out_ch, kernel, stride in stages:
        shape = b.shape(x)
        if shape.height < kernel * stride:
            continue
        if kind == "conv":
            x = b.conv(x, out_ch, kernel_size=kernel, stride=stride,
                       padding=kernel // 2)
        elif kind == "conv_dw":
            c = b.channels(x)
            x = b.conv(x, c, kernel_size=kernel, stride=stride,
                       padding=kernel // 2, groups=c)
        elif kind == "pool":
            x = b.maxpool(x, 2, stride=2) if shape.height >= 2 else x
        elif kind == "act":
            x = b.relu(x)
        elif kind == "bn":
            x = b.bn(x)
    return b.finish(), x


class TestRandomGraphInvariants:
    @given(stages=st.lists(_stage, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_builder_output_always_validates(self, stages):
        graph, _ = _build_random_graph(stages)
        graph.validate()

    @given(stages=st.lists(_stage, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_costs_nonnegative_and_consistent(self, stages):
        graph, _ = _build_random_graph(stages)
        costs = graph_costs(graph)
        for c in costs:
            assert c.flops >= 0
            assert c.input_elems > 0
            assert c.output_elems > 0
            assert c.params >= 0
        summary = summarize_costs(graph)
        assert summary.flops == sum(c.flops for c in costs)
        assert summary.weights == graph.parameter_count()

    @given(stages=st.lists(_stage, min_size=1, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_reference_executor_matches_inference(self, stages):
        graph, out = _build_random_graph(stages)
        shape = graph.node(out).output_shape
        result = ReferenceExecutor(graph, seed=0).run(
            np.random.default_rng(0).normal(size=(1, 3, 32, 32))
        )
        assert result.shape[1:] == (shape.channels, shape.height, shape.width)
        assert np.all(np.isfinite(result))

    @given(
        stages=st.lists(_stage, min_size=1, max_size=8),
        batch=st.sampled_from([1, 4, 32, 256]),
    )
    @settings(max_examples=40, deadline=None)
    def test_roofline_times_positive_finite(self, stages, batch):
        graph, _ = _build_random_graph(stages)
        profile = profile_graph(graph)
        for device in (A100_80GB, XEON_GOLD_5318Y_CORE):
            t = layer_times(profile, batch, device)
            assert np.all(t > 0)
            assert np.all(np.isfinite(t))

    @given(stages=st.lists(_stage, min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_roofline_monotone_in_batch(self, stages):
        graph, _ = _build_random_graph(stages)
        profile = profile_graph(graph)
        times = [
            layer_times(profile, b, A100_80GB).sum() for b in (1, 8, 64)
        ]
        assert times[0] <= times[1] <= times[2]

    @given(stages=st.lists(_stage, min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_backward_never_cheaper_than_forward(self, stages):
        graph, _ = _build_random_graph(stages)
        ex = SimulatedExecutor(A100_80GB, seed=0)
        profile = profile_graph(graph)
        assert ex.backend.backward_time_clean(profile, 8) >= (
            ex.backend.forward_time_clean(profile, 8)
            - profile.n_layers * 1e-9
        )


class TestRegressionProperties:
    @given(
        seed=st.integers(0, 500),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_prediction_equivariant_under_time_scaling(self, seed, scale):
        """Scaling all measured times by k scales all predictions by k."""
        from tests.test_core_models import synthetic_dataset
        from repro.benchdata.records import Dataset, TimingRecord

        data = synthetic_dataset(seed=seed)
        scaled = Dataset(
            [
                TimingRecord(
                    **{
                        **r.to_dict(),
                        "features": r.features,
                        "t_fwd": r.t_fwd * scale,
                    }
                )
                for r in data
            ]
        )
        base = ForwardModel().fit(data).predict(data)
        scaled_pred = ForwardModel().fit(scaled).predict(scaled)
        np.testing.assert_allclose(scaled_pred, base * scale, rtol=1e-6)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_prediction_invariant_under_record_order(self, seed):
        from tests.test_core_models import synthetic_dataset
        from repro.benchdata.records import Dataset

        data = synthetic_dataset(seed=seed)
        rng = np.random.default_rng(seed)
        shuffled = Dataset(
            [data[i] for i in rng.permutation(len(data))]
        )
        a = ForwardModel().fit(data)
        b = ForwardModel().fit(shuffled)
        np.testing.assert_allclose(
            a.predict(data), b.predict(data), rtol=1e-8
        )

    @given(seed=st.integers(0, 500), batch=st.integers(1, 4096))
    @settings(max_examples=25, deadline=None)
    def test_forward_design_row_linear_in_batch(self, seed, batch):
        from tests.test_core_models import synthetic_dataset

        data = synthetic_dataset(seed=seed)
        X = forward_design(list(data))
        y = target(list(data), "fwd")
        assert X.shape[0] == y.shape[0]
        # Metric columns scale with the record's batch by construction.
        r = data[0]
        from repro.core.features import forward_row

        row1 = forward_row(r.features, 1)
        rowb = forward_row(r.features, batch)
        np.testing.assert_allclose(rowb[:-1], batch * row1[:-1])
        assert rowb[-1] == 1.0


class TestLearnedPredictorDeterminism:
    """The suite's honesty floor: every learned predictor is a pure
    function of (data, seed) — bit-identical replay, enumeration-order
    independence."""

    @staticmethod
    def _factories():
        from repro.baselines import ConvMeterPredictor, PerfSeer, PreNeT
        from repro.baselines import ResPerfNet
        from tests.conftest import SUITE_MLP_KWARGS

        return {
            "convmeter": lambda: ConvMeterPredictor("fwd", seed=3),
            "resperfnet": lambda: ResPerfNet(
                "fwd", seed=3, **SUITE_MLP_KWARGS
            ),
            "perfseer": lambda: PerfSeer("fwd", seed=3),
            "prenet": lambda: PreNeT("fwd", seed=3, **SUITE_MLP_KWARGS),
        }

    @pytest.mark.parametrize(
        "name", ["convmeter", "resperfnet", "perfseer", "prenet"]
    )
    def test_same_seed_twice_is_bit_identical(
        self, name, suite_inference_data
    ):
        make = self._factories()[name]
        a = make().fit(suite_inference_data)
        b = make().fit(suite_inference_data)
        pa = a.predict(suite_inference_data)
        pb = b.predict(suite_inference_data)
        assert np.array_equal(pa, pb), f"{name}: same-seed replay differs"

    @pytest.mark.parametrize("name", ["resperfnet", "perfseer", "prenet"])
    def test_same_seed_state_is_identical(self, name, suite_inference_data):
        make = self._factories()[name]
        a = make().fit(suite_inference_data)
        b = make().fit(suite_inference_data)
        assert a.to_state() == b.to_state()

    @pytest.mark.parametrize(
        "name", ["convmeter", "resperfnet", "perfseer", "prenet"]
    )
    def test_fit_independent_of_enumeration_order(
        self, name, suite_inference_data
    ):
        from repro.benchdata.records import Dataset

        make = self._factories()[name]
        rng = np.random.default_rng(1234)
        shuffled = Dataset(
            [
                suite_inference_data[i]
                for i in rng.permutation(len(suite_inference_data))
            ]
        )
        a = make().fit(suite_inference_data)
        b = make().fit(shuffled)
        pa = a.predict(suite_inference_data)
        pb = b.predict(suite_inference_data)
        assert np.array_equal(pa, pb), (
            f"{name}: fit depends on record enumeration order"
        )
