"""Batched-versus-scalar byte identity of the runtime's vectorized paths.

Each batched entry point (``predict_configs``, the serve batch
predictors, ``layer_times`` rows, ``clean_time_grids``, the campaign
clean-time grid, pass-pipeline memoisation, graph fingerprints) must
return exactly what the per-element path returns."""

from itertools import combinations_with_replacement

import numpy as np
import pytest


@pytest.fixture(scope="module")
def forward_model_and_data():
    from repro.benchdata import inference_campaign
    from repro.core.forward import ForwardModel

    data = inference_campaign(
        models=("alexnet", "resnet18"),
        batch_sizes=(1, 8, 32),
        image_sizes=(64, 128),
        seed=31,
    )
    return ForwardModel().fit(data), data


@pytest.fixture(scope="module")
def step_model_and_data():
    from repro.benchdata import distributed_campaign
    from repro.core.training import TrainingStepModel

    data = distributed_campaign(
        models=("alexnet", "resnet18", "mobilenet_v2"),
        node_counts=(1, 2, 4),
        batch_sizes=(16, 64),
        image_sizes=(64, 128),
        seed=33,
    )
    return TrainingStepModel().fit(data), data


class TestTriageByteIdentity:
    """Every vectorized path equals its per-element reference exactly."""

    def test_linear_predict_matrix_vs_single_rows(self, forward_model_and_data):
        # regression.py keeps its columnwise loop (shape-invariant
        # reduction order); batching rows through it must equal
        # row-at-a-time calls.
        model, data = forward_model_and_data
        lm = model.model
        from repro.core.features import forward_design

        X = forward_design(list(data), model.metric_names)
        batched = lm.predict(X)
        rows = np.array([lm.predict(X[i])[0] for i in range(len(X))])
        assert batched.tolist() == rows.tolist()

    def test_forward_predict_configs_vs_predict_one(
        self, forward_model_and_data
    ):
        model, data = forward_model_and_data
        features = data[0].features
        batches = [1, 4, 16, 64, 256]
        batched = model.predict_configs(features, batches)
        scalar = [model.predict_one(features, b) for b in batches]
        assert batched.tolist() == scalar

    def test_step_predict_configs_vs_predict_one(self, step_model_and_data):
        model, data = step_model_and_data
        features = data[0].features
        configs = [
            (16, 1, 1), (64, 1, 1), (16, 8, 2), (64, 8, 2), (32, 16, 4),
        ]
        batched = model.predict_configs(features, configs)
        scalar = [
            model.predict_one(features, b, devices=d, nodes=n).total
            for b, d, n in configs
        ]
        assert batched.tolist() == scalar

    def test_scaling_curves_vs_per_config_predictions(
        self, step_model_and_data
    ):
        from repro.core.scalability import (
            batch_scaling_curve,
            node_scaling_curve,
            strong_scaling_curve,
        )

        model, data = step_model_and_data
        features = data[0].features
        for curve in (
            node_scaling_curve(
                model, features, 16, (1, 2, 4), domain_factor=None
            ),
            strong_scaling_curve(
                model, features, 256, (1, 2, 4), domain_factor=None
            ),
            batch_scaling_curve(
                model, features, (16, 64, 256), domain_factor=None
            ),
        ):
            for point in curve:
                expected = model.predict_one(
                    features,
                    point.per_device_batch,
                    devices=point.devices,
                    nodes=max(point.devices // 4, 1)
                    if point.devices > 1
                    else 1,
                ).total
                assert point.step_time == expected

    def test_serve_forward_batch_vs_scalar(self, forward_model_and_data):
        from repro.serve.protocol import predict_forward_batch

        model, data = forward_model_and_data
        feats = [r.features for r in list(data)[:6]]
        batches = [1, 2, 8, 16, 64, 256]
        batched = predict_forward_batch(model, feats, batches)
        scalar = [
            model.predict_one(f, b) for f, b in zip(feats, batches)
        ]
        assert batched.tolist() == scalar

    def test_serve_step_batch_vs_scalar(self, step_model_and_data):
        from repro.serve.protocol import predict_step_batch

        model, data = step_model_and_data
        feats = [data[0].features] * 4
        batches = [16, 64, 16, 64]
        devices = [1, 1, 8, 8]
        nodes = [1, 1, 2, 2]
        fwd, bwd = predict_step_batch(model, feats, batches, devices, nodes)
        for i in range(4):
            pred = model.predict_one(
                feats[i], batches[i], devices=devices[i], nodes=nodes[i]
            )
            assert fwd[i] == pred.forward
            assert bwd[i] == pred.backward_plus_update

    def test_polynomial_row_vs_scalar_reference(self):
        from repro.baselines.neuralpower import _base_row, polynomial_row
        from repro.benchdata.records import ConvNetFeatures

        def reference(features, batch, degree):
            base = _base_row(features, batch)
            parts = [base]
            for d in range(2, degree + 1):
                parts.append(
                    np.array([
                        np.prod(base[list(combo)])
                        for combo in combinations_with_replacement(
                            range(base.size), d
                        )
                    ])
                )
            parts.append(np.ones(1))
            return np.concatenate(parts)

        features = ConvNetFeatures(7.13e9, 1.2e7, 9.4e6, 6.1e7, 21)
        for degree in (1, 2, 3, 4):
            for batch in (1, 32, 2048):
                assert polynomial_row(
                    features, batch, degree
                ).tolist() == reference(features, batch, degree).tolist()

    def test_paleo_predict_vs_scalar_reference(self, forward_model_and_data):
        from repro.baselines.paleo import PaleoModel
        from repro.hardware.device import get_device

        _, data = forward_model_and_data
        model = PaleoModel(get_device("a100-80gb"))
        records = list(data)
        got = model.predict(records)
        expected = np.array([
            r.features.flops * r.batch
            / (model.device.peak_flops * model.percent_of_peak)
            + ((r.features.inputs + r.features.outputs) * r.batch
               + r.features.weights) * 4.0
            / (model.device.mem_bandwidth * model.percent_of_peak)
            for r in records
        ])
        assert got.tolist() == expected.tolist()

    def test_layer_times_batched_rows_vs_scalar(self):
        from repro.hardware.device import get_device
        from repro.hardware.roofline import layer_times, zoo_profile

        profile = zoo_profile("alexnet", 64)
        device = get_device("a100-80gb")
        batches = (1, 8, 64, 512)
        grid = layer_times(profile, np.asarray(batches), device)
        for row, batch in zip(grid, batches):
            assert row.tolist() == layer_times(
                profile, batch, device
            ).tolist()

    def test_clean_time_grids_vs_clean_components(self):
        from repro.hardware.device import get_device
        from repro.hardware.executor import SimulatedExecutor
        from repro.hardware.roofline import zoo_profile

        profile = zoo_profile("alexnet", 64)
        executor = SimulatedExecutor(get_device("a100-80gb"), seed=3)
        batches = (1, 8, 64)
        inference = executor.backend.clean_time_grids(profile, batches)
        training = executor.backend.clean_time_grids(
            profile, batches, training=True
        )
        for batch in batches:
            assert inference[batch] == (
                executor.backend.forward_time_clean(profile, batch),
            )
            assert training[batch] == (
                executor.backend.forward_time_clean(profile, batch),
                executor.backend.backward_time_clean(profile, batch),
                executor.backend.grad_update_time_clean(profile),
            )

    def test_campaign_grid_cache_records_identical(self):
        from repro.benchdata import CampaignSpec, run_campaign
        from repro.benchdata.engine import CLEAN_TIME_CACHE
        from repro.hardware.device import get_device
        from repro.hardware.roofline import COMPILE_CACHE

        def cold_run(spec, grid_cache):
            for cache in (COMPILE_CACHE, CLEAN_TIME_CACHE):
                cache.clear()
            return run_campaign(spec, verify="off", grid_cache=grid_cache)

        for scenario in ("training", "inference"):
            spec = CampaignSpec(
                scenario=scenario,
                models=("alexnet",),
                device=get_device("a100-80gb"),
                batch_sizes=(1, 8, 32),
                image_sizes=(64,),
                seed=37,
            )
            uncached = cold_run(spec, grid_cache=False)
            cached = cold_run(spec, grid_cache=True)
            assert cached.dataset.records == uncached.dataset.records
            assert cached.stats.counters == uncached.stats.counters

    def test_pipeline_memoization_identical_and_idempotent(self):
        from repro.graph.passes import (
            PIPELINE_CACHE,
            default_inference_pipeline,
        )
        from repro.zoo import build_model

        graph = build_model("alexnet", 64)
        pipeline = default_inference_pipeline()
        PIPELINE_CACHE.clear()
        first = pipeline.run(graph)
        assert pipeline.run(graph) is first  # served from cache
        PIPELINE_CACHE.clear()
        recomputed = pipeline.run(graph)
        assert recomputed is not first
        assert recomputed.graph.fingerprint() == first.graph.fingerprint()
        assert [n.name for n in recomputed.graph] == [
            n.name for n in first.graph
        ]

    def test_graph_fingerprint_invalidates_on_mutation(self):
        from repro.graph.graph import ComputeGraph, Node
        from repro.graph.layers import Input
        from repro.graph.tensor import TensorShape

        shape = TensorShape(3, 8, 8)
        graph = ComputeGraph("probe")
        graph.add_node(Node("in", Input(shape), (), shape))
        before = graph.fingerprint()
        assert graph.fingerprint() == before  # cached, stable
        graph.add_node(Node("in2", Input(shape), (), shape))
        assert graph.fingerprint() != before
