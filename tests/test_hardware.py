"""Hardware simulator: devices, roofline, noise, memory, executor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.builder import GraphBuilder
from repro.hardware import (
    A100_80GB,
    DEVICE_PRESETS,
    EPYC_7402_CORE,
    XEON_GOLD_5318Y_CORE,
    OutOfDeviceMemory,
    PhaseTimes,
    SimulatedExecutor,
    get_device,
    inference_memory_bytes,
    layer_times,
    profile_graph,
    training_memory_bytes,
)
from repro.hardware.memory import check_fits, fits
from repro.hardware.noise import multiplicative_noise, noise_vector, stable_seed
from repro.hardware.roofline import zoo_profile
from repro.zoo import build_model


@pytest.fixture(scope="module")
def resnet_profile():
    return zoo_profile("resnet18", 64)


class TestDevicePresets:
    def test_presets_registered(self):
        assert set(DEVICE_PRESETS) == {
            "a100-80gb", "xeon-gold-5318y-core", "epyc-7402-core",
            "jetson-agx-orin", "jetson-xavier-nx", "jetson-orin-nano",
        }

    def test_get_device(self):
        assert get_device("a100-80gb") is A100_80GB

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("tpu-v5")

    def test_gpu_faster_than_cpu_core(self):
        assert A100_80GB.peak_flops > 50 * XEON_GOLD_5318Y_CORE.peak_flops
        assert A100_80GB.mem_bandwidth > 50 * XEON_GOLD_5318Y_CORE.mem_bandwidth

    def test_utilisation_ramps_monotone(self):
        for dev in (A100_80GB, EPYC_7402_CORE):
            u = [dev.compute_utilisation(w) for w in (1e3, 1e6, 1e9, 1e12)]
            assert u == sorted(u)
            assert 0 < u[0] < u[-1] < 1


class TestCostProfile:
    def test_profile_arrays_aligned(self, resnet_profile):
        p = resnet_profile
        n = p.n_layers
        for arr in (p.flops, p.act_bytes, p.weight_bytes, p.eff_class,
                    p.has_params, p.param_counts, p.input_elems,
                    p.output_elems, p.is_conv):
            assert arr.shape == (n,)

    def test_profile_totals_match_graph(self):
        g = build_model("resnet18", 64)
        p = profile_graph(g)
        assert p.total_params == g.parameter_count()
        assert p.parametric_layers == g.parametric_layer_count()

    def test_convmeter_metrics_positive(self, resnet_profile):
        assert resnet_profile.total_flops > 0
        assert resnet_profile.conv_input_elems > 0
        assert resnet_profile.conv_output_elems > 0

    def test_zoo_profile_cached(self):
        a = zoo_profile("resnet18", 64)
        b = zoo_profile("resnet18", 64)
        assert a is b


class TestLayerTimes:
    def test_positive_and_finite(self, resnet_profile):
        t = layer_times(resnet_profile, 4, A100_80GB)
        assert np.all(t > 0)
        assert np.all(np.isfinite(t))

    def test_monotone_in_batch(self, resnet_profile):
        t1 = layer_times(resnet_profile, 1, A100_80GB).sum()
        t8 = layer_times(resnet_profile, 8, A100_80GB).sum()
        t64 = layer_times(resnet_profile, 64, A100_80GB).sum()
        assert t1 < t8 < t64

    def test_sublinear_at_small_batches(self, resnet_profile):
        # Fixed overheads mean doubling a tiny batch costs less than 2x.
        t1 = layer_times(resnet_profile, 1, A100_80GB).sum()
        t2 = layer_times(resnet_profile, 2, A100_80GB).sum()
        assert t2 < 2 * t1

    def test_asymptotically_linear(self, resnet_profile):
        t512 = layer_times(resnet_profile, 512, A100_80GB).sum()
        t1024 = layer_times(resnet_profile, 1024, A100_80GB).sum()
        assert 1.85 < t1024 / t512 < 2.05

    def test_cpu_slower_than_gpu(self, resnet_profile):
        gpu = layer_times(resnet_profile, 16, A100_80GB).sum()
        cpu = layer_times(resnet_profile, 16, XEON_GOLD_5318Y_CORE).sum()
        assert cpu > 10 * gpu

    def test_backward_factors_increase_time(self, resnet_profile):
        fwd = layer_times(resnet_profile, 8, A100_80GB).sum()
        bwd = layer_times(
            resnet_profile, 8, A100_80GB, flops_factor=2.0, bytes_factor=2.0
        ).sum()
        assert bwd > fwd

    def test_invalid_batch(self, resnet_profile):
        with pytest.raises(ValueError):
            layer_times(resnet_profile, 0, A100_80GB)

    def test_depthwise_less_efficient_than_dense(self):
        # Same FLOPs executed as depthwise must take at least as long.
        b = GraphBuilder("dense")
        x = b.input(64, 32, 32)
        b.conv(x, 64, kernel_size=3, padding=1, bias=False)
        dense = profile_graph(b.finish())
        b2 = GraphBuilder("dw")
        x2 = b2.input(64, 32, 32)
        b2.conv(x2, 64, kernel_size=3, padding=1, groups=64, bias=False)
        dw = profile_graph(b2.finish())
        t_dense = layer_times(dense, 64, A100_80GB)[0] / dense.flops[0]
        t_dw = layer_times(dw, 64, A100_80GB)[0] / dw.flops[0]
        assert t_dw > t_dense  # worse seconds-per-flop


class TestNoise:
    def test_stable_seed_deterministic(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_noise_deterministic(self):
        a = multiplicative_noise(0.1, "x", 1)
        b = multiplicative_noise(0.1, "x", 1)
        assert a == b

    def test_noise_zero_sigma_is_one(self):
        assert multiplicative_noise(0.0, "x") == 1.0

    def test_noise_positive(self):
        for i in range(50):
            assert multiplicative_noise(0.3, "k", i) > 0

    def test_noise_centred(self):
        samples = noise_vector(0.1, 20000, "centred-test")
        assert abs(samples.mean() - 1.0) < 0.01

    def test_noise_vector_shape_and_zero_sigma(self):
        assert noise_vector(0.0, 5, "x").tolist() == [1.0] * 5
        assert noise_vector(0.2, 7, "x").shape == (7,)

    @given(sigma=st.floats(0.01, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_noise_scale_bounded(self, sigma):
        v = noise_vector(sigma, 100, "bound", sigma)
        # Log-normal with small sigma stays within a few sigmas of 1.
        assert np.all(v > np.exp(-6 * sigma) - 1e-9)
        assert np.all(v < np.exp(6 * sigma) + 1e-9)


class TestMemoryModel:
    def test_training_needs_more_than_inference(self, resnet_profile):
        inf = inference_memory_bytes(resnet_profile, 32)
        tr = training_memory_bytes(resnet_profile, 32)
        assert tr > inf

    def test_monotone_in_batch(self, resnet_profile):
        assert training_memory_bytes(resnet_profile, 64) > (
            training_memory_bytes(resnet_profile, 8)
        )

    def test_check_fits_raises_with_details(self, resnet_profile):
        with pytest.raises(OutOfDeviceMemory) as exc:
            check_fits(resnet_profile, 2**22, A100_80GB, training=True)
        assert exc.value.needed > exc.value.available

    def test_fits_boolean(self, resnet_profile):
        assert fits(resnet_profile, 1, A100_80GB, training=False)
        assert not fits(resnet_profile, 2**22, A100_80GB, training=True)

    def test_huge_batch_inference_oom(self):
        profile = zoo_profile("vgg16", 224)
        assert not fits(profile, 2**17, A100_80GB, training=False)


class TestSimulatedExecutor:
    def test_inference_deterministic(self, resnet_profile):
        ex = SimulatedExecutor(A100_80GB, seed=3)
        assert ex.measure_inference(resnet_profile, 8) == ex.measure_inference(
            resnet_profile, 8
        )

    def test_different_reps_differ(self, resnet_profile):
        ex = SimulatedExecutor(A100_80GB, seed=3)
        a = ex.measure_inference(resnet_profile, 8, rep=0)
        b = ex.measure_inference(resnet_profile, 8, rep=1)
        assert a != b
        assert abs(a - b) / a < 0.5  # same scale, different jitter

    def test_different_seed_differs(self, resnet_profile):
        a = SimulatedExecutor(A100_80GB, seed=1).measure_inference(
            resnet_profile, 8
        )
        b = SimulatedExecutor(A100_80GB, seed=2).measure_inference(
            resnet_profile, 8
        )
        assert a != b

    def test_accepts_graph_directly(self):
        g = build_model("alexnet", 64)
        t = SimulatedExecutor(A100_80GB).measure_inference(g, 1)
        assert t > 0

    def test_training_phases_positive(self, resnet_profile):
        phases = SimulatedExecutor(A100_80GB, seed=3).measure_training_step(
            resnet_profile, 16
        )
        assert phases.forward > 0
        assert phases.backward > 0
        assert phases.grad_update > 0
        assert phases.total == pytest.approx(
            phases.forward + phases.backward + phases.grad_update
        )

    def test_backward_slower_than_forward(self, resnet_profile):
        ex = SimulatedExecutor(A100_80GB, seed=3)
        clean_f = ex.backend.forward_time_clean(resnet_profile, 64)
        clean_b = ex.backend.backward_time_clean(resnet_profile, 64)
        assert clean_b > clean_f

    def test_memory_enforcement(self):
        profile = zoo_profile("vgg16", 224)
        ex = SimulatedExecutor(A100_80GB)
        with pytest.raises(OutOfDeviceMemory):
            ex.measure_training_step(profile, 2**14)
        # Bypass flag supports beyond-memory prediction studies.
        phases = ex.measure_training_step(
            profile, 2**14, enforce_memory=False
        )
        assert phases.total > 0

    def test_grad_update_scales_with_layer_count(self):
        deep = zoo_profile("densenet121", 64)
        shallow = zoo_profile("alexnet", 64)
        ex = SimulatedExecutor(A100_80GB)
        # DenseNet has ~30x the parameter tensors but ~8x fewer weights;
        # per-tensor launches must make it the slower update despite that.
        assert ex.backend.grad_update_time_clean(deep) > (
            ex.backend.grad_update_time_clean(shallow)
        )

    def test_phase_times_backward_plus_update(self):
        p = PhaseTimes(forward=1.0, backward=2.0, grad_update=0.5)
        assert p.backward_plus_update == 2.5
        assert p.total == 3.5
