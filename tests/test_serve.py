"""End-to-end contract of the prediction server (``repro serve``).

Real sockets, ephemeral ports: a :class:`~repro.serve.ModelRegistry` over
fitted v2 artifacts, a background :class:`~repro.serve.PredictionServer`,
and ``http.client`` requests against it.  The suites cover

* the JSON protocol — single and batched predict, scaling queries, the
  4xx error taxonomy (malformed JSON, unknown model/network/device, v1
  artifacts answered 409);
* the equivalence gates — a batched response equals N single-query
  responses with exact float ``==``, and the served numbers match the
  ``repro predict`` CLI digit for digit;
* observability — ``/healthz`` registry snapshots, ``/metrics`` counters
  (JSON and Prometheus text) that stay monotonic under 8 concurrent
  client threads with zero torn responses;
* hot reload — replacing an artifact file under a running server changes
  its answers without a restart;
* the golden-response snapshot — a fixed query grid against the pinned
  ``tests/data/model_v2_golden.json`` artifact, regenerable via::

      PYTHONPATH=src python tests/test_serve.py > tests/data/serve_golden.json
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import threading
from http.client import HTTPConnection
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.core.forward import ForwardModel
from repro.core.persistence import load_model, save_model
from repro.core.training import GradientUpdateModel, TrainingStepModel
from repro.serve import (
    ModelRegistry,
    RegistryError,
    UnknownArtifactError,
    make_server,
    write_manifest,
)

DATA_DIR = Path(__file__).parent / "data"
SERVE_GOLDEN_PATH = DATA_DIR / "serve_golden.json"


# -- plumbing ----------------------------------------------------------------


def _request(server, method, path, body=None, headers=None, raw=None):
    """One HTTP request against a running server; returns (status, payload).

    ``payload`` is parsed JSON for JSON responses, text otherwise.
    """
    host, port = server.server_address[:2]
    conn = HTTPConnection(host, port)
    try:
        data = raw if raw is not None else (
            None if body is None else json.dumps(body).encode()
        )
        send_headers = {"Content-Type": "application/json"} if data else {}
        send_headers.update(headers or {})
        conn.request(method, path, body=data, headers=send_headers)
        response = conn.getresponse()
        content = response.read()
        if "application/json" in response.getheader("Content-Type", ""):
            return response.status, json.loads(content)
        return response.status, content.decode()
    finally:
        conn.close()


def _post(server, body):
    return _request(server, "POST", "/predict", body=body)


def _get(server, path, headers=None):
    return _request(server, "GET", path, headers=headers)


def _boot(registry, **kwargs):
    server = make_server(registry, **kwargs)
    thread = server.serve_background()
    return server, thread


def _shutdown(server, thread):
    server.shutdown()
    thread.join(timeout=5.0)
    server.server_close()


# -- fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, small_inference_data,
                 small_distributed_data):
    """A registry with a forward default, a training-step artifact, a
    non-servable grad_update artifact, and a v1 legacy document."""
    root = tmp_path_factory.mktemp("registry")
    save_model(ForwardModel().fit(small_inference_data),
               root / "default.json")
    step = TrainingStepModel().fit(small_distributed_data)
    save_model(step, root / "step.json", audit="off")
    grad = GradientUpdateModel(multi_node=True).fit(small_distributed_data)
    save_model(grad, root / "gradupd.json", audit="off")
    shutil.copy(DATA_DIR / "model_v1.json", root / "legacy.json")
    return root


@pytest.fixture(scope="module")
def server(registry_dir):
    server, thread = _boot(ModelRegistry(registry_dir))
    yield server
    _shutdown(server, thread)


@pytest.fixture(scope="module")
def golden_server(tmp_path_factory):
    """A server over the pinned ``model_v2_golden.json`` artifact."""
    root = tmp_path_factory.mktemp("golden-registry")
    shutil.copy(DATA_DIR / "model_v2_golden.json", root / "default.json")
    server, thread = _boot(ModelRegistry(root))
    yield server
    _shutdown(server, thread)


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_scan_names_and_failures(self, registry_dir):
        registry = ModelRegistry(registry_dir)
        assert registry.names() == ["default", "gradupd", "step"]
        snapshot = registry.snapshot()
        assert set(snapshot.failed) == {"legacy"}
        assert "v1 model document" in snapshot.failed["legacy"]

    def test_v1_artifact_rejected_on_get(self, registry_dir):
        registry = ModelRegistry(registry_dir)
        with pytest.raises(RegistryError, match="v1 model document"):
            registry.get("legacy")

    def test_unknown_name_raises(self, registry_dir):
        with pytest.raises(UnknownArtifactError):
            ModelRegistry(registry_dir).get("nope")

    def test_default_name_prefers_default(self, registry_dir):
        assert ModelRegistry(registry_dir).default_name() == "default"

    def test_default_name_single_artifact(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "step.json", tmp_path / "only.json")
        assert ModelRegistry(tmp_path).default_name() == "only"

    def test_default_name_ambiguous(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "step.json", tmp_path / "a.json")
        shutil.copy(registry_dir / "step.json", tmp_path / "b.json")
        with pytest.raises(UnknownArtifactError, match="a, b"):
            ModelRegistry(tmp_path).default_name()

    def test_manifest_pins_the_served_set(self, tmp_path, registry_dir):
        for name in ("default", "step"):
            shutil.copy(registry_dir / f"{name}.json",
                        tmp_path / f"{name}.json")
        write_manifest(tmp_path, {
            "fwd": {"file": "default.json", "device": "a100-80gb"},
        })
        registry = ModelRegistry(tmp_path)
        assert registry.names() == ["fwd"]
        assert registry.get("fwd").device == "a100-80gb"

    def test_manifest_version_mismatch(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "default.json", tmp_path / "m.json")
        (tmp_path / "registry.json").write_text(
            json.dumps({"version": 99, "models": {}})
        )
        with pytest.raises(RegistryError, match="version 99"):
            ModelRegistry(tmp_path)

    def test_empty_and_missing_roots(self, tmp_path):
        with pytest.raises(RegistryError, match="no model artifacts"):
            ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="not a directory"):
            ModelRegistry(tmp_path / "nowhere")

    def test_deleted_artifact_fails_lookup(self, tmp_path, registry_dir):
        shutil.copy(registry_dir / "default.json", tmp_path / "gone.json")
        registry = ModelRegistry(tmp_path)
        registry.get("gone")
        (tmp_path / "gone.json").unlink()
        with pytest.raises(RegistryError, match="cannot stat"):
            registry.get("gone")


# -- predict: happy paths ----------------------------------------------------


class TestPredict:
    def test_single_forward(self, server):
        status, body = _post(
            server, {"network": "resnet18", "image": 224, "batch": 8}
        )
        assert status == 200
        assert body["protocol"] == 1
        assert body["model"] == "default"
        assert body["kind"] == "forward"
        assert "predictions" not in body
        prediction = body["prediction"]
        assert prediction["kind"] == "forward"
        assert prediction["t_seconds"] > 0
        assert prediction["throughput"] == 8 / prediction["t_seconds"]
        assert prediction["warnings"] == []

    def test_batched_shape(self, server):
        queries = [
            {"network": "alexnet", "batch": 1},
            {"network": "resnet50", "image": 128, "batch": 64},
            {"network": "vgg11", "image": 64, "batch": 8},
        ]
        status, body = _post(server, {"model": "default",
                                      "queries": queries})
        assert status == 200
        assert body["count"] == 3
        assert "prediction" not in body
        assert [p["network"] for p in body["predictions"]] == [
            "alexnet", "resnet50", "vgg11",
        ]

    def test_training_step(self, server):
        status, body = _post(server, {
            "model": "step", "network": "resnet18", "image": 128,
            "batch": 16, "nodes": 2, "devices": 8,
        })
        assert status == 200
        prediction = body["prediction"]
        assert prediction["kind"] == "training_step"
        phases = prediction["phases"]
        # total is defined as the float sum of the two phases — exactly.
        assert prediction["t_seconds"] == (
            phases["forward"] + phases["backward_plus_update"]
        )
        assert prediction["throughput"] == (
            16 * 8 / prediction["t_seconds"]
        )

    def test_scaling_query(self, server):
        status, body = _post(server, {
            "model": "step", "network": "alexnet", "image": 64,
            "batch": 16, "node_counts": [1, 2, 4], "gpus_per_node": 4,
        })
        assert status == 200
        prediction = body["prediction"]
        assert prediction["kind"] == "scaling"
        assert [p["nodes"] for p in prediction["points"]] == [1, 2, 4]
        assert [p["devices"] for p in prediction["points"]] == [4, 8, 16]
        for point in prediction["points"]:
            assert point["step_seconds"] > 0
            assert point["throughput"] > 0

    def test_scaling_and_plain_mix_in_one_batch(self, server):
        status, body = _post(server, {"model": "step", "queries": [
            {"network": "alexnet", "image": 64, "batch": 16,
             "node_counts": [1, 2]},
            {"network": "alexnet", "image": 64, "batch": 16},
        ]})
        assert status == 200
        kinds = [p["kind"] for p in body["predictions"]]
        assert kinds == ["scaling", "training_step"]

    def test_fuse_query_changes_the_prediction(self, server):
        _, plain = _post(server, {"network": "resnet18", "batch": 8})
        _, fused = _post(server, {"network": "resnet18", "batch": 8,
                                  "fuse": True})
        assert fused["prediction"]["fuse"] is True
        assert (
            fused["prediction"]["t_seconds"]
            != plain["prediction"]["t_seconds"]
        )

    def test_server_level_fuse_default(self, registry_dir, server):
        fused_server, thread = _boot(ModelRegistry(registry_dir), fuse=True)
        try:
            _, via_flag = _post(
                fused_server, {"network": "resnet18", "batch": 8}
            )
            _, via_query = _post(server, {"network": "resnet18",
                                          "batch": 8, "fuse": True})
            assert via_flag["prediction"] == via_query["prediction"]
            # A per-query fuse=false overrides the server default.
            _, opted_out = _post(
                fused_server,
                {"network": "resnet18", "batch": 8, "fuse": False},
            )
            assert opted_out["prediction"]["fuse"] is False
        finally:
            _shutdown(fused_server, thread)

    def test_memory_note_on_oversubscribed_device(self, server):
        status, body = _post(server, {
            "network": "vgg11", "image": 224, "batch": 1024,
            "device": "jetson-agx-orin",
        })
        assert status == 200
        assert any(
            "jetson-agx-orin memory" in w
            for w in body["prediction"]["warnings"]
        )
        # The same configuration fits an A100; no note.
        _, roomy = _post(server, {
            "network": "vgg11", "image": 224, "batch": 256,
            "device": "a100-80gb",
        })
        assert not any(
            "memory" in w for w in roomy["prediction"]["warnings"]
        )


# -- equivalence gates -------------------------------------------------------


EQUIVALENCE_GRID = [
    (network, image, batch)
    for network in ("alexnet", "resnet50", "vgg11")
    for image in (64, 224)
    for batch in (1, 32)
]


class TestEquivalence:
    def test_batched_equals_sequential_forward(self, server):
        queries = [
            {"network": n, "image": i, "batch": b}
            for n, i, b in EQUIVALENCE_GRID
        ]
        _, batched = _post(server, {"model": "default",
                                    "queries": queries})
        for query, prediction in zip(queries, batched["predictions"]):
            _, single = _post(server, {"model": "default", **query})
            # Exact dict equality: every float (t_seconds, throughput)
            # must match bit for bit, not approximately.
            assert single["prediction"] == prediction

    def test_batched_equals_sequential_step(self, server):
        queries = [
            {"network": n, "image": i, "batch": b,
             "nodes": nodes, "devices": nodes * 4}
            for (n, i, b), nodes in zip(
                EQUIVALENCE_GRID, (1, 2, 4, 1, 2, 4, 1, 2, 4, 1, 2, 4)
            )
        ]
        _, batched = _post(server, {"model": "step", "queries": queries})
        assert batched["count"] == len(queries)
        for query, prediction in zip(queries, batched["predictions"]):
            _, single = _post(server, {"model": "step", **query})
            assert single["prediction"] == prediction

    def test_forward_matches_predict_cli(self, server, registry_dir,
                                         capsys):
        _, body = _post(server, {"model": "default", "network": "alexnet",
                                 "image": 128, "batch": 8})
        t = body["prediction"]["t_seconds"]
        rc = cli_main([
            "predict", "--model", str(registry_dir / "default.json"),
            "--network", "alexnet", "--image", "128", "--batch", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"predicted inference: {t * 1e3:.3f} ms" in out

    def test_step_matches_predict_cli(self, server, registry_dir, capsys):
        _, body = _post(server, {"model": "step", "network": "resnet50",
                                 "image": 64, "batch": 16,
                                 "nodes": 2, "devices": 8})
        prediction = body["prediction"]
        rc = cli_main([
            "predict", "--model", str(registry_dir / "step.json"),
            "--network", "resnet50", "--image", "64", "--batch", "16",
            "--nodes", "2", "--devices", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert (
            f"predicted training step: "
            f"{prediction['t_seconds'] * 1e3:.2f} ms "
            f"(fwd {prediction['phases']['forward'] * 1e3:.2f} ms, "
            f"bwd+update "
            f"{prediction['phases']['backward_plus_update'] * 1e3:.2f} ms)"
        ) in out

    def test_fused_forward_matches_cli_fuse(self, server, registry_dir,
                                            capsys):
        _, body = _post(server, {"model": "default", "network": "resnet18",
                                 "batch": 8, "fuse": True})
        t = body["prediction"]["t_seconds"]
        rc = cli_main([
            "predict", "--model", str(registry_dir / "default.json"),
            "--network", "resnet18", "--batch", "8", "--fuse",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"predicted inference: {t * 1e3:.3f} ms" in out


# -- FIT004 extrapolation warnings -------------------------------------------


class TestExtrapolationWarnings:
    def test_fit004_on_out_of_domain_batch(self, server):
        # The fitted feature ranges top out at vgg11@224 with batch 256;
        # alexnet at batch 65536 pushes b*flops more than 10x past them.
        status, body = _post(server, {"network": "alexnet", "image": 224,
                                      "batch": 65536})
        assert status == 200
        warnings = body["prediction"]["warnings"]
        assert warnings
        assert all("[FIT004]" in w for w in warnings)

    def test_request_domain_factor_overrides(self, server):
        _, body = _post(server, {"network": "alexnet", "image": 224,
                                 "batch": 65536, "domain_factor": 1e9})
        assert body["prediction"]["warnings"] == []

    def test_scaling_response_carries_fit004(self, server):
        # Multi-node scaling from a fit that only saw nodes <= 4.
        _, body = _post(server, {
            "model": "step", "network": "alexnet", "image": 64,
            "batch": 16, "node_counts": [1, 512], "gpus_per_node": 4,
        })
        assert any(
            "[FIT004]" in w for w in body["prediction"]["warnings"]
        )

    def test_warning_counter_increments(self, server):
        _, before = _get(server, "/metrics")
        _post(server, {"network": "alexnet", "image": 224,
                       "batch": 65536})
        _, after = _get(server, "/metrics")
        assert (
            after["counters"]["prediction_warnings_total"]
            > before["counters"].get("prediction_warnings_total", 0.0)
        )


# -- error taxonomy ----------------------------------------------------------


class TestErrors:
    def test_malformed_json_400(self, server):
        status, body = _request(server, "POST", "/predict",
                                raw=b"{not json")
        assert status == 400
        assert "not JSON" in body["error"]

    def test_unknown_request_field_400(self, server):
        status, body = _post(server, {"network": "alexnet",
                                      "bacth": 8})
        assert status == 400
        assert "bacth" in body["error"]

    def test_missing_network_400(self, server):
        status, body = _post(server, {"batch": 8})
        assert status == 400
        assert "network" in body["error"]

    def test_non_positive_batch_400(self, server):
        status, body = _post(server, {"network": "alexnet", "batch": 0})
        assert status == 400
        assert "batch" in body["error"]

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400]
    )
    def test_non_finite_domain_factor_400(self, server, literal):
        from repro.serve.protocol import PredictRequest, ProtocolError

        # Python's json accepts these literals, so the parser must reject
        # them explicitly: a NaN factor would mute every FIT004 warning,
        # and an int beyond float range must be a 400, not a 500.
        raw = ('{"network": "alexnet", "batch": 8, '
               f'"domain_factor": {literal}}}')
        with pytest.raises(ProtocolError, match="domain_factor") as exc:
            PredictRequest.parse(json.loads(raw))
        assert exc.value.status == 400
        status, body = _request(server, "POST", "/predict",
                                raw=raw.encode())
        assert status == 400
        assert "domain_factor" in body["error"]

    def test_empty_queries_400(self, server):
        status, body = _post(server, {"queries": []})
        assert status == 400
        assert "queries" in body["error"]

    def test_unknown_model_404(self, server):
        status, body = _post(server, {"model": "nope",
                                      "network": "alexnet"})
        assert status == 404
        assert "nope" in body["error"]

    def test_unknown_network_404(self, server):
        status, body = _post(server, {"network": "resnet1817"})
        assert status == 404
        assert "resnet1817" in body["error"]

    def test_unknown_device_404(self, server):
        status, body = _post(server, {"network": "alexnet",
                                      "device": "tpu-v9"})
        assert status == 404
        assert "tpu-v9" in body["error"]

    def test_v1_artifact_409(self, server):
        status, body = _post(server, {"model": "legacy",
                                      "network": "alexnet"})
        assert status == 409
        assert "v1 model document" in body["error"]
        assert "repro fit" in body["error"]

    def test_non_servable_kind_400(self, server):
        status, body = _post(server, {"model": "gradupd",
                                      "network": "alexnet"})
        assert status == 400
        assert "servable" in body["error"]

    def test_scaling_against_forward_artifact_400(self, server):
        status, body = _post(server, {"model": "default",
                                      "network": "alexnet",
                                      "node_counts": [1, 2]})
        assert status == 400
        assert "scaling" in body["error"]

    def test_get_predict_405(self, server):
        status, body = _get(server, "/predict")
        assert status == 405
        assert "POST" in body["error"]

    def test_post_healthz_405(self, server):
        status, _ = _request(server, "POST", "/healthz", body={})
        assert status == 405

    def test_unknown_path_404(self, server):
        status, _ = _get(server, "/nope")
        assert status == 404

    def test_missing_content_length_411(self, server):
        host, port = server.server_address[:2]
        conn = HTTPConnection(host, port)
        try:
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            assert conn.getresponse().status == 411
        finally:
            conn.close()

    def test_oversized_body_413(self, server):
        host, port = server.server_address[:2]
        conn = HTTPConnection(host, port)
        try:
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Length", str(65 * 1024 * 1024))
            conn.endheaders()
            assert conn.getresponse().status == 413
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch", 10**400),
            ("image", 10**200),
            ("batch", 10**300),
            ("batch", 2**31),
            ("nodes", 10**30),
            ("devices", 10**400),
            ("gpus_per_node", 10**400),
            ("node_counts", [1, 10**400]),
        ],
        ids=["batch-1e400", "image-1e200", "batch-1e300", "batch-2^31",
             "nodes-1e30", "devices-1e400", "gpus_per_node-1e400",
             "node_counts-1e400"],
    )
    def test_integer_beyond_query_range_400(self, server, field, value):
        from repro.serve.protocol import PredictRequest, ProtocolError

        # JSON integers are unbounded.  Past float range they raised
        # OverflowError (a 500); 10**300 answered 200 with Infinity.
        body = {"network": "alexnet", field: value}
        with pytest.raises(ProtocolError, match=field) as exc:
            PredictRequest.parse(body)
        assert exc.value.status == 400
        status, payload = _post(server, body)
        assert status == 400
        assert field in payload["error"]

    @pytest.mark.parametrize(
        "artifact, node_counts",
        [("default", ()), ("step", ()), ("step", (1, 2))],
        ids=["forward", "training_step", "scaling"],
    )
    def test_non_finite_prediction_400(self, server, artifact, node_counts):
        from repro.serve.protocol import (
            FeatureCache,
            PredictQuery,
            PredictRequest,
            ProtocolError,
            answer_request,
        )

        # Built past the parser's bound, the query predicts Infinity:
        # the answer is a 400, never a 200 carrying a non-finite number.
        query = PredictQuery("alexnet", batch=10**300, node_counts=node_counts)
        with pytest.raises(ProtocolError, match="not finite") as exc:
            answer_request(
                PredictRequest(None, (query,), False),
                server.registry.get(artifact),
                FeatureCache(),
            )
        assert exc.value.status == 400

    @given(
        network=st.sampled_from(["alexnet", "resnet18", "mobilenet_v2"]),
        fields=st.dictionaries(
            st.sampled_from(
                ["image", "batch", "nodes", "devices", "gpus_per_node"]
            ),
            st.one_of(
                st.integers(-4, 4096),
                st.integers(2**31 - 4, 2**31 + 4),
                st.integers(-(10**401) + 1, 10**401 - 1),
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_fields_answer_finite_or_4xx(
        self, golden_server, network, fields
    ):
        from repro.serve.protocol import (
            FeatureCache,
            PredictRequest,
            ProtocolError,
            answer_request,
        )

        body = {"network": network, **fields}
        try:
            request = PredictRequest.parse(body)
            expected = 200, answer_request(
                request, golden_server.registry.get("default"),
                FeatureCache(),
            )
        except ProtocolError as exc:
            expected = exc.status, None
        status, payload = _post(golden_server, body)
        assert status == expected[0]
        if status == 200:
            assert payload == json.loads(json.dumps(expected[1]))
            t = payload["prediction"]["t_seconds"]
            assert math.isfinite(t) and t >= 0
            json.dumps(payload, allow_nan=False)  # every number finite
        else:
            assert 400 <= status < 500


# -- observability -----------------------------------------------------------


class TestObservability:
    def test_healthz_shape(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["protocol"] == 1
        assert set(body["models"]) == {"default", "gradupd", "step"}
        default = body["models"]["default"]
        assert default["kind"] == "forward"
        assert default["format"] == 2
        assert default["servable"] is True
        assert set(default["audit"]) == {"errors", "warnings"}
        assert body["models"]["gradupd"]["servable"] is False
        assert "v1 model document" in body["failed"]["legacy"]

    def test_metrics_json_shape(self, server):
        _post(server, {"network": "alexnet", "batch": 1})
        status, body = _get(server, "/metrics")
        assert status == 200
        counters = body["counters"]
        for name in ("http_requests_total", "http_200_total",
                     "predict_requests_total", "predictions_total"):
            assert counters[name] > 0
        cache = body["feature_cache"]
        assert set(cache) >= {"hits", "misses", "evictions", "lookups",
                              "hit_rate", "size"}
        assert cache["lookups"] == cache["hits"] + cache["misses"]
        assert body["registry"]["reloads"] >= 0

    def test_metrics_prometheus_text(self, server):
        _post(server, {"network": "alexnet", "batch": 1})
        status, text = _get(server, "/metrics",
                            headers={"Accept": "text/plain"})
        assert status == 200
        assert "# TYPE repro_predictions_total counter" in text
        assert "repro_feature_cache_lookups" in text
        assert "repro_registry_reloads" in text

    def test_counters_monotonic_and_exact(self, server):
        _, before = _get(server, "/metrics")
        for _ in range(3):
            _post(server, {"network": "alexnet", "batch": 1})
        _post(server, {"queries": [{"network": "alexnet", "batch": 1},
                                   {"network": "vgg11", "batch": 8}]})
        _, after = _get(server, "/metrics")
        deltas = {
            name: after["counters"][name] - before["counters"].get(name, 0.0)
            for name in ("predict_requests_total", "predictions_total")
        }
        assert deltas == {"predict_requests_total": 4.0,
                          "predictions_total": 5.0}
        for name, value in before["counters"].items():
            assert after["counters"][name] >= value


# -- concurrency -------------------------------------------------------------


class TestConcurrency:
    THREADS = 8
    ROUNDS = 10

    def test_concurrent_clients_get_exact_answers(self, server):
        queries = [
            {"network": network, "image": image, "batch": batch}
            for network, image, batch in [
                ("alexnet", 64, 1), ("alexnet", 224, 32),
                ("resnet18", 128, 8), ("resnet50", 224, 64),
                ("mobilenet_v2", 64, 16), ("vgg11", 128, 4),
                ("resnet18", 64, 256), ("resnet50", 64, 2),
            ]
        ]
        expected = [_post(server, query) for query in queries]
        _, before = _get(server, "/metrics")

        results: list[list] = [[] for _ in range(self.THREADS)]
        errors: list[BaseException] = []

        def worker(k: int) -> None:
            try:
                for _ in range(self.ROUNDS):
                    results[k].append(_post(server, queries[k]))
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        for k in range(self.THREADS):
            assert len(results[k]) == self.ROUNDS
            for status, body in results[k]:
                # Torn or cross-wired responses would break exact
                # equality with the sequentially-obtained answer.
                assert (status, body) == expected[k]

        _, after = _get(server, "/metrics")
        total = self.THREADS * self.ROUNDS
        assert (
            after["counters"]["predictions_total"]
            - before["counters"]["predictions_total"]
        ) == float(total)
        assert (
            after["counters"]["predict_requests_total"]
            - before["counters"]["predict_requests_total"]
        ) == float(total)


# -- transport ---------------------------------------------------------------


class TestKeepAliveTransport:
    REQUESTS = 20

    def test_sequential_keep_alive_requests_do_not_stall(self, server):
        # A response written as two segments (headers, then body) waits
        # for the client's delayed ACK under Nagle's algorithm: ~40 ms
        # each, >= 0.8 s for 20 requests.  Without the stall they take a
        # few milliseconds in all.
        import time

        host, port = server.server_address[:2]
        body = json.dumps(
            {"network": "resnet18", "image": 128, "batch": 16}
        ).encode()
        headers = {"Content-Type": "application/json"}
        conn = HTTPConnection(host, port)
        try:
            conn.request("POST", "/predict", body=body, headers=headers)
            conn.getresponse().read()  # warm the feature cache
            start = time.perf_counter()
            for _ in range(self.REQUESTS):
                conn.request("POST", "/predict", body=body, headers=headers)
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.5, f"{self.REQUESTS} requests took {elapsed:.2f}s"


# -- hot reload --------------------------------------------------------------


class TestHotReload:
    def test_replaced_artifact_changes_answers(self, tmp_path,
                                               registry_dir):
        root = tmp_path / "reg"
        root.mkdir()
        shutil.copy(registry_dir / "default.json", root / "default.json")
        server, thread = _boot(ModelRegistry(root))
        try:
            _, before = _post(server, {"network": "resnet18", "batch": 8})
            t_before = before["prediction"]["t_seconds"]

            # Replace the artifact with one whose coefficients are exactly
            # doubled; bump mtime past filesystem timestamp granularity.
            path = root / "default.json"
            doc = json.loads(path.read_text())
            doc["linear"]["coef"] = [2 * c for c in doc["linear"]["coef"]]
            path.write_text(json.dumps(doc))
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 1_000_000_000))

            _, after = _post(server, {"network": "resnet18", "batch": 8})
            # Doubling every coefficient doubles the prediction exactly
            # (scaling by 2 is lossless in binary floating point).
            assert after["prediction"]["t_seconds"] == 2 * t_before

            _, metrics = _get(server, "/metrics")
            assert metrics["registry"]["reloads"] == 1
            _, health = _get(server, "/healthz")
            assert health["models"]["default"]["reloads"] == 1
        finally:
            _shutdown(server, thread)

    def test_corrupted_artifact_turns_409_then_recovers(self, tmp_path,
                                                        registry_dir):
        root = tmp_path / "reg"
        root.mkdir()
        good = (registry_dir / "default.json").read_text()
        path = root / "default.json"
        path.write_text(good)
        server, thread = _boot(ModelRegistry(root))
        try:
            status, _ = _post(server, {"network": "alexnet", "batch": 1})
            assert status == 200

            path.write_text("{broken")
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 1_000_000_000))
            status, body = _post(server, {"network": "alexnet",
                                          "batch": 1})
            assert status == 409
            assert "not JSON" in body["error"]

            path.write_text(good)
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 2_000_000_000))
            status, _ = _post(server, {"network": "alexnet", "batch": 1})
            assert status == 200
        finally:
            _shutdown(server, thread)

    def test_interrupted_save_keeps_previous_artifact_served(
        self, tmp_path, registry_dir, monkeypatch
    ):
        root = tmp_path / "reg"
        root.mkdir()
        path = root / "default.json"
        shutil.copy(registry_dir / "default.json", path)
        previous = path.read_bytes()
        registry = ModelRegistry(root)
        server, thread = _boot(registry)
        try:
            query = {"network": "resnet18", "batch": 8}
            _, before = _post(server, query)
            doubled = load_model(path)
            doubled.model.coef = 2 * doubled.model.coef

            def crash_before_commit(fd):
                # The new artifact is written but not yet committed: a
                # registry poll landing now must still see the old file.
                assert path.read_bytes() == previous
                registry.refresh()
                assert _post(server, query) == (200, before)
                raise OSError("simulated crash mid-save")

            monkeypatch.setattr(os, "fsync", crash_before_commit)
            with pytest.raises(OSError, match="simulated crash"):
                save_model(doubled, path, audit="off")
            monkeypatch.undo()

            assert path.read_bytes() == previous
            assert sorted(p.name for p in root.iterdir()) == ["default.json"]
            registry.refresh()
            assert _post(server, query) == (200, before)
            _, health = _get(server, "/healthz")
            assert health["models"]["default"]["reloads"] == 0
        finally:
            _shutdown(server, thread)

    def test_interrupted_manifest_write_keeps_previous_manifest(
        self, tmp_path, registry_dir, monkeypatch
    ):
        root = tmp_path / "reg"
        root.mkdir()
        shutil.copy(registry_dir / "default.json", root / "a.json")
        manifest = write_manifest(root, {"default": {"file": "a.json"}})
        previous = manifest.read_bytes()
        registry = ModelRegistry(root)

        def crash_before_commit(fd):
            assert manifest.read_bytes() == previous
            registry.refresh()
            assert registry.names() == ["default"]
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", crash_before_commit)
        with pytest.raises(OSError, match="simulated crash"):
            write_manifest(root, {"renamed": {"file": "a.json"}})
        monkeypatch.undo()

        assert manifest.read_bytes() == previous
        assert sorted(p.name for p in root.iterdir()) == [
            "a.json", "registry.json"
        ]
        registry.refresh()
        assert registry.names() == ["default"]


# -- golden response ---------------------------------------------------------


GOLDEN_QUERIES = [
    {"network": network, "image": image, "batch": batch}
    for network in ("alexnet", "resnet18", "resnet50")
    for image in (64, 224)
    for batch in (1, 8, 64)
] + [
    {"network": "resnet18", "image": 224, "batch": 8, "fuse": True},
    {"network": "vgg11", "image": 224, "batch": 256,
     "device": "jetson-agx-orin"},
]


def _golden_response() -> dict:
    """The full /predict response for the pinned grid against the pinned
    ``model_v2_golden.json`` artifact — a pure function of both."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copy(DATA_DIR / "model_v2_golden.json",
                    root / "default.json")
        server, thread = _boot(ModelRegistry(root))
        try:
            status, body = _post(server, {"model": "default",
                                          "queries": GOLDEN_QUERIES})
            assert status == 200
            return body
        finally:
            _shutdown(server, thread)


class TestGoldenResponse:
    def test_served_grid_matches_snapshot(self):
        golden = json.loads(SERVE_GOLDEN_PATH.read_text())
        assert _golden_response() == golden, (
            "served predictions moved against the pinned artifact — this "
            "changes every number the service reports; regenerate "
            "tests/data/serve_golden.json only for an intentional "
            "protocol or regression change"
        )


# -- learned artifacts -------------------------------------------------------


@pytest.fixture(scope="module")
def learned_registry_dir(
    tmp_path_factory, suite_inference_data, suite_training_data
):
    """A registry holding one artifact of every learned kind."""
    from repro.baselines import PerfSeer, PreNeT, ResPerfNet
    from tests.conftest import SUITE_MLP_KWARGS

    root = tmp_path_factory.mktemp("learned-registry")
    res = ResPerfNet("fwd", seed=7, **SUITE_MLP_KWARGS)
    res.fit(suite_inference_data)
    save_model(res, root / "default.json")
    seer = PerfSeer("fwd", seed=7)
    seer.fit(suite_inference_data)
    save_model(seer, root / "seer.json")
    pre = PreNeT("total", seed=7, **SUITE_MLP_KWARGS)
    pre.fit(suite_training_data)
    save_model(pre, root / "prenet-step.json")
    return root


@pytest.fixture(scope="module")
def learned_server(learned_registry_dir):
    server, thread = _boot(ModelRegistry(learned_registry_dir))
    yield server
    _shutdown(server, thread)


class TestLearnedArtifacts:
    """Nonlinear predictor artifacts served through the same protocol."""

    def test_registry_loads_every_learned_kind(self, learned_registry_dir):
        registry = ModelRegistry(learned_registry_dir)
        kinds = {
            name: registry.get(name).kind for name in registry.names()
        }
        assert kinds == {
            "default": "resperfnet",
            "seer": "perfseer",
            "prenet-step": "prenet",
        }
        for name in registry.names():
            assert registry.get(name).describe()["servable"], name

    def test_each_kind_answers_predict(self, learned_server):
        for model in ("default", "seer", "prenet-step"):
            status, body = _post(
                learned_server,
                {"model": model, "network": "resnet18",
                 "image": 128, "batch": 8},
            )
            assert status == 200, (model, body)
            pred = body["prediction"]
            assert pred["t_seconds"] > 0, (model, pred)
            assert pred["throughput"] > 0
            assert pred["target"] in ("fwd", "total")

    def test_batched_equals_single(self, learned_server):
        queries = [
            {"network": "resnet18", "image": 128, "batch": 8},
            {"network": "alexnet", "image": 64, "batch": 1},
        ]
        _, batched = _post(
            learned_server, {"model": "default", "queries": queries}
        )
        singles = [
            _post(learned_server, {"model": "default", **q})[1]
            for q in queries
        ]
        for got, single in zip(batched["predictions"], singles):
            assert got["t_seconds"] == single["prediction"]["t_seconds"]

    def test_extrapolated_query_carries_fit004_warning(
        self, learned_server
    ):
        status, body = _post(
            learned_server,
            {"model": "default", "network": "resnet50",
             "image": 512, "batch": 4096},
        )
        assert status == 200
        warnings = body["prediction"]["warnings"]
        assert any("FIT004" in w for w in warnings), warnings

    def test_in_domain_query_is_warning_free(self, learned_server):
        status, body = _post(
            learned_server,
            {"model": "default", "network": "resnet18",
             "image": 128, "batch": 8},
        )
        assert status == 200
        assert body["prediction"]["warnings"] == []

    def test_scaling_query_rejected_for_learned_artifact(
        self, learned_server
    ):
        status, body = _post(
            learned_server,
            {"model": "default", "network": "resnet18",
             "node_counts": [1, 2, 4]},
        )
        assert status == 400
        assert "scaling" in body["error"]

    def test_v1_document_refused_alongside_learned(
        self, learned_registry_dir, tmp_path
    ):
        root = tmp_path / "mixed"
        shutil.copytree(learned_registry_dir, root)
        shutil.copy(DATA_DIR / "model_v1.json", root / "legacy.json")
        registry = ModelRegistry(root)
        with pytest.raises(RegistryError, match="v1 model document"):
            registry.get("legacy")

    def test_tampered_learned_artifact_still_loads_with_audit_flag(
        self, learned_registry_dir, tmp_path
    ):
        """Serving trusts the embedded audit block; a tampered artifact
        reports its audit errors through /healthz rather than refusing
        outright (the offline `repro audit` gate is the enforcement)."""
        root = tmp_path / "tampered"
        root.mkdir()
        doc = json.loads(
            (learned_registry_dir / "default.json").read_text()
        )
        doc["audit"] = {"errors": 1, "warnings": 0, "diagnostics": []}
        (root / "default.json").write_text(json.dumps(doc))
        registry = ModelRegistry(root)
        entry = registry.get("default")
        assert entry.audit_errors == 1


if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    print(json.dumps(_golden_response(), indent=2, sort_keys=True))
