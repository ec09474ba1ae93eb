"""The ``serve-mix`` workload: one ``repro serve`` process over a socket.

Set-up fits a registry with a forward and a training-step artifact, then
spawns the server.  The request stream is a pure function of the seed:
single and batched (2-8 queries) requests over forward, step and scaling
(``node_counts``) queries, a share of them fused, and every tenth request
carrying a (network, image) shape the stream has not sent before, so the
feature-cache miss path (zoo build + profile) stays in steady state.

Phase A is an open loop (seeded Poisson arrivals, latency from the due
time); phase B is a closed loop over the same stream on both connections.
"""

from __future__ import annotations

import json
import math
import random
import select
import subprocess
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Any

from harness import (
    Context,
    Spans,
    median,
    read_json,
    repro_argv,
    stop_process,
    summary,
    tail,
    traced_argv,
)
import loadgen

#: Client connections: at most one per core of the 2-core reference box.
CONNECTIONS = 2

#: Phase A mean arrival rate, requests/s: about a third of the capacity
#: the seed commit reaches with two back-to-back connections.  The server
#: writes headers and body separately without TCP_NODELAY, so a response
#: can wait ~40 ms for the client's delayed ACK; how often depends on the
#: rate.  At 15 req/s about 15-30 % of requests stall, which keeps the
#: median in the fast mode and p90 in the stalled one.  At 20 req/s the
#: stalled share (33-51 %) put the medians on the boundary between the
#: two modes and made them swing between seeds.
RATE = 15.0

#: Every NOVEL_EVERY-th request carries a shape not sent before, and
#: every NOVEL_FUSE_EVERY-th of those asks for the fused graph.
NOVEL_EVERY = 10
NOVEL_FUSE_EVERY = 8

#: Shares of ``--seconds`` spent in phase A and phase B.  Phase B's
#: capacity is steady within 2 % after a few seconds; phase A gets the
#: rest because the novel-shape median needs its ~10 % of the requests.
PHASE_A_SHARE = 0.75
PHASE_B_SHARE = 0.15

#: Share of ``--seconds`` of the traced run's open loop.
TRACE_OPEN_LOOP_SHARE = 0.2

#: Fresh server spawns per run for ``setup_s`` (the last one serves).
SETUP_SPAWNS = 5

#: Requests a traced run sends to each of its two servers, one at a time
#: every TRACE_GAP_S (the phase A mean gap), and the layers the traced
#: server wraps.
TRACE_REQUESTS = 120
TRACE_GAP_S = 1.0 / RATE
SERVE_LAYERS = ("serve", "zoo", "roofline", "passes")

WARM_IMAGES = (64, 128, 224)
BATCHES = (1, 8, 32, 128)
NODES = (1, 2, 4, 8)
NODE_COUNTS = [1, 2, 4, 8, 16]
#: One query in FUSE_EVERY asks for the fused graph.
FUSE_EVERY = 5

#: (artifact, request kind) of the warm requests in each block of
#: NOVEL_EVERY; the last slot of a block is the novel request.  Batched
#: requests carry 2-8 queries; a third of a step batch are scaling ones.
WARM_SLOTS = (
    ("forward", "single"), ("step", "single"), ("forward", "batch"),
    ("forward", "single"), ("step", "scaling"), ("step", "batch"),
    ("forward", "single"), ("step", "single"), ("forward", "batch"),
)

#: Requests answered over the socket and in-process, compared exactly.
PROBES: tuple[dict[str, Any], ...] = (
    {"model": "forward", "network": "resnet18", "image": 128, "batch": 16},
    {"model": "forward", "network": "mobilenet_v2", "image": 224,
     "batch": 1, "fuse": True},
    {"model": "forward", "queries": [
        {"network": "alexnet", "batch": 1},
        {"network": "vgg11", "image": 64, "batch": 128},
        {"network": "densenet121", "image": 128, "batch": 8, "fuse": True},
    ]},
    {"model": "step", "network": "resnet50", "image": 128, "batch": 32,
     "nodes": 2, "devices": 8},
    {"model": "step", "network": "efficientnet_b0", "image": 64,
     "batch": 16, "node_counts": NODE_COUNTS},
    {"model": "step", "queries": [
        {"network": "resnet18", "image": 224, "batch": 8},
        {"network": "regnet_x_400mf", "image": 128, "batch": 64,
         "nodes": 4, "devices": 16, "fuse": True},
    ]},
)


# -- request stream --------------------------------------------------------


class Stream:
    """The seeded request mix: ``bodies[i]`` is the i-th POST body."""

    def __init__(self, seed: int, networks: tuple[str, ...],
                 min_image: dict[str, int], length: int) -> None:
        self.networks = networks
        rng = random.Random(seed)
        self._novel_images = {}
        for net in networks:
            sizes = [s for s in range(max(min_image[net], 48), 320)
                     if s not in WARM_IMAGES]
            rng.shuffle(sizes)
            self._novel_images[net] = sizes
        self._novel = 0
        self._queries = 0
        self._batches = 0
        self.bodies: list[bytes] = []
        self.novel: list[bool] = []
        for i in range(length):
            slot = i % NOVEL_EVERY
            novel = slot == NOVEL_EVERY - 1
            body = self._novel_body() if novel else self._warm_body(rng, slot)
            self.bodies.append(json.dumps(body).encode())
            self.novel.append(novel)

    def novel_shapes(self, count: int) -> list[tuple[str, int]]:
        """The next ``count`` novel shapes after the stream's own."""
        shapes = []
        for _ in range(count):
            body = self._novel_body()
            shapes.append((body["network"], body["image"]))
        return shapes

    def _novel_body(self) -> dict[str, Any]:
        # Fixed rotation over networks, model kind and fusion, so the
        # novel-shape median covers the same mix whatever the seed.  Only
        # one in NOVEL_FUSE_EVERY is fused: a fused miss runs the pass
        # pipeline and costs 20-60 ms against 2-13 ms raw, and with about
        # a third fused the median sat on the edge between the two groups.
        k = self._novel
        self._novel += 1
        net = self.networks[k % len(self.networks)]
        step = (k // len(self.networks)) % 2 == 1
        fuse = k % NOVEL_FUSE_EVERY == NOVEL_FUSE_EVERY - 1
        body: dict[str, Any] = {
            "model": "step" if step else "forward", "network": net,
            "image": self._novel_images[net].pop(), "batch": 8,
        }
        if fuse:
            body["fuse"] = True
        return body

    def _query(self, rng: random.Random, step: bool,
               scaling: bool = False) -> dict[str, Any]:
        # Every FUSE_EVERY-th query is fused; the seed picks the rest.
        self._queries += 1
        q: dict[str, Any] = {
            "network": rng.choice(self.networks),
            "image": rng.choice(WARM_IMAGES),
            "batch": rng.choice(BATCHES),
        }
        if self._queries % FUSE_EVERY == 0:
            q["fuse"] = True
        if scaling:
            q["node_counts"] = NODE_COUNTS
            q["batch"] = rng.choice((16, 32, 64))
        elif step:
            nodes = rng.choice(NODES)
            q["nodes"] = nodes
            q["devices"] = nodes * 4 if nodes > 1 else 1
        return q

    def _warm_body(self, rng: random.Random, slot: int) -> dict[str, Any]:
        # The request kinds follow WARM_SLOTS, so every seed sends the same
        # proportions of single, batched, step and scaling requests; a
        # seeded mix moved the latency median with the seed.
        model, size = WARM_SLOTS[slot]
        step = model == "step"
        if size == "batch":
            self._batches += 1
            n = 2 + self._batches % 7
            return {"model": model, "queries": [
                self._query(rng, step, scaling=step and j % 3 == 2)
                for j in range(n)
            ]}
        return {"model": model,
                **self._query(rng, step, scaling=size == "scaling")}


def warmup_bodies(networks: tuple[str, ...]) -> list[bytes]:
    """Every warm (network, image) pair, raw and fused, in batches of 7."""
    queries = [
        {"network": n, "image": i, "batch": 1, **({"fuse": True} if f else {})}
        for n in networks for i in WARM_IMAGES for f in (False, True)
    ]
    return [
        json.dumps({"model": "forward", "queries": queries[k:k + 7]}).encode()
        for k in range(0, len(queries), 7)
    ]


def valid_response(data: bytes) -> bool:
    """Every prediction in a 200 body is finite and positive."""
    try:
        doc = json.loads(data)
        times = []
        for p in doc.get("predictions") or [doc["prediction"]]:
            if p["kind"] == "scaling":
                times.extend(pt["step_seconds"] for pt in p["points"])
            else:
                times.append(p["t_seconds"])
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
    return all(
        isinstance(t, float) and math.isfinite(t) and t > 0 for t in times
    )


# -- server and client -----------------------------------------------------


class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, ctx: Context, argv: list[str]) -> None:
        self.ctx = ctx
        with ctx.log.open("ab") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                argv,
                cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
            )
        ctx.procs.append(self.proc)
        try:
            self.port = self._read_port(deadline=start + 60.0)
            self._await_health(deadline=start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _read_port(self, deadline: float) -> int:
        assert self.proc.stdout is not None
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            if " on http://" in line:
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not report its address")

    def _await_health(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("repro serve never answered /healthz")

    def connect(self) -> HTTPConnection:
        return HTTPConnection("127.0.0.1", self.port, timeout=10)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self) -> None:
        _, rss = stop_process(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.ctx.peak_rss_mb = max(self.ctx.peak_rss_mb, rss)


class Client:
    """Keep-alive connections; ``post`` returns (status, body) or raises."""

    def __init__(self, server: Server, connections: int) -> None:
        self.server = server
        self.conns = [server.connect() for _ in range(connections)]

    def post(self, conn: int, body: bytes) -> tuple[int, bytes]:
        c = self.conns[conn]
        try:
            c.request("POST", "/predict", body,
                      {"Content-Type": "application/json"})
            resp = c.getresponse()
            return resp.status, resp.read()
        except (OSError, HTTPException):
            c.close()
            self.conns[conn] = self.server.connect()
            raise

    def ok(self, conn: int, body: bytes) -> bool:
        try:
            status, data = self.post(conn, body)
        except (OSError, HTTPException):
            return False
        return status == 200 and valid_response(data)

    def close(self) -> None:
        for c in self.conns:
            c.close()


# -- the workload ----------------------------------------------------------


class ServeMix:
    name = "serve-mix"

    def __init__(self, ctx: Context) -> None:
        from repro.benchdata.campaign import DEFAULT_MODELS
        from repro.zoo import get_entry

        self.ctx = ctx
        self.networks = DEFAULT_MODELS
        self.min_image = {n: get_entry(n).min_image_size for n in DEFAULT_MODELS}

    def parameters(self) -> dict[str, Any]:
        return {
            "connections": CONNECTIONS, "rate_rps": RATE,
            "novel_every": NOVEL_EVERY, "novel_fuse_every": NOVEL_FUSE_EVERY,
            "fuse_every": FUSE_EVERY, "warm_slots": WARM_SLOTS,
            "phase_a_s": PHASE_A_SHARE * self.ctx.seconds,
            "phase_b_s": PHASE_B_SHARE * self.ctx.seconds,
            "networks": list(self.networks), "stream_seed": self.ctx.seed,
        }

    def build_registry(self) -> Path:
        """Fit the forward and training-step artifacts the server loads."""
        from repro.benchdata import (
            Dataset,
            distributed_campaign,
            inference_campaign,
            training_campaign,
        )
        from repro.core.forward import ForwardModel
        from repro.core.persistence import save_model
        from repro.core.training import TrainingStepModel

        seed = self.ctx.seed
        registry = self.ctx.work / "registry"
        registry.mkdir()
        forward = inference_campaign(
            models=self.networks, batch_sizes=(1, 8, 64, 256),
            image_sizes=WARM_IMAGES, seed=seed,
        )
        save_model(ForwardModel().fit(forward), registry / "forward.json")
        step_models = ("alexnet", "resnet18", "resnet50", "mobilenet_v2",
                       "vgg11")
        step = Dataset()
        step.extend(training_campaign(
            models=step_models, batch_sizes=(1, 8, 64, 256),
            image_sizes=WARM_IMAGES, seed=seed + 1,
        ))
        step.extend(distributed_campaign(
            models=step_models, node_counts=(1, 2, 4, 8),
            batch_sizes=(16, 64), image_sizes=(64, 128), seed=seed + 2,
        ))
        save_model(TrainingStepModel().fit(step), registry / "step.json")
        return registry

    def serve_args(self) -> list[str]:
        return ["serve", "--registry", str(self.registry), "--port", "0"]

    def start(self, spawns: int, argv: list[str] | None = None
              ) -> tuple[Server, list[float]]:
        """Spawn the server (``repro serve`` unless ``argv`` says
        otherwise) ``spawns`` times; the last one keeps serving.  Returns
        it and each spawn's time to ready at the reference host speed."""
        ctx = self.ctx
        samples = []
        server = None
        for k in range(spawns):
            if server is not None:
                server.stop()
            before = ctx.calibrate()
            server = Server(ctx, argv or repro_argv(*self.serve_args()))
            samples.append(ctx.scale(server.ready_s, before, ctx.calibrate()))
        assert server is not None
        return server, samples

    def prepare(self) -> None:
        """Fit the registry and draw the request stream."""
        self.registry = self.build_registry()
        length = int(100 * self.ctx.seconds) + 200
        self.stream = Stream(self.ctx.seed, self.networks, self.min_image,
                             length)

    def warm(self, client: Client) -> None:
        for body in warmup_bodies(self.networks):
            self.ctx.check(client.ok(0, body), "warm-up request failed")

    def check_probes(self, client: Client) -> None:
        """The probe set over the socket equals ``answer_request``
        in-process, bit for bit."""
        from repro.serve import (
            FeatureCache,
            ModelRegistry,
            PredictRequest,
            answer_request,
        )

        registry = ModelRegistry(self.registry)
        cache = FeatureCache()
        for body in PROBES:
            request = PredictRequest.parse(body)
            expected = json.loads(json.dumps(answer_request(
                request, registry.get(request.model), cache,
                default_transform="", default_domain_factor=10.0,
            )))
            try:
                status, data = client.post(0, json.dumps(body).encode())
            except (OSError, HTTPException):
                status, data = 0, b""
            self.ctx.check(
                status == 200 and valid_response(data)
                and json.loads(data) == expected,
                f"probe {body} differs from answer_request",
            )

    def phase_a(self, client: Client, first: int, duration: float
                ) -> tuple[list[loadgen.Sample], int, bool]:
        """Open loop from stream index ``first``; returns (samples indexed
        from ``first``, next stream index, backlog grew)."""
        rng = random.Random(self.ctx.seed * 7919 + 1)
        offsets = loadgen.poisson_offsets(RATE, duration, rng)
        bodies = self.stream.bodies
        samples = loadgen.open_loop(
            offsets, lambda c, i: client.ok(c, bodies[first + i]),
            CONNECTIONS,
        )
        grows = loadgen.backlog_grows(samples, offsets)
        return samples, first + len(offsets), grows

    def phase_b(self, client: Client, first: int, duration: float
                ) -> tuple[list[loadgen.Sample], float]:
        """Closed loop; returns (samples, wall seconds)."""
        bodies = self.stream.bodies
        cursor = [first]
        stop = time.perf_counter() + duration

        def count() -> int | None:
            if time.perf_counter() >= stop or cursor[0] >= len(bodies):
                return None
            cursor[0] += 1
            return cursor[0] - 1

        start = time.perf_counter()
        samples = loadgen.closed_loop(
            count, lambda c, i: client.ok(c, bodies[i]), CONNECTIONS
        )
        return samples, time.perf_counter() - start

    def _count(self, samples: list[loadgen.Sample], phase: str) -> None:
        for s in samples:
            self.ctx.check(s.ok, f"{phase} request {s.index} failed")

    def run(self) -> dict[str, float]:
        ctx = self.ctx
        self.prepare()
        server, setup = self.start(SETUP_SPAWNS)
        client = Client(server, CONNECTIONS)
        try:
            self.warm(client)
            a, nxt, grows = self.phase_a(client, 0,
                                         PHASE_A_SHARE * ctx.seconds)
            b, b_wall = self.phase_b(client, nxt, PHASE_B_SHARE * ctx.seconds)
            self.check_probes(client)
        finally:
            client.close()
            server.stop()
        self._count(a, "phase A")
        self._count(b, "phase B")
        ctx.check(not grows, "phase A backlog grows: rate not sustained")
        ok_a = [s for s in a if s.ok]
        lat = [s.latency * 1e3 for s in ok_a]
        novel = [s.latency * 1e3 for s in ok_a if self.stream.novel[s.index]]
        pct, tail_ms = tail(lat)
        completed = sum(s.ok for s in b)
        ctx.details.update(
            parameters=self.parameters(),
            setup_s=summary(setup),
            serve_latency_ms=summary(lat),
            serve_novel_ms=summary(novel),
            serve_p50_ms=median(lat), serve_tail_ms=tail_ms,
            serve_tail_percentile=pct, serve_novel_p50_ms=median(novel),
            serve_capacity_rps=completed / b_wall,
            calibration_s=summary(ctx.calibrations),
            phase_a_requests=len(a), phase_b_requests=len(b),
            phase_b_wall_s=b_wall, backlog_grows=grows,
            generator_late_ms=summary(
                [x * 1e3 for x in loadgen.lateness(a)] or [0.0]
            ),
        )
        return {
            "main_op_ms": median(lat),
            "second_op_ms": (1e3 * b_wall / completed if completed
                             else math.nan),
            "setup_s": median(setup),
            "peak_rss_mb": ctx.peak_rss_mb,
        }

    # -- traced run ----------------------------------------------------------

    def paced(self, client: Client, bodies: list[bytes],
              spans: Spans | None = None) -> tuple[list[float], list[int]]:
        """Send ``bodies`` one at a time on connection 0, one every
        :data:`TRACE_GAP_S`; returns each answered request's round trip
        and, with ``spans``, the root span around each request."""
        rtts: list[float] = []
        roots: list[int] = []
        due = time.perf_counter()
        for k, body in enumerate(bodies):
            due += TRACE_GAP_S
            time.sleep(max(0.0, due - time.perf_counter()))
            root = (spans.begin("request", stage=False)
                    if spans is not None else None)
            start = time.perf_counter()
            ok = client.ok(0, body)
            rtt = time.perf_counter() - start
            if spans is not None:
                spans.end(root)
            if self.ctx.check(ok, f"paced request {k} failed"):
                rtts.append(rtt)
                if root is not None:
                    roots.append(root)
        return rtts, roots

    def read_metrics(self, server: Server) -> dict[str, Any]:
        status, data = server.get("/metrics")
        self.ctx.check(status == 200, f"/metrics answered {status}")
        return json.loads(data) if status == 200 else {}

    def run_traced(self) -> dict[str, float]:
        """The first :data:`TRACE_REQUESTS` bodies of the stream, paced on
        one connection, first to ``repro serve`` and then to the same
        server started through ``layers.py``; both after the workload's
        warm-up.  The traced server records a span around each serving
        call; each request's client-side root span takes the server spans
        inside it.  A short open loop against the traced server then gives
        queue wait and generator lateness."""
        ctx = self.ctx
        self.prepare()
        bodies = self.stream.bodies[:TRACE_REQUESTS]

        server, _ = self.start(1)
        client = Client(server, 1)
        try:
            self.warm(client)
            untraced, _ = self.paced(client, bodies)
        finally:
            client.close()
            server.stop()

        out = ctx.work / "serve-spans.json"
        server, _ = self.start(
            1, traced_argv(out, SERVE_LAYERS, *self.serve_args()))
        client = Client(server, CONNECTIONS)
        spans = Spans()
        try:
            self.warm(client)
            before = self.read_metrics(server)
            traced, roots = self.paced(client, bodies, spans)
            after = self.read_metrics(server)
            a, _, grows = self.phase_a(client, TRACE_REQUESTS,
                                       TRACE_OPEN_LOOP_SHARE * ctx.seconds)
        finally:
            client.close()
            server.stop()
        self._count(a, "phase A")
        ctx.check(not grows, "phase A backlog grows: rate not sustained")
        doc = read_json(out)
        if ctx.check(doc is not None, "traced server wrote no spans"):
            spans.graft(doc["spans"], roots)
        spans.write(ctx.work.parent / f"{self.name}-seed{ctx.seed}-spans.json")
        ctx.details.update(parameters=self.parameters(),
                           trace_requests=len(bodies),
                           trace_gap_s=TRACE_GAP_S, backlog_grows=grows,
                           layers=list(SERVE_LAYERS))

        calls: dict[str, list[float]] = {}
        totals: dict[str, float] = {}
        transport = []
        for root in roots:
            for name, times in spans.durations(root).items():
                calls.setdefault(name, []).extend(times)
            for name, times in spans.self_times(root).items():
                totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + sum(times)
            transport.append(spans.unattributed(root))
            # A lookup that had to profile its graph was a cache miss.
            stages = spans.stages(root)
            missed = {up for i, up in stages
                      if spans.spans[i].name == "roofline.profile"}
            for i, _ in stages:
                if spans.spans[i].name == "serve.feature_lookup":
                    kind = "miss" if i in missed else "hit"
                    calls.setdefault(kind, []).append(spans.spans[i].duration)

        metrics = dict(totals)
        for key, call, scale in (
            ("serve.parse_us", "serve.parse", 1e6),
            ("serve.registry_get_us", "serve.registry_get", 1e6),
            ("serve.feature_lookup_hit_us", "hit", 1e6),
            ("serve.feature_lookup_miss_ms", "miss", 1e3),
            ("serve.answer_us", "serve.answer", 1e6),
            ("serve.encode_us", "serve.encode", 1e6),
        ):
            if calls.get(call):
                metrics[key] = median(calls[call]) * scale
        if transport:
            metrics["serve.transport_ms"] = median(transport) * 1e3
        metrics["unattributed_s"] = sum(transport)
        metrics["trace_overhead_s"] = sum(traced) - sum(untraced)
        if before and after:
            cache = {k: after["feature_cache"][k] - before["feature_cache"][k]
                     for k in ("hits", "lookups")}
            if cache["lookups"]:
                metrics["serve.feature_cache_hit_ratio"] = (
                    cache["hits"] / cache["lookups"])
            metrics["serve.registry_reloads"] = after["registry"]["reloads"]
        waits = [s.queue_wait * 1e3 for s in a if s.ok]
        late = [x * 1e3 for x in loadgen.lateness(a)]
        if waits:
            metrics["serve.queue_wait_ms"] = tail(waits)[1]
        if late:
            metrics["serve.gen_late_ms"] = tail(late)[1]
        return metrics
