"""Traced ``repro`` process: the real CLI with spans around module calls.

The traced run of every workload starts the program through this file
instead of ``python -m repro.cli``; it runs the identical
``repro.cli.main(argv)``, so the traced process does the same work as
the timed one::

    python3 perfbench/layers.py --out spans.json --layers zoo verify \
        -- campaign --scenario inference --seed 0 -o out.json

Before handing over to the CLI it wraps the public functions of the
chosen layers (see :data:`WRAPPERS`) so that each call records a stage
span; the imports are always timed.  Nothing in ``src/repro`` changes: the wrappers are set on the
loaded modules, classes and rule tables of this process only.  When the
CLI returns it writes the spans and a few counters to ``--out`` and exits
with the CLI's status.
"""

from __future__ import annotations

import time

#: The process's own root span starts here, before anything is imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

from harness import Spans  # noqa: E402

#: Summable counters a process reports next to its spans.
Counters = dict[str, float]


def hook(spans: Spans, name: str | Callable[..., str], fn: Callable,
         observe: Callable[..., Callable[[Any], None]] | None = None
         ) -> Callable:
    """``fn`` wrapped in a stage span.  ``name`` may be computed from the
    call's arguments; ``observe(*args, **kwargs)`` runs before the call
    and returns what to do with its result."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        done = observe(*args, **kwargs) if observe else None
        index = spans.begin(name(*args, **kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.end(index)
        if done is not None:
            done(result)
        return result

    return traced


def patch_function(module: types.ModuleType, attr: str, wrapped: Callable
                   ) -> None:
    """Replace ``module.attr`` everywhere a loaded ``repro`` module bound
    it by name, so direct, re-exported and later lazy imports all see the
    wrapper."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]
                 ) -> None:
    """Replace a method, keeping it a static- or classmethod if it was."""
    for owner in cls.__mro__:
        if attr in vars(owner):
            raw = vars(owner)[attr]
            break
    else:
        raise AttributeError(f"{cls.__name__}.{attr}")
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def add(counters: Counters, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0.0) + value


# -- the layers --------------------------------------------------------------


def wrap_zoo(spans: Spans, counters: Counters) -> None:
    import repro.zoo

    def count(*_a: Any, **_k: Any) -> Callable[[Any], None]:
        return lambda _graph: add(counters, "zoo.graphs", 1)

    patch_function(repro.zoo, "build_model",
                   hook(spans, "zoo.build", repro.zoo.build_model, count))


def wrap_roofline(spans: Spans, counters: Counters) -> None:
    from repro.hardware import roofline

    patch_function(roofline, "zoo_profile",
                   hook(spans, "roofline.profile", roofline.zoo_profile))


def wrap_passes(spans: Spans, counters: Counters) -> None:
    from repro.graph.passes import PassPipeline

    patch_method(PassPipeline, "run",
                 lambda fn: hook(spans, "passes.pipeline", fn))


def wrap_verify(spans: Spans, counters: Counters) -> None:
    import repro.analysis.verify as verify
    from repro.analysis.verify import rules
    from repro.benchdata import engine

    patch_function(engine, "verify_campaign_graphs",
                   hook(spans, "verify.campaign", engine.verify_campaign_graphs))
    # verify_graph calls the rules through the IR_RULES table, and IR009
    # through its module-level name.  A rule is a generator: it runs to
    # the end inside its span.
    def drained(check: Callable) -> Callable:
        @functools.wraps(check)
        def run(*args: Any, **kwargs: Any) -> list:
            return list(check(*args, **kwargs))

        return run

    wrapped = {
        rule.check: hook(spans, f"verify.rule.{rule.check.__name__}",
                         drained(rule.check))
        for rule in rules.IR_RULES
    }
    table = tuple(dataclasses.replace(rule, check=wrapped[rule.check])
                  for rule in rules.IR_RULES)
    for check, traced in wrapped.items():
        patch_function(rules, check.__name__, traced)
    rules.IR_RULES = verify.IR_RULES = table


def wrap_engine(spans: Spans, counters: Counters) -> None:
    from repro.benchdata import engine

    def observe(*_a: Any, **_k: Any) -> Callable[[Any], None]:
        before = engine.CLEAN_TIME_CACHE.stats()

        def done(result: Any) -> None:
            delta = engine.CLEAN_TIME_CACHE.stats() - before
            stats = result.stats
            add(counters, "engine.points", stats.n_executed)
            add(counters, "engine.oom_points", stats.n_oom)
            add(counters, "engine.elapsed_s", stats.elapsed_seconds)
            add(counters, "engine.clean_time_hits", delta.hits)
            add(counters, "engine.clean_time_lookups", delta.lookups)

        return done

    patch_function(engine, "run_campaign",
                   hook(spans, "engine.loop", engine.run_campaign, observe))


def wrap_store(spans: Spans, counters: Counters) -> None:
    from repro.benchdata.store import CampaignStore

    def open_name(_cls: Any, _directory: Any, _spec: Any,
                  resume: bool = False) -> str:
        return "store.restore" if resume else "store.append"

    def restored(*_a: Any, **_k: Any) -> Callable[[Any], None]:
        return lambda points: add(counters, "store.points_restored",
                                  len(points))

    patch_method(CampaignStore, "open",
                 lambda fn: hook(spans, open_name, fn))
    patch_method(CampaignStore, "restored_points",
                 lambda fn: hook(spans, "store.restore", fn, restored))
    for attr in ("append", "finalize", "close"):
        patch_method(CampaignStore, attr,
                     lambda fn: hook(spans, "store.append", fn))


def wrap_records(spans: Spans, counters: Counters) -> None:
    from repro.benchdata.records import Dataset

    def written(_data: Any, path: Any) -> Callable[[Any], None]:
        return lambda _r: add(counters, "records.bytes",
                              Path(path).stat().st_size)

    patch_method(Dataset, "to_json",
                 lambda fn: hook(spans, "records.to_json", fn, written))
    patch_method(Dataset, "from_json",
                 lambda fn: hook(spans, "records.from_json", fn))


def wrap_core(spans: Spans, counters: Counters) -> None:
    from repro.core import persistence
    from repro.core.forward import ForwardModel
    from repro.core.training import TrainingStepModel

    for cls in (ForwardModel, TrainingStepModel):
        patch_method(cls, "fit", lambda fn: hook(spans, "core.fit", fn))
        patch_method(cls, "evaluate",
                     lambda fn: hook(spans, "core.evaluate", fn))
    patch_function(persistence, "save_model",
                   hook(spans, "core.save_model", persistence.save_model))


def wrap_baselines(spans: Spans, counters: Counters) -> None:
    from repro.baselines import eval as board

    def predictor(_data: Any, spec: Any, *_a: Any, **_k: Any) -> str:
        return f"baselines.evaluate.{spec.name}"

    patch_function(board, "evaluate_predictor",
                   hook(spans, predictor, board.evaluate_predictor))
    # scenario_spec() hands out the entries of this table.
    board.SCENARIOS = tuple(
        dataclasses.replace(
            s, build=hook(spans, "baselines.scenario_build", s.build))
        for s in board.SCENARIOS
    )


def wrap_serve(spans: Spans, counters: Counters) -> None:
    from repro.serve import protocol, registry, server

    patch_method(protocol.PredictRequest, "parse",
                 lambda fn: hook(spans, "serve.parse", fn))
    patch_method(registry.ModelRegistry, "get",
                 lambda fn: hook(spans, "serve.registry_get", fn))
    patch_method(protocol.FeatureCache, "lookup",
                 lambda fn: hook(spans, "serve.feature_lookup", fn))
    patch_function(protocol, "answer_request",
                   hook(spans, "serve.answer", protocol.answer_request))
    # The handler encodes every response with its module's json.dumps.
    codec = types.ModuleType("json")
    codec.__dict__.update(vars(json))
    codec.dumps = hook(spans, "serve.encode", json.dumps)
    server.json = codec


WRAPPERS: dict[str, Callable[[Spans, Counters], None]] = {
    "zoo": wrap_zoo, "roofline": wrap_roofline, "passes": wrap_passes,
    "verify": wrap_verify, "engine": wrap_engine, "store": wrap_store,
    "records": wrap_records, "core": wrap_core, "baselines": wrap_baselines,
    "serve": wrap_serve,
}

#: Modules the CLI imports lazily that a layer has to patch up front;
#: importing them early moves, not adds, their import time.
LAZY_IMPORTS = {
    "verify": ("repro.analysis.verify",),
    "serve": ("repro.serve",),
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="layers.py --out SPANS [--layers LAYER ...] -- REPRO_ARGS...")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--layers", nargs="*", default=[],
                        choices=sorted(WRAPPERS))
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    program, layers = argv[split + 1:], args.layers

    spans = Spans()
    counters: Counters = {}
    root = spans.begin("process", stage=False)
    spans.spans[root].start = STARTED
    # repro.cli imports scipy.optimize, and numpy with it; importing it
    # first splits the program's import time into the two layers.
    with spans.span("import.scipy_optimize"):
        import scipy.optimize  # noqa: F401
    with spans.span("import.repro_cli"):
        import repro.cli
    with spans.span("import.lazy"):
        for layer in layers:
            for name in LAZY_IMPORTS.get(layer, ()):
                __import__(name)
    for layer in layers:
        WRAPPERS[layer](spans, counters)

    status = repro.cli.main(program)

    spans.end(root)
    if "roofline" in layers:
        from repro.hardware.roofline import profile_cache_stats

        stats = profile_cache_stats()
        counters["roofline.profile_hits"] = stats.hits
        counters["roofline.profile_lookups"] = stats.lookups
    args.out.write_text(json.dumps({"spans": spans.to_records(),
                                    "counters": counters}))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
