"""Per-layer spans around ghmctune's public callables, installed from outside.

The tracer replaces functions and methods of the package with timing
wrappers for the duration of a traced pipeline run and restores them
afterwards.  Nothing in the package is edited.

* Every target is resolved at install time.  A target that no longer exists
  (renamed or removed by a refactor) is listed in ``Tracer.unmeasured``
  instead of failing the run.
* A function is patched in every ``ghmctune`` module namespace that holds
  it, because callers look names up in their own module: ``bench`` calls
  ``run_chain`` through ``ghmctune.bench.run_chain``, not through
  ``ghmctune.samplers``.
* Spans nest.  A span's self time is its duration minus the durations of
  the spans it directly encloses; each layer's self time is the sum over its
  spans, so the self times of all layers add up to the time spent inside
  the outermost spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute path, layer).  The span is named "<layer>.<last part>".
TARGETS = (
    ("ghmctune.bench", "resolve_benchmark", "models"),
    ("ghmctune.models", "gen_wishart_precision", "models"),
    ("ghmctune.models", "make_synthetic_blr", "models"),
    ("ghmctune.samplers", "run_chain", "samplers"),
    ("ghmctune.integrators", "apply_leg", "integrators"),
    ("ghmctune.integrators", "apply_step", "integrators"),
    ("ghmctune.saia", "SAIA3Map.scheme_at", "saia"),
    ("ghmctune.saia", "SAIA3Map.load", "saia"),
    ("ghmctune.saia", "build_saia3_map", "saia"),
    ("ghmctune.tuning", "atune", "tuning"),
    ("ghmctune.tuning", "run_burnin", "tuning"),
    ("ghmctune.tuning", "collect_frequencies", "tuning"),
    ("ghmctune.bench", "cmd_tune", "bench"),
    ("ghmctune.bench", "cmd_sample", "bench"),
    ("ghmctune.bench", "cmd_diagnose", "bench"),
    ("ghmctune.bench", "load_chain_set", "bench"),
    ("ghmctune.diagnostics", "diagnose", "diagnostics"),
    ("ghmctune.diagnostics", "psrf", "diagnostics"),
    ("ghmctune.diagnostics", "ess_univariate", "diagnostics"),
    ("ghmctune.diagnostics", "multi_ess", "diagnostics"),
)

# TargetModel callables wrapped on every model that resolve_benchmark returns.
MODEL_CALLABLES = ("potential", "gradient", "hessian")


class SpanStats:
    __slots__ = ("calls", "total", "own", "models")

    def __init__(self):
        self.calls = 0
        self.total = 0.0   # seconds inside the span, children included
        self.own = 0.0     # seconds inside the span, direct child spans excluded
        self.models = 0.0  # seconds of models-layer self time inside the span


class Tracer:
    """Collects span statistics and counts while installed."""

    def __init__(self):
        self.unmeasured: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, label=None, on_result=None):
        """Time ``fn`` as span ``name`` of ``layer``.

        ``label(args, kwargs)`` may rename the span per call; ``on_result``
        sees (and may replace) the return value.
        """
        tracer = self

        def traced(*args, **kwargs):
            span = name if label is None else label(args, kwargs)
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            models_before = tracer.layer_self["models"]
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                tracer.layer_self[layer] += own
                stats = tracer.spans[span]
                stats.calls += 1
                stats.total += duration
                stats.own += own
                stats.models += tracer.layer_self["models"] - models_before
            if on_result is not None:
                result = on_result(result, tracer)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, path, layer in TARGETS:
            name = f"{layer}.{path.rsplit('.', 1)[-1]}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.note_unmeasured(f"{module_name}.{path}")
                continue
            hooks = {"label": _LABELS.get(name), "on_result": _ON_RESULT.get(name)}
            if isinstance(owner, type):
                raw = owner.__dict__.get(parts[-1])
                if raw is None:
                    self.note_unmeasured(f"{module_name}.{path}")
                    continue
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(raw.__func__, name, layer, **hooks))
                else:
                    wrapped = self.wrap(raw, name, layer, **hooks)
                self._patch(owner, parts[-1], wrapped)
                continue
            wrapped = self.wrap(original, name, layer, **hooks)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ghmctune"
                                       or mod_name.startswith("ghmctune.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- model wrapping ----------------------------------------------------

    def wrap_model(self, model):
        """Return ``model`` with its potential/gradient/hessian traced."""
        try:
            fields = {f.name for f in dataclasses.fields(model)}
        except TypeError:
            self.note_unmeasured("TargetModel fields")
            return model
        changes = {}
        for attr in MODEL_CALLABLES:
            fn = getattr(model, attr, None) if attr in fields else None
            if fn is None:
                if attr != "hessian":
                    self.note_unmeasured(f"TargetModel.{attr}")
                continue
            changes[attr] = self.wrap(fn, f"models.{attr}", "models")
        return dataclasses.replace(model, **changes)

    def note_unmeasured(self, what: str) -> None:
        if what not in self.unmeasured:
            self.unmeasured.append(what)

    # -- read-out ----------------------------------------------------------

    def total(self, span: str) -> float:
        return self.spans[span].total if span in self.spans else 0.0

    def calls(self, span: str) -> int:
        return self.spans[span].calls if span in self.spans else 0


def _traced_model(model, tracer: Tracer):
    return tracer.wrap_model(model)


def _count_chain(result, tracer: Tracer):
    try:
        records = result[1]
        tracer.counts["iterations"] += len(records)
        tracer.counts["grads"] += int(records.grad_evals.sum())
        tracer.counts["accepted"] += int(records.accepted.sum())
        tracer.counts["divergent"] += int(records.divergent.sum())
    except (AttributeError, IndexError, TypeError):
        tracer.note_unmeasured("run_chain records")
    return result


def _count_burnin(result, tracer: Tracer):
    try:
        tracer.counts["burnin_iters"] += int(result[0].n_iterations)
    except (AttributeError, IndexError, TypeError):
        tracer.note_unmeasured("run_burnin statistics")
    return result


def _ess_span(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "geyer")
    return f"diagnostics.ess_univariate.{method}"


_LABELS = {"diagnostics.ess_univariate": _ess_span}
_ON_RESULT = {
    "models.resolve_benchmark": _traced_model,
    "samplers.run_chain": _count_chain,
    "tuning.run_burnin": _count_burnin,
}
