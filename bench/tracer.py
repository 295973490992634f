"""Per-layer tracing of qtaylor, installed from outside the program.

The layers are the package's modules.  Every function defined at module
level in a layer module is replaced by a counting wrapper in every
``qtaylor`` module that binds it (so ``qcore.qpoch_infinite`` is caught in
``qcore`` itself and at its import sites in ``kernel``, ``profiles``,
``quadratic`` and ``taylor``), and the suite runners are wrapped inside the
``suites._RUNNERS`` dispatch table.  ``remove()`` restores every binding.

A span opens whenever a call crosses from one layer into another; calls
that stay inside the current layer are only counted.  A layer's busy time
is its self time: span durations minus the time of the child spans of
other layers opened inside them.  Spans are aggregated as they close
rather than kept, so memory stays flat over long runs.

The contour rule inside ``kernel`` is its own layer, ``kernel.contour``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("qcore", "hyper", "wpoperator", "taylor", "kernel", "profiles",
          "quadratic", "sampling", "suites", "cli")
CONTOUR = "kernel.contour"
CONTOUR_FUNCTIONS = frozenset({"laurent_coefficient_detail", "laurent_coefficient",
                               "E_contour_coefficient"})
CALP_FUNCTIONS = ("kernel.calP1", "kernel.calP2", "kernel.calP_quadruple")
BUSY_LAYERS = ("qcore", "hyper", "wpoperator", "taylor", "kernel", CONTOUR,
               "profiles", "quadratic")
ENTRY_LAYERS = ("hyper", "wpoperator", "profiles", "quadratic")


class Tracer:
    """Counts calls and layer self time of one imported ``qtaylor`` package."""

    def __init__(self, package):
        self._package = package
        self._modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                         for name in LAYERS}
        self._patches: list[tuple[object, str, object]] = []
        self.suite_names = tuple(package.suites.SUITE_NAMES)
        # The installed wrappers hold references to these containers, so
        # reset() clears them in place.
        self.calls: Counter = Counter()       # "<layer>.<function>" -> calls
        self.entries: Counter = Counter()     # layer -> spans opened
        self.counts: Counter = Counter()      # named work counters
        self.busy: defaultdict = defaultdict(float)
        self.suite_s: defaultdict = defaultdict(float)
        self.suite_failed: Counter = Counter()
        self._stack: list[list] = []          # [layer, child span time]
        self._active: Counter = Counter()     # layer -> open spans
        self.report_s = 0.0

    def reset(self) -> None:
        """Forget everything counted so far; the patches stay installed."""
        for container in (self.calls, self.entries, self.counts, self.busy,
                          self.suite_s, self.suite_failed, self._stack, self._active):
            container.clear()
        self.report_s = 0.0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer_module in LAYERS:
            module = self._modules[layer_module]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    layer = (CONTOUR if layer_module == "kernel"
                             and name in CONTOUR_FUNCTIONS else layer_module)
                    wrapped[id(fn)] = self._wrap(layer, f"{layer_module}.{name}", fn)
        for module in self._package_modules():
            for name, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, name, wrapped[id(value)])
        runners = self._modules["suites"]._RUNNERS
        for suite, runner in list(runners.items()):
            self._patch_item(runners, suite, self._suite_wrapper(suite, wrapped[id(runner)]))
        self._assert_no_stray_references(wrapped)

    def remove(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def _package_modules(self):
        prefix = self._package.__name__
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def _patch(self, module, name, new) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def _patch_item(self, table: dict, key, new) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = new

    def _assert_no_stray_references(self, wrapped: dict) -> None:
        """Fail loudly if a container in module globals still holds an original."""
        for module in self._package_modules():
            for name, value in vars(module).items():
                items = (value.values() if isinstance(value, dict)
                         else value if isinstance(value, (list, tuple)) else ())
                if any(id(item) in wrapped for item in items):
                    self.remove()
                    raise RuntimeError(f"{module.__name__}.{name} holds an untraced "
                                       "function; teach the tracer about it")

    # ------------------------------------------------------------ wrappers

    def _wrap(self, layer: str, key: str, fn):
        inner = self._hooked(key, fn)
        calls = self.calls
        stack = self._stack
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][0] == layer:
                return inner(*args, **kwargs)
            return span(layer, inner, args, kwargs)

        return traced

    def _span(self, layer: str, fn, args, kwargs):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        self._active[layer] += 1
        self.entries[layer] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self._active[layer] -= 1
            self.busy[layer] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def _hooked(self, key: str, fn):
        """Add the work counters that one specific function feeds."""
        tracer = self
        if key in ("qcore.qpoch_infinite", "hyper._series_sum"):
            counter = ("qcore.qpoch_infinite.factors" if key.startswith("qcore")
                       else "hyper.terms")

            def counted_terms(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.counts[counter] += result.terms_used
                return result
            return counted_terms
        if key == "kernel.pole_cleared_E_terms":
            def counted_node(*args, **kwargs):
                if tracer._active[CONTOUR]:
                    tracer.counts["kernel.contour.nodes"] += 1
                return fn(*args, **kwargs)
            return counted_node
        if key == "kernel.laurent_coefficient_detail":
            nonconvergence = self._package.errors.QuadratureNonConvergence

            def counted_failure(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except nonconvergence:
                    tracer.counts["kernel.contour.nonconverged"] += 1
                    raise
            return counted_failure
        if key == "sampling.sample_with":
            def counted_draws(rng, build, *args, **kwargs):
                def draw(r):
                    tracer.counts["sampling.draws"] += 1
                    return build(r)
                value = fn(rng, draw, *args, **kwargs)
                tracer.counts["sampling.kept"] += 1
                return value
            return counted_draws
        if key == "cli._emit_report":
            def timed_report(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.report_s += perf_counter() - start
            return timed_report
        return fn

    def _suite_wrapper(self, suite: str, runner):
        tracer = self
        abort = self._package.errors.QTaylorError

        @functools.wraps(runner)
        def timed_suite(cfg):
            start = perf_counter()
            try:
                records = runner(cfg)
            except abort:
                tracer.suite_failed[suite] += 1  # the runner reports a suite-abort
                raise
            finally:
                tracer.suite_s[suite] += perf_counter() - start
            tracer.suite_failed[suite] += sum(not r.passed for r in records)
            return records

        return timed_suite

    # ------------------------------------------------------------ results

    def snapshot(self) -> dict:
        """Counts and times gathered since the last reset, by metric name."""
        calls, counts = self.calls, self.counts
        draws = counts["sampling.draws"]
        counted = {
            "qcore.qpoch_infinite.calls": calls["qcore.qpoch_infinite"],
            "qcore.qpoch_infinite.factors": counts["qcore.qpoch_infinite.factors"],
            "qcore.qpoch_multi.calls": calls["qcore.qpoch_multi"],
            "qcore.theta.calls": calls["qcore.theta"],
            "hyper.terms": counts["hyper.terms"],
            "taylor.taylor_coefficient.calls": calls["taylor.taylor_coefficient"],
            "kernel.two_basis_terms.calls": calls["kernel.two_basis_terms"],
            "kernel.pole_cleared_E_terms.calls": calls["kernel.pole_cleared_E_terms"],
            "kernel.calP.calls": sum(calls[k] for k in CALP_FUNCTIONS),
            "kernel.contour.calls": calls["kernel.laurent_coefficient_detail"],
            "kernel.contour.nodes": counts["kernel.contour.nodes"],
            "kernel.contour.nonconverged": counts["kernel.contour.nonconverged"],
            "sampling.draws": draws,
            "sampling.rejected": draws - counts["sampling.kept"],
            "sampling.accept_ratio": counts["sampling.kept"] / draws if draws else 1.0,
        }
        counted.update({f"{layer}.calls": self.entries[layer] for layer in ENTRY_LAYERS})
        counted.update({f"suites.{s}.failed": self.suite_failed[s]
                        for s in self.suite_names})
        timed = {f"{layer}.busy_s": self.busy[layer] for layer in BUSY_LAYERS}
        timed.update({f"suites.{s}.s": self.suite_s[s] for s in self.suite_names})
        timed["cli.report_s"] = self.report_s
        return {"counts": counted, "times": timed}


def median_times(snapshots: list[dict]) -> dict:
    """Per-metric median of the ``times`` part of several snapshots."""
    names = snapshots[0]["times"]
    return {name: statistics.median(s["times"][name] for s in snapshots)
            for name in names}
