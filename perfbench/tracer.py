"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` rebinds public names where the calling code looks
them up at call time (module globals, or ``module.name`` attributes),
and ``Tracer.restore`` puts every original back.  Spans are kept in
memory as ``[name, start, end, parent, attrs]`` lists and written out by
the caller when the run ends.  ``layer_metrics`` turns them into the
per-layer figures; it needs only the standard library.
"""

import dataclasses
import threading
import time

_ESTIMATORS = (
    "mc_mean_se",
    "price_asg",
    "price_cv",
    "price_mc",
    "price_qmc",
    "price_vg_mc",
    "price_vg_smoothed",
    "reference_price",
)
_INTEGRANDS = (
    "raw_integrand",
    "smoothed_integrand",
    "smoothed_integrand_v",
    "vg_raw_integrand",
    "vg_smoothed_integrand",
)
_RULES = ("gauss_hermite", "gauss_laguerre_generalized", "genz_keister")
# Module-private cli functions: the reference and the row loop have no
# public boundary of their own.
_CLI_REFERENCE = ("_bs_reference", "_vg_reference")


def _rows(points):
    shape = getattr(points, "shape", ())
    return int(shape[0]) if shape else 1


class Tracer:
    """In-memory span recorder with rebinding of the traced names."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._saved = []
        self._local = threading.local()

    # -- spans ---------------------------------------------------------

    def open(self, name, attrs=None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs_of=None):
        """``fn`` inside a span; ``attrs_of(args, result)`` adds attributes."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs_of is not None:
                self.spans[idx][4] = attrs_of(args, out)
            return out

        return traced

    # -- rebinding -----------------------------------------------------

    def _rebind(self, module, name, make):
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def install(self):
        from smoothquad import cli, linalg, pricing, rules1d, sampling
        from smoothquad.errors import BudgetExhausted

        for name in ("best_binary_v", "rank_one_reduce"):
            self._rebind(linalg, name, lambda fn, n=name: self.wrap(f"linalg.{n}", fn))
        for name in _RULES:
            self._rebind(rules1d, name, self._rule_builder)
        self._rebind(
            pricing, "adaptive_quadrature", lambda fn: self._adaptive(fn, BudgetExhausted)
        )
        self._rebind(pricing, "interpolant_total_degree", self._interpolant)
        for name in _INTEGRANDS:
            self._rebind(pricing, name, self._integrand_builder)
        for name in _ESTIMATORS:
            self._rebind(pricing, name, lambda fn, n=name: self.wrap(f"pricing.{n}", fn))
        self._rebind(
            pricing,
            "inv_norm_cdf",
            lambda fn: self.wrap("sampling.inv_norm", fn, lambda a, out: {"n": _rows(out)}),
        )
        self._rebind(pricing, "SobolStream", self._sobol_class)
        rng_class = self._rng_class(sampling.RngSpec)
        for module in (sampling, pricing, cli):
            self._rebind(module, "RngSpec", lambda _cls: rng_class)
        for name in _CLI_REFERENCE:
            self._rebind(cli, name, lambda fn: self.wrap("cli.reference", fn))
        self._rebind(cli, "_run_tasks", lambda fn: self.wrap("cli.rows", fn))

    def restore(self) -> bool:
        """Put every rebound name back; True if all are the originals again."""
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        ok = all(getattr(m, n) is orig for m, n, orig in self._saved)
        self._saved = []
        return ok

    # -- layer-specific wrappers ---------------------------------------

    def _rule_builder(self, fn):
        """Span only the calls that miss the rule cache."""
        seen = set()

        def traced(*args):
            if args in seen:
                return fn(*args)
            seen.add(args)
            misses = fn.cache_info().misses
            idx = self.open("rules1d.build")
            try:
                rule = fn(*args)
            finally:
                self.close(idx)
            if fn.cache_info().misses > misses:
                self.spans[idx][4] = {"fn": fn.__name__, "order": len(rule)}
            return rule

        return traced

    def _adaptive(self, fn, budget_exhausted):
        def counts(state):
            return {
                "evaluations": state.evaluations,
                "distinct_points": state.distinct_points,
                "indices": len(state.old_set) + len(state.active),
            }

        def traced(*args, **kwargs):
            idx = self.open("sparsegrid.adaptive")
            try:
                out = fn(*args, **kwargs)
            except budget_exhausted as exc:
                self.spans[idx][4] = counts(exc.state)
                raise
            finally:
                self.close(idx)
            self.spans[idx][4] = counts(out[2])
            return out

        return traced

    def _interpolant(self, fn):
        build = self.wrap("sparsegrid.interp_build", fn)

        def traced(*args, **kwargs):
            g, mean = build(*args, **kwargs)
            return self.wrap("sparsegrid.interp_eval", g), mean

        return traced

    def _integrand_builder(self, fn):
        def traced(*args, **kwargs):
            integrand = fn(*args, **kwargs)
            func = self.wrap(
                "pricing.integrand", integrand.func, lambda a, out: {"n": _rows(a[0])}
            )
            return dataclasses.replace(integrand, func=func)

        return traced

    def _sobol_class(self, base):
        tracer = self

        class TracedSobolStream(base):
            def points(self, n):
                idx = tracer.open("sampling.sobol", {"n": n})
                try:
                    return super().points(n)
                finally:
                    tracer.close(idx)

        return TracedSobolStream

    def _rng_class(self, base):
        tracer = self

        class TracedGenerator:
            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, size=None):
                rows = size[0] if isinstance(size, tuple) else (size or 1)
                idx = tracer.open("sampling.philox", {"n": rows})
                try:
                    return self._gen.standard_normal(size)
                finally:
                    tracer.close(idx)

            def gamma(self, shape, scale=1.0, size=None):
                idx = tracer.open("sampling.philox", {"n": 0})
                try:
                    return self._gen.gamma(shape, scale, size)
                finally:
                    tracer.close(idx)

            def __getattr__(self, name):
                return getattr(self._gen, name)

        class TracedRngSpec(base):
            def generator(self):
                return TracedGenerator(super().generator())

        return TracedRngSpec


PER_LAYER = (
    ("linalg.best_binary_v_s", "s"),
    ("linalg.rank_one_reduce_s", "s"),
    ("rules1d.build_s", "s"),
    ("rules1d.rules_built", "count"),
    ("rules1d.max_order", "count"),
    ("sparsegrid.self_s", "s"),
    ("sparsegrid.evaluations", "count"),
    ("sparsegrid.distinct_points", "count"),
    ("sparsegrid.distinct_ratio", "ratio"),
    ("sparsegrid.indices", "count"),
    ("sparsegrid.interp_builds", "count"),
    ("sparsegrid.interp_build_s", "s"),
    ("sparsegrid.interp_eval_s", "s"),
    ("pricing.integrand_s", "s"),
    ("pricing.integrand_points", "count"),
    ("pricing.points_per_call", "count"),
    ("sampling.sobol_s", "s"),
    ("sampling.inv_norm_s", "s"),
    ("sampling.normal_s", "s"),
    ("sampling.points", "count"),
    ("cli.reference_s", "s"),
    ("cli.reference_attempts", "count"),
    ("cli.rows_s", "s"),
)


def _merged_length(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced run, keyed as in ``PER_LAYER``."""

    def named(name):
        return [s for s in spans if s[0] == name]

    def busy(name):
        return sum(s[2] - s[1] for s in named(name))

    def total(name, key):
        return sum((s[4] or {}).get(key, 0) for s in named(name))

    builds = [
        s for s in named("rules1d.build")
        if s[3] < 0 or spans[s[3]][0] != "rules1d.build"
    ]
    built = [s[4] for s in named("rules1d.build") if s[4]]

    # sparsegrid self time: adaptive span minus the integrand and rule
    # builds it covers
    inner = {i: [] for i, s in enumerate(spans) if s[0] == "sparsegrid.adaptive"}
    for s in spans:
        if s[0] not in ("pricing.integrand", "rules1d.build"):
            continue
        p = s[3]
        while p >= 0 and p not in inner:
            p = spans[p][3]
        if p >= 0:
            inner[p].append((s[1], s[2]))
    self_s = sum(spans[i][2] - spans[i][1] - _merged_length(iv) for i, iv in inner.items())

    evaluations = total("sparsegrid.adaptive", "evaluations")
    distinct = total("sparsegrid.adaptive", "distinct_points")
    points = total("pricing.integrand", "n")
    calls = len(named("pricing.integrand"))
    reference_ids = {i for i, s in enumerate(spans) if s[0] == "cli.reference"}
    attempts = sum(
        1 for s in spans
        if s[3] in reference_ids and s[0] in ("pricing.reference_price", "pricing.price_vg_smoothed")
    )
    values = {
        "linalg.best_binary_v_s": busy("linalg.best_binary_v"),
        "linalg.rank_one_reduce_s": busy("linalg.rank_one_reduce"),
        "rules1d.build_s": sum(s[2] - s[1] for s in builds),
        "rules1d.rules_built": len(built),
        "rules1d.max_order": max((b["order"] for b in built), default=0),
        "sparsegrid.self_s": self_s,
        "sparsegrid.evaluations": evaluations,
        "sparsegrid.distinct_points": distinct,
        "sparsegrid.distinct_ratio": distinct / evaluations if evaluations else 0.0,
        "sparsegrid.indices": total("sparsegrid.adaptive", "indices"),
        "sparsegrid.interp_builds": len(named("sparsegrid.interp_build")),
        "sparsegrid.interp_build_s": busy("sparsegrid.interp_build"),
        "sparsegrid.interp_eval_s": busy("sparsegrid.interp_eval"),
        "pricing.integrand_s": busy("pricing.integrand"),
        "pricing.integrand_points": points,
        "pricing.points_per_call": points / calls if calls else 0.0,
        "sampling.sobol_s": busy("sampling.sobol"),
        "sampling.inv_norm_s": busy("sampling.inv_norm"),
        "sampling.normal_s": busy("sampling.philox"),
        "sampling.points": total("sampling.sobol", "n") + total("sampling.philox", "n"),
        "cli.reference_s": busy("cli.reference"),
        "cli.reference_attempts": attempts,
        "cli.rows_s": busy("cli.rows"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
