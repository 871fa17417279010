"""Outside-in layer trace: spans recorded around calls into each module.

The tracer rebinds public names in the loaded ``walshode`` modules to
wrappers defined here, so the program itself is never edited.  Every
wrapped call becomes a span (layer name, parent span, op id, start, end);
per-sample calls that would swamp a span list (the right-hand side inside
the Picard loop) are aggregated instead into a count and a total per
parent span.  A layer's self time is its span duration minus the time its
child spans and aggregated calls cover.  Times are as recorded: the
wrappers' own cost is not subtracted, and shows in ``trace.overhead_s``.

A wrapped name that no longer exists is recorded as an absent layer and
its metrics read 0, so a refactor that removes a name does not break the
benchmark.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

#: (module, attribute, layer).  The attribute is rebound in that module,
#: so only callers that look the name up there are traced: cli's own
#: imports, solver's and calculus' imports, hybrid's quantum calls, and the
#: benchmark's direct calls (cli.main, solver.picard_solve, transform.fwht).
SPAN_TARGETS = (
    ("cli", "main", "cli"),
    ("cli", "parse", "expr.parse"),
    ("cli", "picard_solve", "solver"),
    ("solver", "picard_solve", "solver"),
    ("solver", "integrate_sampled", "calculus.integrate"),
    ("calculus", "integration_matrix", "calculus.operator"),
    ("calculus", "fwht", "transform.fwht"),
    ("transform", "fwht", "transform.fwht"),
    ("calculus", "hybrid_wht", "hybrid.wht"),
    ("hybrid", "prepare_state", "quantum.prepare"),
    ("hybrid", "apply_hadamard_all", "quantum.hadamard"),
    ("hybrid", "measure_sampled", "quantum.measure"),
)

#: Per-sample calls: aggregated per parent span, never one span each.
HOT_TARGETS = (("cli", "evaluate", "expr.evaluate"),)

#: (metric, unit).  Times, counts and bytes are per timed op (mean over the
#: traced ops), except operator_build_s, which is the cold build in set-up.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("expr.evaluate_calls", "count"),
    ("expr.evaluate_s", "s"),
    ("solver.sweeps", "count"),
    ("solver.self_s", "s"),
    ("solver.rhs_calls", "count"),
    ("solver.rhs_s", "s"),
    ("calculus.integrate_calls", "count"),
    ("calculus.apply_s", "s"),
    ("calculus.operator_build_s", "s"),
    ("calculus.operator_bytes", "bytes"),
    ("transform.fwht_calls", "count"),
    ("transform.fwht_s", "s"),
    ("transform.additions", "count"),
    ("transform.bytes_computed", "bytes"),
    ("hybrid.wht_calls", "count"),
    ("hybrid.self_s", "s"),
    ("hybrid.classical_ops", "count"),
    ("hybrid.sub_resolution_ratio", "ratio"),
    ("quantum.prepare_s", "s"),
    ("quantum.hadamard_s", "s"),
    ("quantum.measure_s", "s"),
    ("quantum.shots", "count"),
    ("trace.op_mean_s", "s"),
    ("trace.overhead_s", "s"),
)


class Span:
    __slots__ = ("layer", "parent", "op", "start", "end", "info")

    def __init__(self, layer, parent, op, start):
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.info = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _arg(args, kwargs, index, name):
    """The argument at position ``index`` or keyword ``name``, else None."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _with_count(args, kwargs, index, new_count):
    """Pass an OpCount at ``index``/``count`` when the caller gave none."""
    count = _arg(args, kwargs, index, "count")
    if count is None:
        count = new_count()
        if len(args) > index:
            args = args[:index] + (count,) + args[index + 1:]
        else:
            kwargs = {**kwargs, "count": count}
    return args, kwargs, count


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.absent: set[str] = set()
        self.spans: list[Span] = []
        self.hot = defaultdict(lambda: [0, 0])  # (layer, parent) -> [calls, ns]
        self.mismatches: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget recorded spans; installed wrappers keep feeding this tracer."""
        self.spans.clear()
        self.hot.clear()
        self.mismatches.clear()
        self._op = -1

    # -- recording -------------------------------------------------------

    def run_op(self, fn):
        """Run one op under a root span; spans below it share its op id."""
        self._op += 1
        return self._span("op", fn, None, None)()

    def _span(self, layer, fn, before, after):
        def traced(*args, **kwargs):
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(layer, parent, self._op, perf_counter_ns())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(span.info, args, kwargs, ctx, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _hot(self, layer, fn):
        hot = self.hot
        stack = self._stack

        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = hot[(layer, stack[-1] if stack else -1)]
                entry[0] += 1
                entry[1] += perf_counter_ns() - start

        traced.__wrapped__ = fn
        return traced

    # -- per-layer hooks -----------------------------------------------------

    def _hooks(self, prog):
        new_count = prog.transform.OpCount

        def solver_after(info, args, kwargs, ctx, out):
            info["sweeps"] = out[1].iterations_run

        def operator_after(info, args, kwargs, ctx, out):
            info["N"] = int(_arg(args, kwargs, 0, "N"))

        def fwht_before(args, kwargs):
            args, kwargs, count = _with_count(args, kwargs, 1, new_count)
            return args, kwargs, (count, count.additions)

        def fwht_after(info, args, kwargs, ctx, out):
            count, before = ctx
            N = out.size
            info["N"] = N
            info["additions"] = count.additions - before
            if info["additions"] != N * (N.bit_length() - 1):
                self.mismatches.append(
                    f"fwht N={N}: {info['additions']} additions, "
                    f"expected N*log2(N) = {N * (N.bit_length() - 1)}"
                )

        def hybrid_before(args, kwargs):
            args, kwargs, count = _with_count(args, kwargs, 2, new_count)
            return args, kwargs, (count, count.total)

        def hybrid_after(info, args, kwargs, ctx, out):
            count, before = ctx
            _, trace = out
            cfg = _arg(args, kwargs, 1, "cfg")
            N = trace.output.size
            sampled = cfg is not None and cfg.mode == "sampled"
            # 7N for the shift/normalise/correct pipeline; sampled mode also
            # counts the N divisions that turn counts into probabilities.
            expected = 7 * N + (N if sampled else 0)
            info["classical_ops"] = count.total - before
            if info["classical_ops"] != expected:
                self.mismatches.append(
                    f"hybrid_wht N={N}: {info['classical_ops']} classical ops, "
                    f"expected {expected}"
                )
            if trace.sub_resolution is not None:
                info["sub_resolution"] = int(trace.sub_resolution.sum())
                info["components"] = N

        def measure_after(info, args, kwargs, ctx, out):
            info["shots"] = int(_arg(args, kwargs, 1, "shots"))

        return {
            "solver": (None, solver_after),
            "calculus.operator": (None, operator_after),
            "transform.fwht": (fwht_before, fwht_after),
            "hybrid.wht": (hybrid_before, hybrid_after),
            "quantum.measure": (None, measure_after),
        }

    # -- installation ------------------------------------------------------

    def install(self, prog, rhs_owner=None) -> None:
        """Rebind every target in ``prog``; ``rhs_owner.rhs`` holds builtin rhs."""
        hooks = self._hooks(prog)
        for module_name, attr, layer in SPAN_TARGETS:
            before, after = hooks.get(layer, (None, None))
            self._rebind(prog, module_name, attr,
                         lambda fn, l=layer, b=before, a=after: self._span(l, fn, b, a))
        for module_name, attr, layer in HOT_TARGETS:
            self._rebind(prog, module_name, attr,
                         lambda fn, l=layer: self._hot(l, fn))
        if rhs_owner is not None:
            original = rhs_owner.rhs
            self._saved.append((rhs_owner, "rhs", original))
            rhs_owner.rhs = [self._hot("solver.rhs", f) for f in original]

    def _rebind(self, prog, module_name, attr, wrap) -> None:
        module = getattr(prog, module_name, None)
        if module is None or not hasattr(module, attr):
            self.absent.add(f"{module_name}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time of every span: duration minus child spans and hot calls."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end - span.start
        for (_, parent), (calls, ns) in self.hot.items():
            if parent >= 0:
                child_ns[parent] += ns
        return [(s.end - s.start - c) / 1e9 for s, c in zip(self.spans, child_ns)]

    def cold_operator_build(self) -> float:
        """Seconds of the longest integration-matrix call (the cold build)."""
        builds = [s.seconds for s in self.spans if s.layer == "calculus.operator"]
        return max(builds, default=0.0)

    def layer_totals(self) -> dict[str, float]:
        """Per-layer sums over every recorded op (divide by the op count)."""
        totals: dict[str, float] = defaultdict(float)
        selfs = self.self_seconds()
        for span, self_s in zip(self.spans, selfs):
            layer, info = span.layer, span.info
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.span_s"] += span.seconds
            totals[f"{layer}.self_s"] += self_s
            for key, value in info.items():
                if key == "N" and layer == "calculus.operator":
                    totals["calculus.operator_bytes"] = max(
                        totals["calculus.operator_bytes"], 8.0 * value * value)
                elif key == "N" and layer == "transform.fwht":
                    # Computed, not measured: one read and one write of
                    # every float64 per butterfly stage, plus the copy in
                    # and the scaling pass.
                    totals["transform.bytes_computed"] += (
                        16.0 * value * (value.bit_length() - 1 + 2))
                else:
                    totals[f"{layer}.{key}"] += value
        for (layer, _), (calls, ns) in self.hot.items():
            totals[f"{layer}.calls"] += calls
            totals[f"{layer}.span_s"] += ns / 1e9
        return totals

    def layer_metrics(self, n_ops: int, build_s: float) -> dict[str, float]:
        """The LAYER_METRICS values except the trace.* ones, per op."""
        t = self.layer_totals()

        def per_op(key):
            return t.get(key, 0.0) / n_ops

        components = t.get("hybrid.wht.components", 0.0)
        metrics = {
            "cli.self_s": per_op("cli.self_s"),
            "expr.evaluate_calls": per_op("expr.evaluate.calls"),
            "expr.evaluate_s": per_op("expr.evaluate.span_s"),
            "solver.sweeps": per_op("solver.sweeps"),
            "solver.self_s": per_op("solver.self_s"),
            "solver.rhs_calls": per_op("solver.rhs.calls"),
            "solver.rhs_s": per_op("solver.rhs.span_s"),
            "calculus.integrate_calls": per_op("calculus.integrate.calls"),
            "calculus.apply_s": per_op("calculus.integrate.self_s"),
            "calculus.operator_build_s": build_s,
            "calculus.operator_bytes": t.get("calculus.operator_bytes", 0.0),
            "transform.fwht_calls": per_op("transform.fwht.calls"),
            "transform.fwht_s": per_op("transform.fwht.span_s"),
            "transform.additions": per_op("transform.fwht.additions"),
            "transform.bytes_computed": per_op("transform.bytes_computed"),
            "hybrid.wht_calls": per_op("hybrid.wht.calls"),
            "hybrid.self_s": per_op("hybrid.wht.self_s"),
            "hybrid.classical_ops": per_op("hybrid.wht.classical_ops"),
            "hybrid.sub_resolution_ratio": (
                t.get("hybrid.wht.sub_resolution", 0.0) / components
                if components else 0.0),
            "quantum.prepare_s": per_op("quantum.prepare.span_s"),
            "quantum.hadamard_s": per_op("quantum.hadamard.span_s"),
            "quantum.measure_s": per_op("quantum.measure.span_s"),
            "quantum.shots": per_op("quantum.measure.shots"),
        }
        return metrics

    def dump(self) -> dict:
        """Spans and aggregates as plain data, for the trace file."""
        return {
            "absent": sorted(self.absent),
            "mismatches": self.mismatches,
            "spans": [
                {"layer": s.layer, "parent": s.parent, "op": s.op,
                 "start_ns": s.start, "end_ns": s.end, "info": s.info}
                for s in self.spans
            ],
            "aggregated": [
                {"layer": layer, "parent": parent, "calls": calls, "ns": ns}
                for (layer, parent), (calls, ns) in self.hot.items()
            ],
        }
