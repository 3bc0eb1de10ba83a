"""Outside-in tracing of the package's layers.

The tracer wraps public functions of ``rookmonoid``'s modules from the
benchmark's side; the package source is not touched.  ``from .linalg import
row_space`` copies the binding into ``tensor``, so installing a wrapper
rebinds every module-level name, and every default argument, that refers to
the original function.  Methods are replaced on their class.

Each wrapped call records a span (name, parent span, start, end) in memory.
Two very hot functions, ``specht.act_on_tabloid`` and ``diagrams.multiply``,
are counted rather than timed: a span per call would add about a quarter to
the ``blocks`` workload.

A layer's self time is its spans' duration minus the part covered by their
direct child spans (including the child's own bookkeeping after it returns).
"""

from __future__ import annotations

import importlib
import resource
import time
import types
from collections import Counter

# Layer -> spans, counts, the end-to-end metrics the layer should move, the
# workloads it should move them on, and the workloads on which a change to the
# layer should leave the numbers unchanged.
LAYERS = [
    {
        "layer": "tensor",
        "spans": ["tensor.phi_matrix", "tensor.element_matrix",
                  "tensor.annihilator_basis", "tensor.phi_rank"],
        "counts": ["tensor.phi_nnz", "tensor.phi_rows", "tensor.phi_rss_growth_mb"],
        "moves": ["solve_s", "peak_rss_mb"],
        "on": ["annihilator"],
        "no_change_on": ["blocks"],
    },
    {
        "layer": "linalg",
        "spans": ["linalg.row_space", "linalg.nullspace",
                  "linalg.SpanBasis.insert", "linalg.SpanBasis.contains"],
        "counts": ["linalg.insert_grew", "linalg.insert_useful", "linalg.max_coeff_bits"],
        "moves": ["solve_s"],
        "on": ["annihilator", "grid"],
        "no_change_on": ["blocks"],
    },
    {
        "layer": "ideals",
        "spans": ["ideals.two_sided_ideal", "ideals.block_ideal",
                  "ideals.check_annihilator_ideal", "ideals.check_block_decomposition",
                  "ideals.check_specht_orthogonality", "ideals.check_absorption",
                  "ideals.check_faithful_action", "ideals.check_one_dimensional_ideals"],
        "counts": ["ideals.saturation_dim", "ideals.saturation_images",
                   "ideals.sweep_contains", "ideals.saturation_useful"],
        "moves": ["solve_s"],
        "on": ["annihilator", "blocks"],
        "no_change_on": [],
    },
    {
        "layer": "algebra",
        "spans": ["algebra.AlgebraElement.__mul__", "algebra.tableau_quasi_idempotent"],
        "counts": ["algebra.mul_term_pairs"],
        "moves": ["solve_s"],
        "on": ["blocks", "grid"],
        "no_change_on": ["annihilator"],
    },
    {
        "layer": "specht",
        "spans": ["specht.specht_dimension", "specht.specht_basis",
                  "specht.polytabloid", "specht.act_on_tabloid_vector"],
        "counts": ["specht.tabloid_actions"],
        "moves": ["solve_s"],
        "on": ["blocks"],
        "no_change_on": [],
    },
    {
        "layer": "diagrams",
        "spans": ["diagrams.all_diagrams", "diagrams.verify_presentation",
                  "diagrams.factorize"],
        "counts": ["diagrams.multiply_calls"],
        "moves": ["solve_s", "setup_s"],
        "on": ["grid"],
        "no_change_on": [],
    },
    {
        "layer": "verify",
        "spans": ["verify.check_counting", "verify.check_factorization",
                  "verify.check_tensor_homomorphism", "verify.check_specht_dimension_sum"],
        "counts": [],
        "moves": ["solve_s"],
        "on": ["grid"],
        "no_change_on": [],
    },
    {
        "layer": "cli",
        "spans": ["cli.main"],
        "counts": [],
        "moves": ["solve_s"],
        "on": ["grid"],
        "no_change_on": [],
    },
]

# Functions counted per call instead of timed.
COUNTED = {
    "specht.act_on_tabloid": "specht.tabloid_actions",
    "diagrams.multiply": "diagrams.multiply_calls",
}

# Unit and direction of each count; every count not listed is a plain
# "count" where lower is better.
COUNT_UNITS = {
    "tensor.phi_rss_growth_mb": ("MB", "lower"),
    "linalg.insert_useful": ("ratio", "higher"),
    "linalg.max_coeff_bits": ("bits", "lower"),
    "ideals.saturation_useful": ("ratio", "higher"),
}

OVERHEAD = "trace_overhead_s"


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for layer in LAYERS:
        for span in layer["spans"]:
            out.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
            out.append({"name": f"{span}.total_s", "unit": "s", "better": "lower"})
            out.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
        for count in layer["counts"]:
            unit, better = COUNT_UNITS.get(count, ("count", "lower"))
            out.append({"name": count, "unit": unit, "better": better})
    out.append({"name": OVERHEAD, "unit": "s", "better": "lower"})
    return out


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _coeff_bits(basis) -> int:
    return max(
        (abs(v).bit_length() for row in basis.int_rows() for v in row.values()),
        default=0,
    )


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        # [name, parent id, start, end, end of bookkeeping]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()

    # Per-span bookkeeping, run around the wrapped call.

    def _before_phi_matrix(self, args):
        return _maxrss_mb()

    def _after_phi_matrix(self, args, result, rss_before):
        self.counts["tensor.phi_nnz"] += len(result.entries)
        self.counts["tensor.phi_rows"] += len({r for r, _ in result.entries})
        self.counts["tensor.phi_rss_growth_mb"] += _maxrss_mb() - rss_before

    def _before_mul(self, args):
        if hasattr(args[1], "terms"):
            self.counts["algebra.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _after_insert(self, args, grew, _):
        if grew:
            self.counts["linalg.insert_grew"] += 1
        if self.active["ideals.two_sided_ideal"]:
            self.counts["ideals.saturation_images"] += 1

    def _after_contains(self, args, result, _):
        if self.active["ideals.two_sided_ideal"]:
            self.counts["ideals.sweep_contains"] += 1

    def _after_basis(self, args, basis, _):
        bits = _coeff_bits(basis)
        if bits > self.counts["linalg.max_coeff_bits"]:
            self.counts["linalg.max_coeff_bits"] = bits

    def _after_ideal(self, args, ideal, _):
        self.counts["ideals.saturation_dim"] += ideal.dimension
        self._after_basis(args, ideal.basis, None)

    def _hooks(self, name):
        before = {
            "tensor.phi_matrix": self._before_phi_matrix,
            "algebra.AlgebraElement.__mul__": self._before_mul,
        }.get(name)
        after = {
            "tensor.phi_matrix": self._after_phi_matrix,
            "linalg.SpanBasis.insert": self._after_insert,
            "linalg.SpanBasis.contains": self._after_contains,
            "linalg.row_space": self._after_basis,
            "tensor.annihilator_basis": self._after_basis,
            "specht.specht_basis": self._after_basis,
            "ideals.two_sided_ideal": self._after_ideal,
        }.get(name)
        return before, after

    def _timed(self, name, fn):
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter
        before, after = self._hooks(name)

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            state = before(args) if before else None
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                active[name] -= 1
            if after:
                after(args, result, state)
            rec[4] = clock()
            return result

        return wrapper

    def _counted(self, dotted, fn):
        counts, name = self.counts, COUNTED[dotted]

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, pkg) -> None:
        """Wrap every traced and counted function of the imported package."""
        modules = [pkg] + [
            importlib.import_module(f"{pkg.__name__}.{layer['layer']}") for layer in LAYERS
        ]
        targets = [(s, self._timed) for layer in LAYERS for s in layer["spans"]]
        targets += [(f, self._counted) for f in COUNTED]
        methods = []  # (class, attribute, wrapper)
        by_id = {}  # id(original function) -> (original, wrapper)
        for dotted, make in targets:
            mod_name, *owner, attr = dotted.split(".")
            holder = getattr(pkg, mod_name)
            for part in owner:
                holder = getattr(holder, part)
            original = getattr(holder, attr)
            wrapper = make(dotted, original)
            if owner:
                methods.append((holder, attr, wrapper))
            else:
                by_id[id(original)] = (original, wrapper)
        # Defaults first, while the originals are still reachable by name.
        for mod in modules:
            for fn in _functions(mod):
                _rebind_defaults(fn, by_id)
        for cls, attr, wrapper in methods:
            setattr(cls, attr, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit and hit[0] is value:
                    setattr(mod, key, hit[1])

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, plus the counts."""
        out: dict = {}
        for layer in LAYERS:
            for span in layer["spans"]:
                out[f"{span}.calls"] = 0
                out[f"{span}.total_s"] = 0.0
                out[f"{span}.self_s"] = 0.0
            for count in layer["counts"]:
                out[count] = self.counts.get(count, 0)
        for (name, _, start, end, _), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += own
        inserts = out["linalg.SpanBasis.insert.calls"]
        out["linalg.insert_useful"] = self.counts["linalg.insert_grew"] / inserts if inserts else 0.0
        images = self.counts["ideals.saturation_images"]
        out["ideals.saturation_useful"] = (
            self.counts["ideals.saturation_dim"] / images if images else 0.0
        )
        return out

    def self_times(self) -> list[float]:
        """Self time of every recorded span, in recording order."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end, done in self.spans:
            if parent >= 0:
                covered[parent] += done - start
        return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(self.spans)]

    def nested_calls(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        spans = self.spans
        hits = 0
        for rec in spans:
            if rec[0] != name:
                continue
            parent = rec[1]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][1]
            hits += parent >= 0
        return hits

    def dump(self, t0: float) -> dict:
        """The spans as JSON-ready data, times in seconds from ``t0``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [index[name], parent, round(start - t0, 7), round(end - t0, 7)]
                for name, parent, start, end, _ in self.spans
            ],
        }


def _functions(mod):
    """Functions defined at module level and on the module's classes."""
    for value in vars(mod).values():
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type) and value.__module__ == mod.__name__:
            yield from (v for v in vars(value).values() if isinstance(v, types.FunctionType))


def _rebind_defaults(fn, by_id) -> None:
    def swap(v):
        hit = by_id.get(id(v))
        return hit[1] if hit and hit[0] is v else v

    if fn.__defaults__:
        fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
    if fn.__kwdefaults__:
        fn.__kwdefaults__ = {k: swap(v) for k, v in fn.__kwdefaults__.items()}
