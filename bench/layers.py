"""Per-layer tracing of the engine from outside it.

`install(mode)` wraps, before a job runs, the public functions of each
`wmha` module and the public methods, `__init__` and arithmetic operators
of the classes they define, and rebinds every name under which another
`wmha` module looked the function up (`from .coproducts import compute_E`
as well as `cop.compute_E`).  Nothing under `src/` is edited.

Two modes, never combined, because counting every scalar operation
distorts span times:

- "spans": a span per wrapped call (name, start, end, parent span), kept
  in memory and written when the worker ends.  HOT callables, called
  hundreds of thousands of times per job, get no span.
- "counts": a call counter per wrapped callable, HOT ones included, plus
  counters on the `Scalar` operators and on elimination rows and ranks.

`span_metrics` and `count_metrics` turn what one pass of jobs recorded
into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

MODULES = ("linalg", "algebras", "groupoids", "coproducts", "antipodes",
           "pipeline", "report", "fileio", "cli")
# private callables that a metric needs in addition to the public ones
EXTRA = {"pipeline": ("_op_round_trip",)}
OPERATORS = ("__init__", "__mul__", "__add__", "__sub__")
HOT = frozenset({"algebras.Algebra.mul_sparse", "algebras.Algebra.mul_basis",
                 "algebras.sparse_add_into", "algebras.vec_to_sparse",
                 "algebras.sparse_to_vec", "linalg.Matrix.col_sparse",
                 "linalg.Matrix.col"})
PREIMAGES = frozenset({"coproducts.CoproductData.t1_preimage",
                       "coproducts.CoproductData.t2_preimage",
                       "coproducts.CoproductData.psi_preimage"})
SOLVE_SPARSE = "linalg.Echelon.solve_sparse"
ECHELON_INIT = "linalg.Echelon.__init__"

# per-layer time metric -> the callables whose outermost spans it sums
TIMED = {
    "linalg.echelon_s": ("linalg.Echelon.__init__",),
    "linalg.solve_s": ("linalg.solve_linear", "linalg.solve_matrix_equation",
                       "linalg.invert", "linalg.generalized_inverse",
                       "linalg.Echelon.solve", SOLVE_SPARSE),
    "linalg.subspace_s": ("linalg.Subspace.from_vectors",),
    "linalg.matmul_s": ("linalg.Matrix.__mul__",),
    "coproducts.check_E_conditions_s": ("coproducts.check_E_conditions",),
    "coproducts.compute_E_s": ("coproducts.compute_E",),
    "coproducts.solve_G_maps_s": ("coproducts.solve_G_maps",),
    "coproducts.validate_s": ("coproducts.validate_coproduct",
                              "coproducts.validate_E",
                              "coproducts.validate_G_maps"),
    "antipodes.generalized_inverses_s": ("antipodes.build_generalized_inverses",),
    "antipodes.antipode_s": ("antipodes.compute_antipode",),
    "antipodes.source_target_s": ("antipodes.compute_source_target",),
    "antipodes.regular_suite_s": ("antipodes.regular_suite",),
    "antipodes.identity_suites_s": ("antipodes.check_antipode_identities",
                                    "antipodes.star_suite",
                                    "antipodes.weak_hopf_suite",
                                    "antipodes.appendix_suite"),
    "antipodes.verify_via_antipode_s": ("antipodes.verify_via_antipode",),
    "pipeline.op_round_trip_s": ("pipeline._op_round_trip",),
    "pipeline.lazy_s": ("pipeline.verify_lazy_model",),
    "algebras.validate_algebra_s": ("algebras.validate_algebra",),
    "groupoids.build_model_s": ("groupoids.build_model",),
    "groupoids.duality_pairing_s": ("groupoids.check_duality_pairing",),
    "fileio.parse_s": ("fileio.parse_document",),
    "fileio.witnesses_s": ("fileio.witnesses_to_json",),
    "report.to_json_s": ("report.VerificationReport.to_json",),
}
# per-layer self-time metric -> layer whose spans' self time it sums
SELF_TIMED = {"pipeline.self_s": "pipeline", "cli.self_s": "cli"}
# per-layer call-count metric -> the callables whose calls it counts
COUNTED = {
    "linalg.echelon_calls": (ECHELON_INIT,),
    "linalg.solve_calls": (SOLVE_SPARSE,),
    "linalg.subspace_calls": ("linalg.Subspace.from_vectors",),
    "linalg.matmul_calls": ("linalg.Matrix.__mul__",),
    "algebras.mul_sparse_calls": ("algebras.Algebra.mul_sparse",),
}
UNITS = {"_s": "s", "_calls": "count", "_rows": "count", "_share": "share",
         "_bits": "bits", "_bytes": "bytes", "_tests": "count"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def _targets():
    """(dotted name, owner, attribute, original) for every callable to wrap."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"wmha.{short}")
        for attr, obj in sorted(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            public = not attr.startswith("_") or attr in EXTRA.get(short, ())
            if inspect.isfunction(obj) and public:
                out.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj) and public and not issubclass(obj, BaseException):
                for name, member in sorted(vars(obj).items()):
                    if name.startswith("_") and name not in OPERATORS:
                        continue
                    if isinstance(member, staticmethod):
                        member = member.__func__
                    if inspect.isfunction(member):
                        out.append((f"{short}.{attr}.{name}", obj, name, member))
    return out


def _rebind(owner, attr, original, wrapper) -> None:
    """Install the wrapper on its owner and, for module functions, under
    every name another wmha module bound to the same object."""
    static = isinstance(vars(owner).get(attr), staticmethod)
    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
    if inspect.ismodule(owner):
        for name, mod in list(sys.modules.items()):
            if name == "wmha" or name.startswith("wmha."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


class SpanRecorder:
    def __init__(self):
        self.spans = []          # (id, parent, name, start, end)
        self._stack = [-1]
        self._next = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str, job: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


class CallCounter:
    def __init__(self):
        self.counts = {"echelon_rows": 0, "echelon_rank": 0, "preimage_misses": 0}

    def wrap(self, name, fn):
        counts = self.counts
        counts[name] = 0
        if name == ECHELON_INIT:
            def wrapper(self_, matrix, *args, **kwargs):
                counts[name] += 1
                fn(self_, matrix, *args, **kwargs)
                counts["echelon_rows"] += matrix.rows
                counts["echelon_rank"] += self_.rank
        elif name in PREIMAGES:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                before = counts.get(SOLVE_SPARSE, 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    if counts.get(SOLVE_SPARSE, 0) != before:
                        counts["preimage_misses"] += 1
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def count_scalars(self) -> None:
        """Counters on the Q(i) operators; the checks inside them read the
        rational parts directly, so they add no zero tests of their own."""
        from wmha.scalars import Scalar
        c = self.counts
        c.update(zero_tests=0, add_calls=0, mul_calls=0, div_calls=0,
                 div_zero_num=0, complex_ops=0)
        orig_bool, orig_add, orig_sub = Scalar.__bool__, Scalar.__add__, Scalar.__sub__
        orig_mul, orig_div = Scalar.__mul__, Scalar.__truediv__

        def __bool__(self):
            c["zero_tests"] += 1
            return orig_bool(self)

        def __add__(self, other):
            c["add_calls"] += 1
            return orig_add(self, other)

        def __sub__(self, other):
            c["add_calls"] += 1
            return orig_sub(self, other)

        def __mul__(self, other):
            c["mul_calls"] += 1
            if self.im or other.im:
                c["complex_ops"] += 1
            return orig_mul(self, other)

        def __truediv__(self, other):
            c["div_calls"] += 1
            if not self.re and not self.im:
                c["div_zero_num"] += 1
            if self.im or other.im:
                c["complex_ops"] += 1
            return orig_div(self, other)

        for fn in (__bool__, __add__, __sub__, __mul__, __truediv__):
            setattr(Scalar, fn.__name__, fn)


def install(mode: str):
    """Wrap the engine for one job; returns the recorder."""
    recorder = SpanRecorder() if mode == "spans" else CallCounter()
    for name, owner, attr, original in _targets():
        if mode == "spans" and name in HOT:
            continue
        _rebind(owner, attr, original, recorder.wrap(name, original))
    if mode == "counts":
        recorder.count_scalars()
    return recorder


# ---- metrics from one pass --------------------------------------------------

def span_metrics(spans_path: str) -> dict:
    """Time metrics summed over every job in a spans file.  A timed metric
    counts only the outermost of its spans, so recursion is not counted
    twice; self time is a span's duration minus its direct children."""
    by_job: dict = {}
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            by_job.setdefault(s["job"], []).append(s)
    owners: dict = {}
    for metric, names in TIMED.items():
        for name in names:
            owners.setdefault(name, []).append(metric)
    out = {m: 0.0 for m in list(TIMED) + list(SELF_TIMED)}
    self_layer = {layer: m for m, layer in SELF_TIMED.items()}
    for spans in by_job.values():
        spans.sort(key=lambda s: s["id"])
        child_time: dict = {}
        for s in spans:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        active = {-1: frozenset()}
        for s in spans:
            dur = s["end"] - s["start"]
            inherited = active[s["parent"]]
            mine = owners.get(s["name"], ())
            for metric in mine:
                if metric not in inherited:
                    out[metric] += dur
            active[s["id"]] = inherited.union(mine) if mine else inherited
            layer = s["name"].split(".", 1)[0]
            if layer in self_layer:
                out[self_layer[layer]] += dur - child_time.get(s["id"], 0.0)
    return out


def count_metrics(counts: dict, witness_max_bits: int, cert_bytes: int) -> dict:
    """Count metrics from counters summed over every job of a pass."""
    def total(*names):
        return sum(counts.get(n, 0) for n in names)

    def share(num, den):
        return num / den if den else 0.0

    out = {m: total(*names) for m, names in COUNTED.items()}
    preimage_calls = total(*PREIMAGES)
    out.update({
        "linalg.echelon_rows": total("echelon_rows"),
        "linalg.echelon_rank_share": share(total("echelon_rank"), total("echelon_rows")),
        "coproducts.preimage_hit_share":
            share(preimage_calls - total("preimage_misses"), preimage_calls),
        "scalars.zero_tests": total("zero_tests"),
        "scalars.div_calls": total("div_calls"),
        "scalars.div_zero_num_share": share(total("div_zero_num"), total("div_calls")),
        "scalars.mul_calls": total("mul_calls"),
        "scalars.add_calls": total("add_calls"),
        "scalars.complex_share":
            share(total("complex_ops"), total("mul_calls", "div_calls")),
        "scalars.witness_max_bits": witness_max_bits,
        "report.cert_bytes": cert_bytes,
    })
    return out


def witness_bits(witnesses) -> int:
    """Largest numerator or denominator, in bits, among the witness rationals."""
    from fractions import Fraction
    best = 0
    stack = [witnesses]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str):
            try:
                q = Fraction(item)
            except ValueError:
                continue
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best
