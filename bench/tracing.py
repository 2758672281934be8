"""Per-layer tracing from outside the program.

The traced run wraps public functions of gradix at run time: the module
attribute, every copy another gradix module imported by name, and class
attributes for methods and constructors.  Each call records a span (name,
start, end, parent) in memory; at the end of each round the round's spans
are reduced to call counts and self times (a span's duration minus the
part its child spans cover), and the spans themselves are kept for the
trace file.  Each job's call is the root span of its tree.  Hot per-element arithmetic (fields, scalar products,
groupoid ``compose``) is not wrapped; its cost lands in its callers' self
time.  ``IsoCertificate.apply`` runs once per generator pair of every
verified block, so it is counted but gets no span.
"""

import statistics
import sys
import time
from collections import Counter

# (module, attribute path, metric name).  A path ending in __init__ times the
# constructor, validation included.
SPANS = [
    ("groupoids", "FiniteGroup.__init__", "groupoids.FiniteGroup"),
    ("groupoids", "from_composition_table", "groupoids.from_composition_table"),
    ("division", "GradedDivisionRing.__init__", "division.GradedDivisionRing"),
    ("division", "GradedDivisionRing.opposite", "division.opposite"),
    ("matrices", "HomMatrix.mul", "matrices.HomMatrix.mul"),
    ("matrices", "HomMatrix.transpose_opposite", "matrices.HomMatrix.transpose_opposite"),
    ("elimination", "row_reduce", "elimination.row_reduce"),
    ("elimination", "invert_square", "elimination.invert_square"),
    ("elimination", "solve", "elimination.solve"),
    ("elimination", "rank_all", "elimination.rank_all"),
    ("modules", "GradedModule.quotient_pdim", "modules.quotient_pdim"),
    ("modules", "GradedModule.basis_from_generators", "modules.basis_from_generators"),
    ("modules", "GradedModule.extend_to_pseudo_basis", "modules.extend_to_pseudo_basis"),
    ("modules", "GradedModule.pdim_of_span", "modules.pdim_of_span"),
    ("matrix_ring", "MatrixRing.__init__", "matrix_ring.MatrixRing"),
    ("matrix_ring", "MatrixRingElement.mul", "matrix_ring.MatrixRingElement.mul"),
    ("structure", "wedderburn_decompose", "structure.wedderburn_decompose"),
    ("structure", "classify", "structure.classify"),
    ("structure", "spec_iso", "structure.spec_iso"),
    ("structure", "iso_test", "structure.iso_test"),
    ("structure", "solve_coboundary", "structure.solve_coboundary"),
    ("categories", "RawCategory.__init__", "categories.RawCategory"),
    ("categories", "ring_of_category", "categories.ring_of_category"),
    ("categories", "classify_category", "categories.classify_category"),
    ("specfiles", "load_any", "specfiles.load_any"),
    ("specfiles", "load_kind", "specfiles.load_kind"),
]
COUNTED = [("structure", "IsoCertificate.apply", "structure.IsoCertificate.apply")]
# row_reduce is reported per field kind.
ROW_REDUCE = {"Fp": "elimination.row_reduce.fp", "Q": "elimination.row_reduce.q"}
LOADERS = ("specfiles.load_any", "specfiles.load_kind")
RATIOS = [
    "structure.iso_test.per_matched_block",
    "elimination.row_reduce.per_rank_all",
    "elimination.row_reduce.per_quotient_pdim",
    "division.GradedDivisionRing.per_round",
]


def span_names():
    names = [name for _, _, name in SPANS if name != "elimination.row_reduce"]
    return names + list(ROW_REDUCE.values())


def metric_names():
    """Every per-layer metric with its unit, in report order (cli names excluded)."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls", "count") for _, _, name in COUNTED]
    out += [(name, "ratio") for name in RATIOS]
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index] for the current round
        self.stack = []
        self.counts = Counter()
        self.rounds = []  # per round: {metric: value}
        self.kept = []  # the spans of every round, for the trace file

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if label == "structure.spec_iso" and result is not None:
                self.counts["matched_blocks"] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def job(self, name, fn):
        """Wrap one job's call, so every span of the round has the job as its root."""
        return self._wrap(fn, f"job.{name}")

    def _count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every listed function in the loaded gradix modules."""
        mods = {k[len("gradix."):]: m for k, m in sys.modules.items() if k.startswith("gradix.")}
        for module, path, name in SPANS:
            if name == "elimination.row_reduce":
                name = lambda args: ROW_REDUCE[args[0].ring.field.kind]  # noqa: E731
            self._patch(mods, module, path, lambda fn, n=name: self._wrap(fn, n))
        for module, path, name in COUNTED:
            self._patch(mods, module, path, lambda fn, n=name: self._count(fn, n))

    @staticmethod
    def _patch(mods, module, path, make):
        owner = mods[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if not outer:
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def begin_round(self):
        self.spans.clear()
        self.counts.clear()

    def end_round(self):
        """Reduce this round's spans to counts, self times and ratios."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for k, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[k]

        def under(k, names):
            k = spans[k][3]
            while k >= 0:
                if spans[k][0] in names:
                    return True
                k = spans[k][3]
            return False

        reduces = [k for k, s in enumerate(spans) if s[0] in ROW_REDUCE.values()]
        rebuilt = sum(1 for k, s in enumerate(spans) if s[0] == "division.GradedDivisionRing" and not under(k, LOADERS))

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name in span_names():
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        for _, _, name in COUNTED:
            values[f"{name}.calls"] = self.counts[name]
        values["structure.iso_test.per_matched_block"] = ratio(
            calls["structure.iso_test"], self.counts["matched_blocks"]
        )
        values["elimination.row_reduce.per_rank_all"] = ratio(
            sum(under(k, ("elimination.rank_all",)) for k in reduces), calls["elimination.rank_all"]
        )
        values["elimination.row_reduce.per_quotient_pdim"] = ratio(
            sum(under(k, ("modules.quotient_pdim",)) for k in reduces), calls["modules.quotient_pdim"]
        )
        values["division.GradedDivisionRing.per_round"] = rebuilt
        self.rounds.append(values)
        self.kept.append([tuple(s) for s in spans])

    def report(self):
        """Each metric's median over the rounds; counts take an observed value (the lower median)."""
        out = {}
        for name, unit in metric_names():
            values = [r[name] for r in self.rounds]
            out[name] = statistics.median_low(values) if unit == "count" else statistics.median(values)
        return out
