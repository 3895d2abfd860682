"""Span tracer for the traced benchmark run.

Wraps public cohomlab callables where they are looked up: every module
global of the cohomlab package bound to the callable, or the class
attribute for methods.  Each wrapped call records a span (layer name,
start, end, parent span, op id) in memory; counters are kept at the same
boundaries.  A layer's self time is its spans' durations minus the part
their child spans cover and minus the time the tracer's own reduction
hooks took inside them, so the tracer's entry scans are charged to no
layer.  Self times are scaled to reference host speed op by op, as the
end-to-end times are (see speed.py).  Spans are written out by ``write``
at the end of the run.  Nothing here is installed in timed runs.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

from cohomlab import (cohomology, complexes, exterior, geometry, io, linalg,
                      properties, randomgen, report, spectral)
from cohomlab.scalars import GaussianRational

__all__ = ["LAYER_METRICS", "Tracer", "self_times"]

# Per-layer metrics: (name, unit, better, what it should move).  Times and
# counts are per traced op, times at reference host speed;
# "moves" names the end-to-end metric and workload each one is expected
# to move.
LAYER_METRICS = (
    ("spectral.pages.self_s", "s/op", "lower", "ops_per_s on fuzz-mix and dolbeault-ladder; unchanged on symplectic-batch"),
    ("spectral.pages.count", "count/op", "lower", "ops_per_s on fuzz-mix and dolbeault-ladder; unchanged on symplectic-batch"),
    ("linalg.intersect.self_s", "s/op", "lower", "ops_per_s on fuzz-mix and dolbeault-ladder; unchanged on symplectic-batch"),
    ("linalg.preimage.self_s", "s/op", "lower", "ops_per_s on fuzz-mix and dolbeault-ladder; unchanged on symplectic-batch"),
    ("linalg.reductions", "count/op", "lower", "ops_per_s on symplectic-batch (Fraction) and dolbeault-ladder (Q(i))"),
    ("linalg.field_share", "ratio", "lower", "ops_per_s on symplectic-batch (Fraction) and dolbeault-ladder (Q(i))"),
    ("linalg.kernel.self_s", "s/op", "lower", "ops_per_s on symplectic-batch (Fraction) and dolbeault-ladder (Q(i))"),
    ("linalg.sum.self_s", "s/op", "lower", "ops_per_s on symplectic-batch (Fraction) and dolbeault-ladder (Q(i))"),
    ("linalg.contains.calls", "count/op", "lower", "ops_per_s on symplectic-batch (Fraction) and dolbeault-ladder (Q(i))"),
    ("linalg.mul.self_s", "s/op", "lower", "ops_per_s on symplectic-batch (Fraction) and dolbeault-ladder (Q(i))"),
    ("linalg.max_cols", "count", "lower", "peak_rss_mb on dolbeault-ladder"),
    ("linalg.max_entry_bits", "bits", "lower", "ops_per_s on symplectic-batch and dolbeault-ladder"),
    ("cohomology.cell.builds", "count/op", "lower", "ops_per_s on all three workloads"),
    ("cohomology.cell.hit_ratio", "ratio", "higher", "ops_per_s on all three workloads"),
    ("cohomology.cells.self_s", "s/op", "lower", "ops_per_s on all three workloads"),
    ("cohomology.lemma_verdict.self_s", "s/op", "lower", "ops_per_s on all three workloads, most on fuzz-mix"),
    ("cohomology.tot_subquotient.self_s", "s/op", "lower", "ops_per_s on all three workloads"),
    ("cohomology.induced_rank.calls", "count/op", "lower", "ops_per_s on all three workloads"),
    ("cohomology.frolicher_report.self_s", "s/op", "lower", "ops_per_s on symplectic-batch and dolbeault-ladder (fuzz-mix does not call it)"),
    ("complexes.validate.self_s", "s/op", "lower", "ops_per_s on dolbeault-ladder and fuzz-mix"),
    ("complexes.tot.self_s", "s/op", "lower", "ops_per_s on dolbeault-ladder and fuzz-mix"),
    ("geometry.symplectic_pair.self_s", "s/op", "lower", "ops_per_s on symplectic-batch"),
    ("geometry.hard_lefschetz.self_s", "s/op", "lower", "ops_per_s on symplectic-batch"),
    ("geometry.primitive_decomposition.self_s", "s/op", "lower", "ops_per_s on symplectic-batch"),
    ("spectral.doub_degeneration.self_s", "s/op", "lower", "ops_per_s on symplectic-batch"),
    ("exterior.derivation_matrix.self_s", "s/op", "lower", "ops_per_s on symplectic-batch"),
    ("geometry.complex_bicomplex.self_s", "s/op", "lower", "ops_per_s on dolbeault-ladder"),
    ("randomgen.assemble.self_s", "s/op", "lower", "ops_per_s on fuzz-mix"),
    ("randomgen.predicted_tables.self_s", "s/op", "lower", "ops_per_s on fuzz-mix"),
    ("properties.check_bicomplex.self_s", "s/op", "lower", "ops_per_s on fuzz-mix"),
    ("io.load_document.self_s", "s/op", "lower", "op_p50_ms on symplectic-batch and dolbeault-ladder"),
    ("io.build.self_s", "s/op", "lower", "op_p50_ms on symplectic-batch and dolbeault-ladder"),
    ("report.make_report.self_s", "s/op", "lower", "op_p50_ms on symplectic-batch and dolbeault-ladder"),
    ("report.render.self_s", "s/op", "lower", "op_p50_ms on symplectic-batch and dolbeault-ladder"),
    ("report.bytes_out", "bytes/op", "lower", "op_p50_ms on symplectic-batch and dolbeault-ladder"),
    ("trace.overhead_s", "s", "lower", "nothing: trace.overhead_share of the untraced time of a pass over the inputs, at reference speed"),
    ("trace.overhead_share", "ratio", "lower", "nothing: traced over untraced time of runs made next to each other, minus 1"),
)

# Span layers: layer name -> the callables it wraps, as (owner, attribute).
# Module functions are rebound in every cohomlab module that holds them.
SPANS = (
    ("spectral.pages", ((spectral, "pages"),)),
    ("spectral.doub_degeneration", ((spectral, "doub_degeneration_check"),)),
    ("linalg.intersect", ((linalg.Subspace, "intersect"),)),
    ("linalg.preimage", ((linalg, "preimage"),)),
    ("linalg.kernel", ((linalg, "kernel"),)),
    ("linalg.sum", ((linalg.Subspace, "sum"),)),
    ("linalg.mul", ((linalg.Matrix, "mul"),)),
    ("cohomology.cells", ((cohomology.Analysis, "cell"),
                          (cohomology.PairAnalysis, "cell"))),
    ("cohomology.lemma_verdict", ((cohomology.Analysis, "lemma_verdict"),
                                  (cohomology.PairAnalysis, "lemma_verdict"))),
    ("cohomology.tot_subquotient", ((cohomology.Analysis, "tot_subquotient"),
                                    (cohomology.PairAnalysis, "tot_subquotient"))),
    ("cohomology.frolicher_report", ((cohomology, "frolicher_report"),)),
    ("complexes.validate", ((complexes.DoubleComplex, "validate"),
                            (complexes.BidiffPair, "validate"))),
    ("complexes.tot", ((complexes, "tot"),)),
    ("geometry.symplectic_pair", ((geometry, "symplectic_pair"),)),
    ("geometry.hard_lefschetz", ((geometry, "hard_lefschetz"),)),
    ("geometry.primitive_decomposition",
     ((geometry, "primitive_and_lefschetz_decomposition"),)),
    ("geometry.complex_bicomplex", ((geometry, "complex_bicomplex"),)),
    ("exterior.derivation_matrix", ((exterior, "derivation_matrix"),)),
    ("randomgen.assemble", ((randomgen, "assemble"),)),
    ("randomgen.predicted_tables", ((randomgen, "predicted_tables"),)),
    ("properties.check_bicomplex", ((properties, "check_bicomplex"),)),
    ("io.load_document", ((io, "load_document"),)),
    ("io.build", ((io, "build"),)),
    ("report.make_report", ((report, "make_report"),)),
    ("report.render", ((report, "render"),)),
)

# Every row reduction in linalg goes through _rref_rows(rows, ncols); det
# eliminates on its own.  Both are counted with the kind and size of their
# entries; neither is a span.
COUNTED = (
    ("linalg.contains.calls", (linalg.Subspace, "contains")),
    ("cohomology.induced_rank.calls", (cohomology, "induced_rank")),
)

_MISSING = object()


def _bits(x):
    if type(x) is int:
        return x.bit_length() if x >= 0 else (-x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, GaussianRational):
        return max(_bits(x.re), _bits(x.im))
    return 0


def _entry_stats(rows):
    """(any entry not an int, largest bit size of a nonzero entry)."""
    field, bits = False, 0
    for row in rows:
        for x in row:
            if type(x) is not int:
                field = True
            if x:
                b = _bits(x)
                if b > bits:
                    bits = b
    return field, bits


def self_times(names, starts, ends, parents, hooked, weights):
    """{name: summed self time}: each span's duration minus what its child
    spans cover and minus `hooked`, the time the tracer's own hooks took
    inside it, times the span's weight.

    Spans of one thread nest, so a parent's covered time is the sum of
    its direct children's durations.
    """
    cover = list(hooked)
    for i, p in enumerate(parents):
        if p >= 0:
            cover[p] += ends[i] - starts[i]
    out = Counter()
    for i, name in enumerate(names):
        out[name] += ((ends[i] - starts[i]) - cover[i]) * weights[i]
    return out


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.layer_names = [name for name, _ in SPANS]
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.hooked = array("d")
        self.stack = []
        self.op = -1  # the running op, numbered over all traced ops
        self.ops_run = 0
        self.counts = Counter()
        self.max_cols = 0
        self.max_bits = 0
        self._saved = []

    # -- wrappers --------------------------------------------------------

    def _span(self, layer, fn, post=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self.stack
        hooked = self.hooked
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(layer)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            hooked.append(0.0)
            starts.append(perf_counter())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(idx, args, result)
            return result

        return wrapper

    def _pre(self, fn, hook):
        def wrapper(*args, **kwargs):
            hook(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _note_reduction(self, rows, ncols):
        """Count one reduction; its time goes to the enclosing span's hooks."""
        t0 = perf_counter()
        self.counts["reductions"] += 1
        field, bits = _entry_stats(rows)
        if field:
            self.counts["field_reductions"] += 1
        if bits > self.max_bits:
            self.max_bits = bits
        if ncols > self.max_cols:
            self.max_cols = ncols
        if self.stack:
            self.hooked[self.stack[-1]] += perf_counter() - t0

    def _counted_rref(self, fn):
        def wrapper(rows, ncols):
            self._note_reduction(rows, ncols)
            return fn(rows, ncols)

        return wrapper

    def _counted_det(self, fn):
        def wrapper(m):
            self._note_reduction(m.rows, m.ncols)
            return fn(m)

        return wrapper

    def _counter(self, key):
        counts = self.counts

        def hook(*args, **kwargs):
            counts[key] += 1

        return hook

    def _cell_post(self, idx, args, result):
        # a cell call that opened no child span was served from the cache;
        # drop its span so hits cost no memory
        if len(self.starts) == idx + 1:
            for arr in (self.names, self.starts, self.ends, self.parents,
                        self.ops, self.hooked):
                arr.pop()
            self.counts["cell_hits"] += 1
        else:
            self.counts["cell_builds"] += 1

    def _pages_post(self, idx, args, result):
        p = self.parents[idx]
        if p < 0 or self.layer_names[self.names[p]] != "spectral.pages":
            self.counts["pages"] += len(result)

    def _render_post(self, idx, args, result):
        self.counts["bytes_out"] += len(result.encode())

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr, make):
        """Rebind owner.attr (and every cohomlab global bound to it)."""
        if isinstance(owner, type):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, make(orig))
            return
        orig = getattr(owner, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name != "cohomlab" and not name.startswith("cohomlab."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, key, val))
                    setattr(mod, key, new)

    def install(self):
        posts = {"cohomology.cells": self._cell_post,
                 "spectral.pages": self._pages_post,
                 "report.render": self._render_post}
        self._replace(linalg, "_rref_rows", self._counted_rref)
        self._replace(linalg, "det", self._counted_det)
        for key, (owner, attr) in COUNTED:
            self._replace(owner, attr,
                          lambda f, k=key: self._pre(f, self._counter(k)))
        for layer, targets in SPANS:
            i = self.layer_names.index(layer)
            for owner, attr in targets:
                self._replace(owner, attr,
                              lambda f, i=i, p=posts.get(layer): self._span(i, f, p))

    def uninstall(self):
        """Restore what install replaced; a no-op when nothing is installed."""
        for owner, attr, val in reversed(self._saved):
            if val is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, val)
        self._saved = []

    # -- results ---------------------------------------------------------

    def metrics(self, op_scales, overhead_share, untraced_s):
        """Per-layer metric values, per traced op.

        op_scales[i] puts op i's times at reference host speed; every span
        belongs to an op.  overhead_share is the measured share by which
        the tracer slows an op, and untraced_s the untraced op time of a
        pass over the inputs at reference speed.
        """
        st = self_times(self.names, self.starts, self.ends, self.parents,
                        self.hooked, [op_scales[op] for op in self.ops])
        per_op = 1.0 / len(op_scales)
        c = self.counts
        calls = c["cell_hits"] + c["cell_builds"]
        values = {}
        for i, layer in enumerate(self.layer_names):
            values[layer + ".self_s"] = st.get(i, 0.0) * per_op
        values.update({
            "spectral.pages.count": c["pages"] * per_op,
            "linalg.reductions": c["reductions"] * per_op,
            "linalg.field_share": (c["field_reductions"] / c["reductions"]
                                   if c["reductions"] else 0.0),
            "linalg.contains.calls": c["linalg.contains.calls"] * per_op,
            "linalg.max_cols": self.max_cols,
            "linalg.max_entry_bits": self.max_bits,
            "cohomology.cell.builds": c["cell_builds"] * per_op,
            "cohomology.cell.hit_ratio": c["cell_hits"] / calls if calls else 0.0,
            "cohomology.induced_rank.calls": c["cohomology.induced_rank.calls"] * per_op,
            "report.bytes_out": c["bytes_out"] * per_op,
            "trace.overhead_s": overhead_share * untraced_s,
            "trace.overhead_share": overhead_share,
        })
        return {name: values[name] for name, _u, _b, _m in LAYER_METRICS}

    def write(self, path):
        """All spans as tab-separated name, start, end, parent, op and
        hooked, the time the tracer's hooks took inside the span."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\thooked\n")
            for i in range(len(self.starts)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%.9f\n" % (
                    self.layer_names[self.names[i]], self.starts[i],
                    self.ends[i], self.parents[i], self.ops[i],
                    self.hooked[i]))
