"""Spans around solvco's public functions, installed from outside.

`install` wraps each function in TARGETS and rebinds every name that refers
to it in every loaded solvco module, because `from .matrices import
rank_and_kernel` leaves a second binding that a patch on the defining
module would miss.  Methods are patched on their class.  A target that a
later version of solvco no longer has is skipped, and its metrics read 0.

Each span is [name, start, end, parent index, job id].  Work done to take a
count (hooks below) is recorded as a `trace.count` span, so it is charged to
the tracer and not to the layer that called it.
"""

from __future__ import annotations

import importlib
import sys
import time
from math import comb

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.job = None

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = perf()

    def wrap(self, name, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                tracer._open("trace.count")
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass  # a later solvco changed the shape the hook reads
                finally:
                    tracer._close()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def summary(self):
        """{name: [calls, self seconds, total seconds]}: self time is the
        duration minus the children's; total time counts only spans not
        nested in a span of the same name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[idx]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                entry[2] += end - start
        return out


# ---------------------------------------------------------------------------
# counting hooks: (tracer, args, kwargs, result)
# ---------------------------------------------------------------------------

def _bits(x):
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _rank_and_kernel(t, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    t.add("matrices.rank_and_kernel.cells", m.rows * m.cols)
    bits = max((_bits(x) for vec in result[1] for x in vec), default=0)
    t.maximum("matrices.kernel_max_bits", bits)


def _differentials(t, args, kwargs, result):
    t.add("cohomology.forms_built", sum(m.cols for m in result))
    t.add("cohomology.d_nnz", sum(1 for m in result for i in range(m.rows)
                                  for x in m.row(i) if x))


def _build_complex(t, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    top = args[1] if len(args) > 1 else kwargs.get("max_degree")
    top = g.dim if top is None else min(top + 1, g.dim)
    t.add("cohomology.forms_needed", sum(comb(g.dim, k) for k in range(top + 1)))


def _flag(t, args, kwargs, result):
    t.add(f"lie.flag.{result.status}", 1)


def _mostow(t, args, kwargs, result):
    t.add(f"almost_abelian.mostow.{result[0].value}", 1)


TARGETS = [
    ("matrices", "rank_and_kernel", _rank_and_kernel),
    ("matrices", "Echelon.add", None),
    ("matrices", "Echelon.reduce", None),
    ("matrices", "det", None),
    ("matrices", "inverse", None),
    ("cohomology", "differentials", _differentials),
    ("cohomology", "build_complex", _build_complex),
    ("cohomology", "betti_numbers", None),
    ("lie", "validate", None),
    ("lie", "completely_solvable_flag", _flag),
    ("lie", "derived_series", None),
    ("lie", "lower_central_series", None),
    ("lie", "verify_nilpotent_complement", None),
    ("decompositions", "minimal_polynomial", None),
    ("decompositions", "jordan_chevalley", None),
    ("decompositions", "semisimple_primary_components", None),
    ("decompositions", "char_poly", None),
    ("decompositions", "complex_quadratic_factors", None),
    ("polynomials", "sturm_real_root_count", None),
    ("polynomials", "cyclotomic_factors", None),
    ("polynomials", "rational_roots", None),
    ("polynomials", "integer_divisors", None),
    ("splitting", "kill_map", None),
    ("splitting", "modified_bracket", None),
    ("almost_abelian", "analyze", None),
    ("almost_abelian", "mostow_status", _mostow),
    ("almost_abelian", "invariant_betti", None),
    ("almost_abelian", "torus_cover", None),
    ("files", "parse_structure_file", None),
    ("files", "parse_matrix", None),
    ("cli", "run_command", None),
    ("catalog", "catalog_get", None),
]

SPAN_NAMES = [f"{mod}.{attr}" for mod, attr, _ in TARGETS]
COUNT_NAMES = ["matrices.rank_and_kernel.cells", "matrices.kernel_max_bits",
               "cohomology.forms_built", "cohomology.forms_needed", "cohomology.d_nnz",
               "lie.flag.yes", "lie.flag.no", "lie.flag.undetermined",
               "almost_abelian.mostow.holds", "almost_abelian.mostow.fails",
               "almost_abelian.mostow.undetermined"]


def install(tracer: Tracer):
    """Wrap every target found in the loaded solvco package."""
    for mod, attr, hook in TARGETS:
        try:
            module = importlib.import_module(f"solvco.{mod}")
        except ImportError:
            continue
        name = f"{mod}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], hook))
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(name, original, hook)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "solvco":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
