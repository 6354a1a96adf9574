"""In-memory span tracer for the public entry points of homfly3's layers.

The tracer wraps functions from outside the package: every module of
homfly3 imports the names it uses, so a wrapper is installed under each
name bound to the original function, in every loaded ``homfly3`` module,
and under the ``__mul__``/``__rmul__`` slots of the polynomial classes.

Each wrapped call is one span (id, parent id, request id, name, start,
end).  A stack of open spans gives self time: a span's duration minus the
durations of its direct children.  Spans are kept in compact arrays while
the run lasts and written out once, when it ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from fractions import Fraction

# (span name, module, attribute) for plain functions.
FUNCTIONS = (
    ("cli.run", "homfly3.cli", "run"),
    ("braid.character_coefficients", "homfly3.braid", "character_coefficients"),
    ("braid.reduced_homfly", "homfly3.braid", "reduced_homfly"),
    ("braid.extended_homfly", "homfly3.braid", "extended_homfly"),
    ("braid.specializations", "homfly3.braid", "special_polynomial"),
    ("braid.specializations", "homfly3.braid", "jones_polynomial"),
    ("braid.specializations", "homfly3.braid", "antisymmetric_dual"),
    ("racah.build_block", "homfly3.racah", "build_block"),
    ("racah.racah_su2", "homfly3.racah", "racah_su2"),
    ("radext.sqrt_of", "homfly3.radext", "sqrt_of"),
    ("qpoly.laurent_divexact", "homfly3.qpoly", "laurent_divexact"),
    ("qpoly.laurent_gcd", "homfly3.qpoly", "laurent_gcd"),
    ("young.hook_content_dimension", "homfly3.young", "hook_content_dimension"),
    ("young.cube_blocks", "homfly3.young", "cube_blocks"),
    ("symfun.schur_in_powersums", "homfly3.symfun", "schur_in_powersums"),
    ("symfun.topological_locus", "homfly3.symfun", "topological_locus"),
)

# (span name, module, class) whose multiplication operator is wrapped.
MULTIPLIES = (
    ("qpoly.LaurentQ.mul", "homfly3.qpoly", "LaurentQ"),
    ("qpoly.LaurentQA.mul", "homfly3.qpoly", "LaurentQA"),
)

# Per-layer metrics: (metric, unit, better, the end-to-end metric it should
# move, the workloads where that shows).  Metric names are
# "<span>.calls", "<span>.self_s" or one of the derived names below.
LAYER_METRICS = (
    ("cli.run.self_s", "s", "lower", "wall_s", "catalog"),
    ("braid.character_coefficients.calls", "count", "lower", "wall_s", "catalog"),
    ("braid.character_coefficients.self_s", "s", "lower", "wall_s, req_p50_s", "long-words, catalog"),
    ("braid.reduced_homfly.self_s", "s", "lower", "wall_s", "catalog"),
    ("braid.extended_homfly.self_s", "s", "lower", "wall_s", "unreduced"),
    ("braid.specializations.self_s", "s", "lower", "wall_s", "catalog"),
    ("racah.build_block.calls", "count", "lower", "setup_s", "all"),
    ("racah.racah_su2.self_s", "s", "lower", "setup_s", "all"),
    ("racah.racah_su2.miss_ratio", "ratio", "lower", "setup_s", "all"),
    ("radext.sqrt_of.calls", "count", "lower", "setup_s", "all"),
    ("radext.sqrt_of.self_s", "s", "lower", "setup_s", "all"),
    ("qpoly.LaurentQ.mul.calls", "count", "lower", "wall_s", "long-words"),
    ("qpoly.LaurentQ.mul.self_s", "s", "lower", "wall_s", "long-words"),
    ("qpoly.laurent_divexact.calls", "count", "lower", "wall_s", "catalog, long-words"),
    ("qpoly.laurent_divexact.self_s", "s", "lower", "wall_s", "catalog, long-words"),
    ("qpoly.laurent_divexact.in_terms_max", "terms", "lower", "wall_s", "long-words"),
    ("qpoly.laurent_divexact.in_bits_max", "bits", "lower", "wall_s", "long-words"),
    ("qpoly.LaurentQA.mul.calls", "count", "lower", "wall_s", "unreduced, catalog"),
    ("qpoly.LaurentQA.mul.self_s", "s", "lower", "wall_s", "unreduced, catalog"),
    ("qpoly.laurent_gcd.calls", "count", "lower", "setup_s", "all"),
    ("qpoly.laurent_gcd.self_s", "s", "lower", "setup_s", "all"),
    ("young.hook_content_dimension.self_s", "s", "lower", "wall_s", "catalog"),
    ("young.cube_blocks.self_s", "s", "lower", "req_p50_s", "catalog"),
    ("symfun.schur_in_powersums.self_s", "s", "lower", "wall_s", "unreduced"),
    ("symfun.topological_locus.self_s", "s", "lower", "wall_s", "unreduced"),
    ("trace.overhead_s", "s", "lower", "none (cost of tracing)", "all"),
)

# Layer metrics taken again from the traced fresh-process set-up, where the
# cold construction of the mixing matrices happens.
SETUP_METRICS = (
    "racah.build_block.calls",
    "racah.racah_su2.self_s",
    "racah.racah_su2.miss_ratio",
    "radext.sqrt_of.calls",
    "radext.sqrt_of.self_s",
    "qpoly.laurent_gcd.calls",
    "qpoly.laurent_gcd.self_s",
)


def _bits(c):
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


class Tracer:
    """Records spans around the wrapped calls; see the module docstring."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {}
        self.self_s = {}
        self.divexact_terms_max = 0
        self.divexact_bits_max = 0
        self.su2_keys = set()
        self.request = -1
        self._stack = []  # [span id, time covered by direct children]
        self._undo = []

    def _name_id(self, name):
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return i

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span called ``name``."""
        nid = self._name_id(name)
        sid = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.span_end[sid] = end
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def _wrap(self, name, fn):
        tracer = self
        if name == "qpoly.laurent_divexact":
            def wrapper(a, b):
                t = a.terms
                tracer.divexact_terms_max = max(tracer.divexact_terms_max, len(t))
                if t:
                    bits = max(_bits(c) for c in t.values())
                    tracer.divexact_bits_max = max(tracer.divexact_bits_max, bits)
                return tracer.span(name, fn, a, b)
        elif name == "racah.racah_su2":
            def wrapper(N, p, convention=None):
                tracer.su2_keys.add((N, p))
                return tracer.span(name, fn, N, p, convention)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced name wherever a homfly3 module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "homfly3" or n.startswith("homfly3.")]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, modname, clsname in MULTIPLIES:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__["__mul__"]
            wrapper = self._wrap(name, orig)
            for key in ("__mul__", "__rmul__"):
                if cls.__dict__.get(key) is orig:
                    self._undo.append((cls, key, orig))
                    setattr(cls, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def layer_metrics(self):
        """Per-layer values: calls and self time per span name, plus ratios."""
        out = {}
        for name, *_ in FUNCTIONS + MULTIPLIES:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        su2_calls = self.calls.get("racah.racah_su2", 0)
        out["racah.racah_su2.miss_ratio"] = (
            len(self.su2_keys) / su2_calls if su2_calls else 0.0
        )
        out["qpoly.laurent_divexact.in_terms_max"] = self.divexact_terms_max
        out["qpoly.laurent_divexact.in_bits_max"] = self.divexact_bits_max
        return out

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, request, name,
        start and end in seconds of ``time.perf_counter``."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\trequest\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                f.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.span_parent[i], self.span_request[i],
                    self.names[self.span_name[i]],
                    self.span_start[i], self.span_end[i],
                ))
