"""Span tracing of sofic's layers from outside the library.

``install`` wraps every public function of the modules groups, algebraic,
spectral, subshift and cli, plus the private determinant kernels that
carry the per-prime counts, and rebinds the wrapper at every module
attribute that binds the original (``parse_laurent`` is also bound in
``sofic.cli``, ``log_big_int`` in ``sofic.subshift``, and so on).  The
``ExplicitQuotient`` constructor is wrapped on its class.  A name that a
later version of sofic no longer has is skipped, so its metrics read 0.

Spans (name, start, end, parent, value) stay in memory; ``layer_metrics``
turns them into the per-layer metrics after the run.  A span's self time
is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from typing import Callable, Dict, List

MODULES = ("groups", "algebraic", "spectral", "subshift", "cli")

# Private functions that are layer boundaries: the per-prime count is only
# visible at the modular LU.
PRIVATE = {"algebraic": ("_lu_det_mod", "_det_bareiss", "_det_modular")}


def _bits_of_prime(args, result):
    return math.log2(args[1])


def _result_bits(args, result):
    return abs(result).bit_length()


def _dim(args, result):
    return result.dim


def _labelings(args, result):
    return len(args[0].alphabet) ** args[1].d


# Values recorded with a span, for the counts and ratios of a layer.
PROBES: Dict[str, Callable] = {
    "algebraic._lu_det_mod": _bits_of_prime,
    "algebraic._det_modular": _result_bits,
    "algebraic.regular_rep_matrix": _dim,
    "subshift.hom_count_exact": _labelings,
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, value]
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                try:
                    span[4] = probe(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass
            return result

        return traced


def install(package: str = "sofic") -> Tracer:
    tracer = Tracer()
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in PRIVATE.get(short, ())
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in [importlib.import_module(package), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    explicit = getattr(modules.get("groups"), "ExplicitQuotient", None)
    if explicit is not None:
        explicit.__init__ = tracer.wrap("groups.ExplicitQuotient", explicit.__init__)
    return tracer


def self_times(spans: List[list]) -> List[float]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _covering(spans: List[list], names) -> List[int]:
    """Indices of spans named in ``names`` with no ancestor also named."""
    names = set(names)
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _root_time(spans: List[list]) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (report bytes excluded).

    Layer times are shares of the time in root spans (the ``cli.main``
    calls): a layer a workload bypasses then reads 0 as a count, not as a
    time.  A ``self`` share excludes child spans; the others include them.
    """
    selfs = self_times(spans)
    total = _root_time(spans) or 1.0
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def share(*names) -> float:
        return sum(spans[i][2] - spans[i][1] for i in _covering(spans, names)) / total

    def self_share(prefix) -> float:
        return sum(s for span, s in zip(spans, selfs) if span[0].startswith(prefix)) / total

    def calls(name) -> int:
        return len(by_name.get(name, ()))

    def values(name) -> List[float]:
        return [spans[i][4] for i in by_name.get(name, ()) if spans[i][4] is not None]

    prime_bits = sum(values("algebraic._lu_det_mod"))
    dims = values("algebraic.regular_rep_matrix")
    return {
        "algebraic.prime_lu_share": share("algebraic._lu_det_mod"),
        "algebraic.primes": calls("algebraic._lu_det_mod"),
        "algebraic.prime_useful_ratio": (
            sum(values("algebraic._det_modular")) / prime_bits if prime_bits else 0.0
        ),
        "algebraic.bareiss_share": share("algebraic._det_bareiss"),
        "algebraic.bareiss_calls": calls("algebraic._det_bareiss"),
        "algebraic.det_share": share("algebraic.det_abs_exact"),
        "algebraic.det_calls": calls("algebraic.det_abs_exact"),
        "algebraic.dim_max": max(dims, default=0),
        "algebraic.snf_share": share("algebraic.smith_normal_form"),
        "algebraic.snf_calls": calls("algebraic.smith_normal_form"),
        "algebraic.matrix_share": share("algebraic.regular_rep_matrix"),
        "algebraic.matrix_entries": sum(d * d for d in dims),
        "algebraic.trace_self_share": self_share("algebraic.entropy_trace"),
        "groups.quotient_share": share("groups.torus_quotient", "groups.ExplicitQuotient"),
        "groups.quotients": calls("groups.torus_quotient") + calls("groups.ExplicitQuotient"),
        "groups.parse_share": share("groups.parse_laurent", "groups.parse_word"),
        "subshift.transfer_share": share("subshift.transfer_matrix_count"),
        "subshift.transfer_calls": calls("subshift.transfer_matrix_count"),
        "subshift.enumeration_share": share("subshift.hom_count_exact"),
        "subshift.labelings": sum(values("subshift.hom_count_exact")),
        "spectral.reference_share": share("spectral.mahler_jensen", "spectral.mahler_quadrature"),
        "spectral.certificate_share": share("spectral.certify_invertible_torus"),
        "cli.self_share": self_share("cli."),
    }


def self_shares(spans: List[list]) -> Dict[str, float]:
    """Self time of each span name as a share of all root spans' time."""
    total = _root_time(spans) or 1.0
    shares: Dict[str, float] = defaultdict(float)
    for span, s in zip(spans, self_times(spans)):
        shares[span[0]] += s / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

