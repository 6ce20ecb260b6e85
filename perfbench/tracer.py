"""Per-layer tracing of rank2chern from outside the program.

``Tracer.install()`` replaces the public functions and the arithmetic and
public methods of the classes of each layer module with wrappers that count
calls, raised exceptions and self time (duration minus the time of wrapped
calls nested inside it).  Figures are aggregated per function, not kept per
call, so hot leaves such as ``Element.__mul__`` stay cheap to trace.

A module-level function is re-bound at every binding site in the package:
``from .linalg import row_reduce`` copies the name into ``relations``, and
the copy is patched too.  Leaves called from the innermost loops (``SKIP``)
are left alone; their time counts as self time of their wrapped caller.

Nothing under ``src/`` is changed; the patching lives only in the traced
interpreter.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

PACKAGE = "rank2chern"
LAYERS = ("algebra", "linalg", "series", "integral", "relations", "operators", "genfun", "suites", "cli")

# Called per term or per matrix entry; wrapping them would cost more than the
# work they do.
SKIP = frozenset(
    {
        "algebra.check_genus",
        "algebra.koszul_sign",
        "algebra.merge_masks",
        "algebra.mask_of",
        "algebra.indices_of",
        "algebra.monomial_bidegree",
        "integral.monomial_integral",
    }
)
# Non-public methods that are wrapped as well.
METHODS = frozenset(
    {"__init__", "__call__", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__"}
)

# The process-global lru_caches: a sample must start with all of them empty.
CACHED = (
    "series.phi_series",
    "relations.prim_basis",
    "relations.rel_generator_poly",
    "algebra.gamma_power",
    "algebra.theta_power",
    "integral._virasoro_line",
)


def cached_functions() -> dict:
    """{"layer.name": lru_cache object} for every name in CACHED."""
    out = {}
    for key in CACHED:
        layer, name = key.split(".")
        fn = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), name)
        while not hasattr(fn, "cache_info"):  # a traced wrapper around it
            fn = fn.__wrapped__
        out[key] = fn
    return out


def _observe_row_reduce(extra, args, result):
    m = args[0]
    extra["row_reduce_cells"] += m.rows * m.cols
    extra["row_reduce_rows"] += m.rows
    extra["row_reduce_rank"] += result[0]


def _observe_span_add(extra, args, result):
    extra["span_add_accepted"] += bool(result)


def _observe_pairing_matrix(extra, args, result):
    extra["pairing_matrix_entries"] += result.rows * result.cols


def _observe_ideal_slice(extra, args, result):
    extra["ideal_slice_rows"] += len(result)


def _observe_basis(extra, args, result):
    extra["basis_monomials"] += len(result)


def _observe_check(extra, args, result):
    extra["operator_cases"] += result["cases"]


def _observe_closure(extra, args, result):
    extra["closure_sweeps"] += result["sweeps"]


OBSERVERS = {
    "linalg.row_reduce": _observe_row_reduce,
    "linalg.RowSpan.add": _observe_span_add,
    "integral.pairing_matrix": _observe_pairing_matrix,
    "relations.ideal_slice": _observe_ideal_slice,
    "algebra.monomial_basis": _observe_basis,
    "operators.check_sl2_relations": _observe_check,
    "operators.check_adjointness": _observe_check,
    "operators.check_descent": _observe_check,
    "operators.check_closure": _observe_check,
    "operators.sl2_closure": _observe_closure,
}

DERIVATIONS = ("algebra.d_alpha", "algebra.d_beta", "algebra.d_psi")
MUMFORD = (
    "relations.mumford_relation",
    "relations.modified_mumford_sum",
    "relations.modified_mumford_closed",
    "relations.modified_mumford",
)
GENFUN_CHECKS = (
    "genfun.check_shift_symmetry",
    "genfun.stack_t_minus_one_matches",
    "genfun.closed_form_t_minus_one_matches",
    "genfun.rank3_t_minus_one_matches",
    "genfun.check_unimodality",
    "genfun.telescoping_identity",
    "genfun.intermediate_difference_matches",
    "genfun.full_stack_telescoping_qt",
)


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    """Wraps the layer modules of one interpreter; see the module docstring."""

    def __init__(self):
        self.stats = {}  # "layer.qualname" -> [calls, self_s, errors]
        self.extra = dict.fromkeys(
            (
                "row_reduce_cells",
                "row_reduce_rows",
                "row_reduce_rank",
                "span_add_accepted",
                "pairing_matrix_entries",
                "ideal_slice_rows",
                "basis_monomials",
                "operator_cases",
                "closure_sweeps",
            ),
            0,
        )
        self._stack = []
        self._caches = None

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        observe = OBSERVERS.get(key)
        extra = self.extra
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(extra, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent outside the program (the speed reference,
        run from a signal handler) out of the running function's self time."""
        if self._stack:
            self._stack[-1] += seconds

    def install(self) -> "Tracer":
        self._caches = cached_functions()
        replaced = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                key = f"{layer}.{name}"
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__ and not issubclass(obj, BaseException):
                        self._install_class(layer, obj)
                elif (
                    _is_function(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and key not in SKIP
                ):
                    replaced[id(obj)] = (obj, self._wrap(key, obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
        return self

    def _install_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in METHODS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(key, attr.__func__)))
            elif isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(key, attr))

    # ------------------------------------------------------------------

    def _sum(self, field, keys):
        return sum(self.stats.get(k, (0, 0.0, 0))[field] for k in keys)

    def _calls(self, *keys):
        return self._sum(0, keys)

    def _self(self, *keys):
        return self._sum(1, keys)

    def _hits(self, key):
        info = self._caches[key].cache_info()
        return info.hits, info.hits + info.misses

    def coverage_errors(self) -> list:
        """Cached functions whose wrapper saw fewer calls than the cache
        did: some call site still holds the unwrapped function."""
        errors = []
        for key in CACHED:
            layer, name = key.split(".")
            if name.startswith("_"):
                continue
            _, total = self._hits(key)
            seen = self._calls(key)
            if seen != total:
                errors.append(f"{key}: wrapper saw {seen} calls, cache saw {total}")
        return errors

    def metrics(self) -> dict:
        """Per-layer metrics: {name: (value, unit)}."""
        x = self.extra

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(key):
            hits, total = self._hits(key)
            return ratio(hits, total)

        gp_hits, gp_calls = self._hits("algebra.gamma_power")
        pb_hits, pb_calls = self._hits("relations.prim_basis")
        rp_hits, rp_calls = self._hits("relations.rel_generator_poly")
        add_calls = self._calls("linalg.RowSpan.add")
        out = {
            "algebra.mul_calls": (self._calls("algebra.Element.__mul__"), "count"),
            "algebra.mul_self_s": (self._self("algebra.Element.__mul__"), "s"),
            "algebra.deriv_calls": (self._calls(*DERIVATIONS), "count"),
            "algebra.deriv_self_s": (self._self(*DERIVATIONS), "s"),
            "algebra.basis_calls": (self._calls("algebra.monomial_basis"), "count"),
            "algebra.basis_monomials": (x["basis_monomials"], "count"),
            "algebra.gamma_power_calls": (gp_calls, "count"),
            "algebra.gamma_power_hit_ratio": (ratio(gp_hits, gp_calls), "ratio"),
            "linalg.row_reduce_calls": (self._calls("linalg.row_reduce"), "count"),
            "linalg.row_reduce_self_s": (self._self("linalg.row_reduce"), "s"),
            "linalg.row_reduce_cells": (x["row_reduce_cells"], "count"),
            "linalg.row_reduce_rows": (x["row_reduce_rows"], "count"),
            "linalg.row_reduce_rank_ratio": (ratio(x["row_reduce_rank"], x["row_reduce_rows"]), "ratio"),
            "linalg.qmatrix_build_s": (
                self._self("linalg.QMatrix.__init__", "linalg.QMatrix.from_rows"),
                "s",
            ),
            "linalg.span_add_calls": (add_calls, "count"),
            "linalg.span_add_self_s": (self._self("linalg.RowSpan.add"), "s"),
            "linalg.span_add_accept_ratio": (ratio(x["span_add_accepted"], add_calls), "ratio"),
            "linalg.span_contains_calls": (self._calls("linalg.RowSpan.contains"), "count"),
            "series.phi_calls": (self._calls("series.phi_series"), "count"),
            "series.phi_hit_ratio": (hit_ratio("series.phi_series"), "ratio"),
            "series.phi_self_s": (self._self("series.phi_series"), "s"),
            "series.poly_mul_calls": (self._calls("series.InvariantPoly.__mul__"), "count"),
            "series.poly_mul_self_s": (self._self("series.InvariantPoly.__mul__"), "s"),
            "series.tseries_mul_calls": (self._calls("series.TSeries.__mul__"), "count"),
            "series.tseries_mul_self_s": (self._self("series.TSeries.__mul__"), "s"),
            "series.embed_calls": (self._calls("series.InvariantPoly.embed"), "count"),
            "series.embed_self_s": (self._self("series.InvariantPoly.embed"), "s"),
            "integral.pairing_matrix_calls": (self._calls("integral.pairing_matrix"), "count"),
            "integral.pairing_matrix_self_s": (self._self("integral.pairing_matrix"), "s"),
            "integral.pairing_matrix_entries": (x["pairing_matrix_entries"], "count"),
            "integral.pairing_calls": (self._calls("integral.graded_pairing"), "count"),
            "integral.pairing_self_s": (self._self("integral.graded_pairing"), "s"),
            "relations.ideal_slice_calls": (self._calls("relations.ideal_slice"), "count"),
            "relations.ideal_slice_self_s": (self._self("relations.ideal_slice"), "s"),
            "relations.ideal_slice_rows": (x["ideal_slice_rows"], "count"),
            "relations.prim_basis_calls": (pb_calls, "count"),
            "relations.prim_basis_hit_ratio": (ratio(pb_hits, pb_calls), "ratio"),
            "relations.rel_poly_calls": (rp_calls, "count"),
            "relations.rel_poly_hit_ratio": (ratio(rp_hits, rp_calls), "ratio"),
            "relations.mumford_calls": (self._calls("relations.modified_mumford"), "count"),
            "relations.mumford_self_s": (self._self(*MUMFORD), "s"),
            "operators.apply_calls": (self._calls("operators.Operator.__call__"), "count"),
            "operators.apply_self_s": (self._self("operators.Operator.__call__"), "s"),
            "operators.make_sl2_calls": (self._calls("operators.make_sl2"), "count"),
            "operators.cases": (x["operator_cases"], "count"),
            "operators.closure_sweeps": (x["closure_sweeps"], "count"),
            "operators.closure_self_s": (self._self("operators.sl2_closure"), "s"),
            "genfun.bipoly_mul_calls": (self._calls("genfun.BiPoly.__mul__"), "count"),
            "genfun.bipoly_mul_self_s": (self._self("genfun.BiPoly.__mul__"), "s"),
            "genfun.check_calls": (self._calls(*GENFUN_CHECKS), "count"),
            "genfun.check_self_s": (self._self(*GENFUN_CHECKS), "s"),
        }
        for layer in LAYERS:
            keys = [k for k in self.stats if k.startswith(layer + ".")]
            out[f"{layer}.self_s"] = (self._self(*keys), "s")
            out[f"{layer}.errors"] = (self._sum(2, keys), "count")
        return out
