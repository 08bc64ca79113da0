"""Per-layer tracing installed from outside the package, for the traced run only.

Wrappers replace each layer's public functions at the place callers look them
up (a module attribute, or a class attribute for methods), so no file of the
package changes.  Each wrapped call is a span: layer, start, end and the span
that caused it.  ``reports._map_rows`` is wrapped so that rows evaluated in its
pool threads carry the span that called it as their parent.

Every span adds to its layer's calls, seconds and work count.  The spans kept
one by one are only ``reports.run_study``, the pool rows, and the direct
children of either: that is all the self-time and overlap figures need, and it
keeps the hundreds of thousands of kernel and profile evaluations of a pass out
of memory.  A call into a layer from inside the same layer (``bessel.y0``
calling ``bessel.j0``) counts as part of the outer call.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

RUN_STUDY = "reports.run_study"
ROW = "reports.row"
_STRUCTURAL = (RUN_STUDY, ROW)


def _none(args, kwargs, result):
    return 0


def _kernel_points(args, kwargs, result):
    delta, x = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return x.size // delta.dim if delta.dim > 1 else x.size


def _points(args, kwargs, result):
    return int(np.size(args[-1]))  # the points are the last positional argument


def _profile_nodes(args, kwargs, result):
    return len(result.nodes)


def _kdv_steps(args, kwargs, result):
    return int(round(result.metadata["t_final"] / result.metadata["dt"]))


def _targets():
    """(layer, owner, attribute, work counter) for every wrapped name."""
    from deltareg import bessel, elliptic, moments, reports, spectral
    from deltareg.kernels import RegularizedDelta
    from deltareg.profiles import RadialProfile

    return [
        (RUN_STUDY, reports, "run_study", _none),
        ("quadrature.weak_star", reports, "weak_star_error", _none),
        ("elliptic.solve_1d", elliptic, "solve_regularized_1d", _profile_nodes),
        ("elliptic.solve_2d", elliptic, "solve_regularized_2d_radial", _profile_nodes),
        ("elliptic.sobolev", elliptic, "weighted_sobolev_error", _none),
        ("elliptic.exact", elliptic, "exact_profile_1d", _none),
        ("elliptic.exact", elliptic, "exact_profile_2d", _none),
        ("elliptic.pointwise_error", elliptic, "pointwise_error", _none),
        ("bessel", bessel, "j0", _points),
        ("bessel", bessel, "y0", _points),
        ("bessel", bessel, "j1", _points),
        ("bessel", bessel, "y1", _points),
        ("kernels.eval", RegularizedDelta, "eval", _kernel_points),
        ("kernels.eval", RegularizedDelta, "__call__", _kernel_points),
        ("profiles.eval", RadialProfile, "eval", _points),
        ("spectral.advect", spectral, "advect_leapfrog", lambda a, k, r: r.n_steps),
        ("spectral.kdv", spectral, "kdv_solve", _kdv_steps),
        ("moments.solve", moments, "solve_moment_problem", _none),
    ]


class _ThreadState:
    def __init__(self):
        self.stack = []  # (layer, span id) of the open spans, innermost last
        self.totals = {}  # layer -> [calls, seconds, work]
        self.spans = []  # (layer, span id, parent id, thread id, start, end)


class Tracer:
    """Install with :meth:`install`, run one pass, :meth:`uninstall`, then read."""

    def __init__(self):
        self._local = threading.local()
        self._states = []  # every thread's state, since pool threads die with their pool
        self._ids = itertools.count(1)
        self._installed = []  # (owner, attribute, original)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def _call(self, layer, fn, work, args, kwargs):
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else (None, None)
        if parent[0] == layer:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        stack.append((layer, span_id))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        totals = state.totals.setdefault(layer, [0, 0.0, 0])
        totals[0] += 1
        totals[1] += end - start
        totals[2] += work(args, kwargs, result)
        if layer in _STRUCTURAL or parent[0] in _STRUCTURAL:
            state.spans.append((layer, span_id, parent[1], threading.get_ident(), start, end))
        return result

    def _wrap(self, layer, fn, work):
        def wrapper(*args, **kwargs):
            return self._call(layer, fn, work, args, kwargs)

        return wrapper

    def _wrap_map_rows(self, map_rows):
        def wrapper(fn, items, *args, **kwargs):
            caller = self._state().stack
            parent = caller[-1] if caller else (None, None)

            def row(item):
                stack = self._state().stack
                stack.append(parent)
                try:
                    return self._call(ROW, fn, _none, (item,), {})
                finally:
                    stack.pop()

            return map_rows(row, items, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        from deltareg import reports

        for layer, owner, attr, work in _targets():
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, work))
        original = vars(reports)["_map_rows"]
        self._installed.append((reports, "_map_rows", original))
        reports._map_rows = self._wrap_map_rows(original)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """layer -> (calls, seconds, work), summed over threads."""
        out = {}
        for state in self._states:
            for layer, (calls, seconds, work) in state.totals.items():
                c, s, w = out.get(layer, (0, 0.0, 0))
                out[layer] = (c + calls, s + seconds, w + work)
        return out

    def spans(self) -> list:
        return sorted((s for state in self._states for s in state.spans),
                      key=lambda s: s[4])

    def study_times(self) -> tuple[float, float, float]:
        """(run_study seconds, its self seconds, summed seconds of its direct children).

        Self time is the span minus the union of its children's intervals, which
        may run on several threads at once.
        """
        spans = self.spans()
        children = {}
        for layer, span_id, parent, _, start, end in spans:
            children.setdefault(parent, []).append((start, end))
        total = own = child_sum = 0.0
        for layer, span_id, _, _, start, end in spans:
            if layer != RUN_STUDY:
                continue
            total += end - start
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(span_id, [])):
                child_sum += hi - lo
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            own += (end - start) - covered
        return total, own, child_sum
