"""Span tracing for the traced benchmark run.

The tracer replaces each layer's public functions in the namespaces where
their callers look them up (analytic holds its own references to g0, f1,
laguerre and assoc_laguerre1; observables and cli hold their own
converged_spectrum, and so on), so the program itself is not edited.  Every
call records one span: id, parent span id, name, start, end, whether it
raised, and up to two per-layer quantities (matrix dimension, polynomial
degree, doublings, ...).  Spans stay in memory until the run ends.

Thread pools are replaced by a subclass that hands the submitting span to
the worker thread, so work done by pool workers is parented to the span
that submitted it.  Self time is a span's duration minus the union of the
intervals its children cover, which handles children that overlap because
they ran on different threads.
"""

import array
import concurrent.futures
import itertools
import threading
import time

import numpy as np

FIELDS = ("span", "parent", "name", "start", "end", "raised", "x1", "x2")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.records = array.array("d")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def current(self) -> int:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else 0

    def wrapper(self, name, fn, measure=None, name_of_call=None):
        """A traced stand-in for fn.  measure(args, kwargs, result) gives
        (x1, x2); name_of_call(args, kwargs) may pick the span name per call."""
        ids = {}

        def nid(n):
            if n not in ids:
                ids[n] = len(self.names)
                self.names.append(n)
            return ids[n]

        default_id = nid(name)
        local, next_id, perf, extend = self._local, self._ids.__next__, time.perf_counter, self.records.extend

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [0]
            name_id = default_id if name_of_call is None else nid(name_of_call(args, kwargs))
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = perf()
                stack.pop()
                extend((sid, parent, name_id, t0, t1, 1.0, 0.0, 0.0))
                raise
            t1 = perf()
            stack.pop()
            x1, x2 = (0.0, 0.0) if measure is None else measure(args, kwargs, out)
            extend((sid, parent, name_id, t0, t1, 0.0, x1, x2))
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def pool_class(self):
        tracer = self

        class TracedThreadPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    saved = getattr(tracer._local, "stack", None)
                    tracer._local.stack = [parent]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.stack = saved if saved is not None else [0]

                return super().submit(task)

        return TracedThreadPool

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.records, dtype=float).reshape(-1, len(FIELDS)).copy()


def _vectors_requested(args, kwargs):
    return kwargs.get("want_vectors", args[2] if len(args) > 2 else False)


def install(tracer: Tracer):
    """Wrap every traced layer function where its callers look it up."""
    import rabistark.analytic as analytic
    import rabistark.cli as cli
    import rabistark.colimit as colimit
    import rabistark.eigen as eigen
    import rabistark.fockspace as fockspace
    import rabistark.observables as observables
    import rabistark.specialfn as specialfn

    def dim(args, kwargs, out):
        return float(args[0].dim if isinstance(args[0], fockspace.HamiltonianMatrix)
                     else len(args[0])), 0.0

    def doublings(args, kwargs, out):
        report = out[1]
        return float(len(report.history) - 1), float(report.final_cutoff)

    def degree(args, kwargs, out):
        return float(args[0]), 0.0

    def dense_dim(args, kwargs, out):
        return float(args[0].dim), 0.0

    solver = tracer.wrapper(
        "eigen.eigen_symmetric", eigen.eigen_symmetric, dim,
        name_of_call=lambda a, k: "eigen.vectors" if _vectors_requested(a, k)
        else "eigen.eigen_symmetric")
    wraps = [
        (solver, "eigen_symmetric", (eigen, observables, cli)),
        (tracer.wrapper("eigen.converged_spectrum", eigen.converged_spectrum, doublings),
         "converged_spectrum", (eigen, analytic, observables, cli)),
        (tracer.wrapper("fockspace.build_hamiltonian", fockspace.build_hamiltonian),
         "build_hamiltonian", (eigen, observables, cli)),
        (tracer.wrapper("analytic.solve_lambda", analytic.solve_lambda),
         "solve_lambda", (analytic, colimit)),
        (tracer.wrapper("analytic.solve_branch", analytic.solve_branch),
         "solve_branch", (analytic,)),
        (tracer.wrapper("analytic.jc_block", analytic.jc_block), "jc_block", (analytic,)),
        (tracer.wrapper("analytic.error_map", analytic.error_map), "error_map", (analytic, cli)),
        (tracer.wrapper("specialfn.g0", specialfn.g0), "g0", (analytic,)),
        (tracer.wrapper("specialfn.f1", specialfn.f1), "f1", (analytic,)),
        (tracer.wrapper("specialfn.laguerre", specialfn.laguerre, degree),
         "laguerre", (specialfn, analytic)),
        (tracer.wrapper("specialfn.assoc_laguerre1", specialfn.assoc_laguerre1, degree),
         "assoc_laguerre1", (specialfn, analytic)),
        (tracer.wrapper("observables.staircase_scan", observables.staircase_scan),
         "staircase_scan", (observables, cli)),
        (tracer.wrapper("observables.mean_photon_ground", observables.mean_photon_ground),
         "mean_photon_ground", (observables,)),
        (tracer.wrapper("observables.detect_level_crossings",
                        observables.detect_level_crossings),
         "detect_level_crossings", (observables,)),
        (tracer.wrapper("cli.main", cli.main), "main", (cli,)),
    ]
    for replacement, attr, owners in wraps:
        for owner in owners:
            tracer.patch(owner, attr, replacement)
    tracer.patch(fockspace.HamiltonianMatrix, "to_dense",
                 tracer.wrapper("fockspace.to_dense", fockspace.HamiltonianMatrix.to_dense,
                                dense_dim))
    pool = tracer.pool_class()
    tracer.patch(concurrent.futures, "ThreadPoolExecutor", pool)
    tracer.patch(cli, "ThreadPoolExecutor", pool)


def self_times(table: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals."""
    span, parent = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    start, end = table[:, 3], table[:, 4]
    row = np.zeros(span.max(initial=0) + 1, dtype=np.int64)
    row[span] = np.arange(len(table))
    covered = np.zeros(len(table))
    child = np.flatnonzero(parent > 0)
    order = child[np.lexsort((start[child], parent[child]))]
    p, s, e = parent[order], start[order], end[order]
    # children of one parent on one thread never overlap, so their durations
    # add; only parents whose children ran on several threads need the union
    overlapping = np.unique(p[1:][(p[1:] == p[:-1]) & (s[1:] < e[:-1])])
    plain = ~np.isin(p, overlapping)
    covered += np.bincount(row[p[plain]], weights=(e - s)[plain], minlength=len(table))
    for pid in overlapping:
        sel = p == pid
        total, reach = 0.0, -np.inf
        for a, b in zip(s[sel], e[sel]):
            if b > reach:
                total += b - max(a, reach)
                reach = b
        covered[row[pid]] = total
    return (end - start) - covered


def layer_metrics(table: np.ndarray, names: list[str]) -> dict[str, float]:
    """Per-layer counts and self times from one traced round."""
    ids = {n: i for i, n in enumerate(names)}
    name = table[:, 2].astype(np.int64)
    span, parent = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    raised, x1, x2 = table[:, 5] > 0, table[:, 6], table[:, 7]
    selfs = self_times(table)
    row = np.zeros(span.max(initial=0) + 1, dtype=np.int64)
    row[span] = np.arange(len(table))
    parent_name = np.where(parent > 0, name[row[parent]], -1)

    def of(*layer_names):
        return np.isin(name, [ids[n] for n in layer_names if n in ids])

    def under(mask, parent_layer):
        return mask & (parent_name == ids.get(parent_layer, -2))

    eig, vec = of("eigen.eigen_symmetric"), of("eigen.vectors")
    conv, dense = of("eigen.converged_spectrum"), of("fockspace.to_dense")
    lam, kernel = of("analytic.solve_lambda"), of("specialfn.g0", "specialfn.f1")
    lag = of("specialfn.laguerre", "specialfn.assoc_laguerre1")
    m = {
        "eigen.eigen_symmetric.calls": eig.sum(),
        "eigen.eigen_symmetric.self_s": selfs[eig].sum(),
        "eigen.eigen_symmetric.dim_sum": x1[eig].sum(),
        "eigen.eigen_symmetric.dim_max": x1[eig].max(initial=0.0),
        "eigen.vectors.calls": vec.sum(),
        "eigen.vectors.self_s": selfs[vec].sum(),
        "eigen.converged_spectrum.self_s": selfs[conv].sum(),
        "eigen.converged_spectrum.doublings": x1[conv].sum(),
        "eigen.converged_spectrum.final_cutoff_max": x2[conv].max(initial=0.0),
        "fockspace.build_hamiltonian.calls": of("fockspace.build_hamiltonian").sum(),
        "fockspace.build_hamiltonian.self_s": selfs[of("fockspace.build_hamiltonian")].sum(),
        "fockspace.to_dense.calls": dense.sum(),
        "fockspace.to_dense.bytes": (8.0 * x1[dense] ** 2).sum(),
        "analytic.solve_lambda.calls": lam.sum(),
        "analytic.solve_lambda.self_s": selfs[lam].sum(),
        "analytic.kernel_evals_per_lambda":
            under(kernel, "analytic.solve_lambda").sum() / max(lam.sum(), 1),
        "analytic.jc_block.calls": of("analytic.jc_block").sum(),
        "analytic.jc_block.self_s": selfs[of("analytic.jc_block")].sum(),
        "analytic.error_map.self_s": selfs[of("analytic.error_map")].sum(),
        "analytic.branch_failures": (of("analytic.solve_branch") & raised).sum(),
        "specialfn.kernel.calls": kernel.sum(),
        "specialfn.laguerre.calls": lag.sum(),
        "specialfn.recurrence_steps": x1[lag].sum(),
        "specialfn.self_s": selfs[kernel | lag].sum(),
        "observables.staircase_scan.self_s": selfs[of("observables.staircase_scan")].sum(),
        "observables.refine_solves": of("observables.mean_photon_ground").sum(),
        "observables.detect_level_crossings.self_s":
            selfs[of("observables.detect_level_crossings")].sum(),
        "observables.crossing_gap_solves":
            under(eig, "observables.detect_level_crossings").sum(),
        "cli.main.self_s": selfs[of("cli.main")].sum(),
    }
    return {k: float(v) for k, v in m.items()}
