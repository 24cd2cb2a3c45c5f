"""Span tracer installed from outside the package, and the traced-command child.

Run as a script, this replays heavytail CLI commands in-process with spans
on the public functions and methods that one heavytail module calls in
another, then writes the spans and counters as JSON:

    python3 bench/tracer.py OUT.json -- verify --config ar1_scalar ... [-- <next argv>]

Each ``--`` starts one ``heavytail.cli.main(argv)`` call; all calls share one
interpreter.  The exit code is the last nonzero CLI return code, else 0.

Two kinds of boundary exist.  A *span* boundary records one span per call
(name, thread, start, end, parent).  A *hot* boundary (norms, operator
applications, random draws) is called up to millions of times per command,
so its calls are only counted and timed into per-thread totals; each one
still charges its duration to the enclosing frame, so self times stay exact.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "hot", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.hot = {}
        self.span_id = span_id


class _ThreadState:
    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.span_stack = []
        self.spans = []
        self.hot = {}  # name -> [calls, self_s, outermost_total_s]
        self.counts = {}
        self.sample_depth = 0  # open spectral.sample spans on this thread


class Tracer:
    """Holds every thread's spans and counters until ``dump``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count()
        self.mins = {}
        self.main_tid = threading.get_ident()

    def state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def count(self, st, key, value):
        st.counts[key] = st.counts.get(key, 0) + value

    def record_min(self, key, value):
        with self._lock:
            self.mins[key] = min(self.mins.get(key, value), value)

    def wrap(self, fn, name, hot=False, post=None):
        """Wrap ``fn`` in a span (or hot counter) named ``name``.

        ``post(tracer, state, args, kwargs, result, outermost)`` records
        counters after the clock has stopped for this call.
        """
        tracer = self

        if hot:

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                st = tracer.state()
                stack = st.stack
                frame = _Frame(name, _clock(), None)
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = _clock() - frame.start
                    stack.pop()
                    own = dur - frame.child
                    parent = stack[-1] if stack else None
                    outermost = parent is None or parent.name != name
                    agg = st.hot.get(name)
                    if agg is None:
                        agg = st.hot[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += own
                    if outermost:
                        agg[2] += dur
                    if parent is not None:
                        parent.child += dur
                        phot = parent.hot
                        phot[name] = phot.get(name, 0.0) + own
                        for k, v in frame.hot.items():
                            phot[k] = phot.get(k, 0.0) + v
                if post is not None:
                    post(tracer, st, args, kwargs, result, outermost)
                return result

            return hot_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            parent_id = st.span_stack[-1] if st.span_stack else None
            frame = _Frame(name, _clock(), next(tracer._ids))
            stack.append(frame)
            st.span_stack.append(frame.span_id)
            is_sample = name == "spectral.sample"
            if is_sample:
                st.sample_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                dur = end - frame.start
                stack.pop()
                st.span_stack.pop()
                if is_sample:
                    st.sample_depth -= 1
                st.spans.append(
                    (frame.span_id, name, st.tid, frame.start, end, parent_id,
                     dur - frame.child, frame.hot)
                )
                if stack:
                    stack[-1].child += dur
            if post is not None:
                outermost = not any(f.name == name for f in stack)
                post(tracer, st, args, kwargs, result, outermost)
            return result

        return span_wrapper

    def dump(self):
        spans, hot, counts = [], {}, {}
        for st in self._states:
            spans.extend(
                {"id": s[0], "name": s[1], "tid": s[2], "start": s[3], "end": s[4],
                 "parent": s[5], "self": s[6], "hot": s[7]}
                for s in st.spans
            )
            for k, (calls, own, total) in st.hot.items():
                agg = hot.setdefault(k, {"calls": 0, "self": 0.0, "total": 0.0})
                agg["calls"] += calls
                agg["self"] += own
                agg["total"] += total
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v
        return {"main_tid": self.main_tid, "spans": spans, "hot": hot,
                "counts": counts, "mins": self.mins}


# ---------------------------------------------------------------------------
# counters recorded at the boundaries


def _nbytes(*arrays):
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _post_norm(tr, st, args, kwargs, result, outermost):
    tr.count(st, "spaces.norm_bytes", _nbytes(args[1], result))


def _post_apply(tr, st, args, kwargs, result, outermost):
    tr.count(st, "spaces.apply_bytes", _nbytes(args[1], result))


def _post_bound(tr, st, args, kwargs, result, outermost):
    if not result.exact:
        tr.count(st, "spaces.bound_inexact", 1)


def _post_draws(tr, st, args, kwargs, result, outermost):
    if outermost:
        tr.count(st, "rv.draws", len(result))
        if st.sample_depth:
            tr.count(st, "spectral.angle_draws", len(result))


def _post_windows(tr, st, args, kwargs, result, outermost):
    if outermost:
        tr.count(st, "spectral.windows", len(result))


def _post_sampler(tr, st, args, kwargs, result, outermost):
    rates = getattr(result, "acceptance_rates", None)
    if rates is not None:
        values = rates().values()
        if values:
            tr.record_min("spectral.accept_pred", min(values))


def _post_bigjump(tr, st, args, kwargs, result, outermost):
    fam, n_mc = args[0], args[3]
    tr.count(st, "estimate.bigjump_draws", int(n_mc) * len(fam.ops))


def _post_bootstrap(tr, st, args, kwargs, result, outermost):
    tr.count(st, "estimate.boot_reps", int(args[3]))


def _post_path(tr, st, args, kwargs, result, outermost):
    tr.count(st, "simulate.rows", len(result))


def _post_csv(tr, st, args, kwargs, result, outermost):
    tr.count(st, "simulate.csv_bytes", args[1].tell())


def install(tracer):
    """Wrap the module-boundary functions and methods of heavytail in place.

    A function is rebound in every heavytail module that holds it, so calls
    through ``from .x import f`` names are traced too; a method is rebound
    on each class that defines it.
    """
    import heavytail
    from heavytail import (cli, config, estimate, rv, simulate, spaces, spectral,
                           summaries, verify, windows)

    modules = [heavytail, cli, config, estimate, rv, simulate, spaces, spectral,
               summaries, verify, windows]

    def function(module, fname, name, hot=False, post=None):
        orig = getattr(module, fname)
        wrapped = tracer.wrap(orig, name, hot, post)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)

    def method(cls, mname, name, hot=False, post=None):
        setattr(cls, mname, tracer.wrap(cls.__dict__[mname], name, hot, post))

    def classes(module, base):
        return [c for c in vars(module).values()
                if isinstance(c, type) and issubclass(c, base) and c.__module__ == module.__name__]

    # config
    function(config, "load_config", "config.load")
    for mname in ("space", "innovation_space", "innovation", "family", "path_config",
                  "simulate", "closed_norm_extremal_index"):
        method(config.ModelConfig, mname, "config.build")
    method(config.ModelConfig, "window_sampler", "config.build", post=_post_sampler)

    # spaces (windows.WindowBatch norms reach NormSpec.norm)
    method(spaces.NormSpec, "norm", "spaces.norm", hot=True, post=_post_norm)
    for cls in classes(spaces, spaces.Operator):
        if "apply" in cls.__dict__ and cls is not spaces.Operator:
            method(cls, "apply", "spaces.apply", hot=True, post=_post_apply)
    for fname in ("op_norm_bound", "restricted_norm_bound"):
        function(spaces, fname, "spaces.bound", post=_post_bound)

    # rv
    function(rv, "pareto_sample", "rv.sample", hot=True)
    for cls in classes(rv, rv.SpectralSampler):
        if "sample" in cls.__dict__ and cls is not rv.SpectralSampler:
            method(cls, "sample", "rv.sample", hot=True, post=_post_draws)
    method(rv.RegVarDist, "sample", "rv.sample", hot=True, post=_post_draws)
    method(rv.RegVarDist, "sample_exceedance", "rv.sample", hot=True, post=_post_draws)

    # spectral
    for fname in ("series_constants", "pushforward_constant"):
        function(spectral, fname, "spectral.constants")
    for cls in (spectral.LinearProcessSpectral, spectral.AR1Spectral,
                spectral.TransformedSpectral, spectral.PushforwardAngle):
        method(cls, "sample", "spectral.sample", post=_post_windows)
    for fname in ("time_change_rhs_samples", "time_change_rhs"):
        function(spectral, fname, "spectral.tc_rhs")
    for fname in ("limit_measure_samples", "limit_measure_mass"):
        function(spectral, fname, "spectral.limit")

    # summaries
    for fname in ("joint_survival_limit", "tail_dependence", "extremogram_limit",
                  "extremal_index", "ma_real_specials", "isometry_family_extremal_index",
                  "seq_identity_check"):
        function(summaries, fname, "summaries.stat")

    # estimate
    function(estimate, "big_jump_paired", "estimate.bigjump", post=_post_bigjump)
    function(estimate, "collect_exceedances", "estimate.exceed")
    function(estimate, "_block_bootstrap_se", "estimate.bootstrap", post=_post_bootstrap)
    for fname in ("empirical_spectral_stat", "empirical_tail_dependence",
                  "blocks_extremal_index", "hill_alpha", "threshold_sweep"):
        function(estimate, fname, "estimate.stat")

    # simulate
    for fname in ("simulate_linear", "simulate_ar1", "simulate_sequence_space"):
        function(simulate, fname, "simulate.path", post=_post_path)
    function(simulate, "write_path_csv", "simulate.csv", post=_post_csv)
    function(simulate, "read_path_csv", "simulate.csv")

    # verify: the suite table is shared by run_suite and the CLI
    for sname, fn in list(verify.SUITES.items()):
        verify.SUITES[sname] = tracer.wrap(fn, f"verify.suite.{sname}")
    function(verify, "run_suite", "verify.run")
    for fname in ("build_report", "report_json"):
        function(verify, fname, "verify.report")


def _split_argv(argv):
    """['OUT', '--', a, b, '--', c] -> ('OUT', [[a, b], [c]])."""
    out, rest = argv[0], argv[1:]
    groups = []
    for item in rest:
        if item == "--":
            groups.append([])
        else:
            groups[-1].append(item)
    return out, groups


def main(argv):
    out, commands = _split_argv(argv)
    tracer = Tracer()
    st = tracer.state()
    t0 = _clock()
    from heavytail import cli

    t1 = _clock()
    st.spans.append((next(tracer._ids), "cli.import", st.tid, t0, t1, None, t1 - t0, {}))
    install(tracer)
    run = tracer.wrap(cli.main, "cli.main")
    code = 0
    try:
        for args in commands:
            rc = run(args)
            code = rc or code
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
