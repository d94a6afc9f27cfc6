"""Span tracer that measures chanpolar's layers from outside the package.

Every public function of the eight layer modules is replaced, in every
package namespace that binds it, by a wrapper that records one span
(function, start, end, parent span, unit).  Rebinding the module
attributes also catches calls made inside a module (module globals are the
module's ``__dict__``) and calls through names imported with
``from .polar import channel_polar``.  Spans stay in memory until
:meth:`Tracer.save`; a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

LAYERS = ("matcore", "channel", "metrics", "polar", "bounds", "genlib", "suites", "cli")

# Theorem evaluators, the numbers in the metric names bounds.thm<N>.self_s.
THEOREMS = {
    "bounds.thm1_uni_evo": "thm1",
    "bounds.thm2_fid_evo": "thm2",
    "bounds.thm4_decoherent_features": "thm4",
    "bounds.thm5_unitarity_decay": "thm5",
    "bounds.thm6_fidelity_decay": "thm6",
    "bounds.thm7_max_correction": "thm7",
    "bounds.thm8_equable_composition": "thm8",
    "bounds.thm9_max_correction_multi": "thm9",
}
SAMPLERS = ("suites.element_for_infidelity", "suites.sample_noncatastrophic")
# Everything the verification suites call to check a bound, as opposed to
# the samplers that build the channels it is checked on.
EVALUATORS = tuple(THEOREMS) + (
    "metrics.lk_gap_bounds",
    "matcore.check_trace_inequality",
    "matcore.check_vn_inequality",
    "matcore.check_norm_inequality",
    "bounds.lindblad_structure",
    "bounds.lindblad_superop",
    "bounds.canonicalize_lindblad",
)
MC = ("metrics.haar_fidelity_mc", "metrics.haar_unitarity_mc")


# Per-function observations taken from the result and kept as the span's
# ``extra`` value.
POST = {
    "bounds.optimize_unitary_correction": lambda r: (r.evaluations, r.improvement > 0),
    "bounds.coherent_envelope": lambda r: r.clipped,
    "metrics.haar_fidelity_mc": lambda r: r.n_samples,
    "metrics.haar_unitarity_mc": lambda r: r.n_samples,
    "suites.composition_sweep": len,
}


def public_functions(package) -> dict:
    """{function object: "layer.name"} for the layers' public functions."""
    out = {}
    for layer in LAYERS:
        mod = getattr(package, layer)
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[obj] = f"{layer}.{name}"
    return out


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, object] = {}
        self.current_unit = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        targets = public_functions(self.package)
        wrappers = {}
        for fn, name in targets.items():
            self.names.append(name)
            wrappers[fn] = self._wrap(fn, len(self.names) - 1, POST.get(name))
        namespaces = [self.package] + [getattr(self.package, l) for l in LAYERS]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((ns, attr, val))
                    setattr(ns, attr, wrappers[val])

    def uninstall(self):
        for ns, attr, val in reversed(self._patches):
            setattr(ns, attr, val)
        self._patches.clear()

    def _wrap(self, fn, fid, post):
        stack = self._stack
        fids, parents, units = self.fid, self.parent, self.unit
        starts, ends, extra = self.start, self.end, self.extra
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            units.append(tracer.current_unit)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if post is not None:
                extra[idx] = post(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- output -------------------------------------------------------------

    def save(self, path):
        """Write every span (names, function id, start, end, parent, unit)."""
        np.savez(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            unit=np.frombuffer(self.unit, dtype=np.int32),
        )

    def layer_metrics(self) -> dict:
        """Per-layer metrics (name -> value) over every recorded span."""
        n = len(self.fid)
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        n_names = len(self.names)
        calls = np.bincount(fid, minlength=n_names)
        self_s = np.bincount(fid, weights=self_t, minlength=n_names)
        ids = {name: i for i, name in enumerate(self.names)}

        def idx_of(names):
            return [ids[x] for x in names if x in ids]

        def spans_of(names):
            return np.flatnonzero(np.isin(fid, idx_of(names)))

        def outermost(names):
            """Spans of ``names`` that have no ancestor among ``names``."""
            wanted = set(idx_of(names))
            out = []
            for i in spans_of(names):
                p = parent[i]
                while p >= 0 and fid[p] not in wanted:
                    p = parent[p]
                if p < 0:
                    out.append(i)
            return np.array(out, dtype=np.int64)

        def c(name):
            return int(calls[ids[name]]) if name in ids else 0

        def s(name):
            return float(self_s[ids[name]]) if name in ids else 0.0

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        def extras(name):
            return [self.extra[i] for i in spans_of([name])]

        genlib_spans = np.isin(fid, [i for i, nm in enumerate(self.names)
                                     if nm.startswith("genlib.")])

        # A cached call does no work: canonical calls nothing traced, and
        # channel_polar does not reach matcore.polar_decompose.
        n_children = np.bincount(parent[has_parent], minlength=n)
        canon = spans_of(["channel.canonical"])
        canon_miss = canon[n_children[canon] > 0]
        choi = spans_of(["channel.from_choi"])
        choi_under_canon = int(np.isin(parent[choi], canon).sum())
        pol = spans_of(["polar.channel_polar"])
        pol_miss = np.intersect1d(parent[spans_of(["matcore.polar_decompose"])], pol)

        opt = extras("bounds.optimize_unitary_correction")
        env = extras("bounds.coherent_envelope")
        mc_samples = sum(extras(MC[0])) + sum(extras(MC[1]))
        mc_incl = float(dur[spans_of(MC)].sum())
        rows = sum(extras("suites.composition_sweep"))
        sweep_incl = float(dur[spans_of(["suites.composition_sweep"])].sum())

        eval_top = outermost(tuple(THEOREMS))
        eval_self = sum(s(nm) for nm in THEOREMS)
        eval_total = float(dur[eval_top].sum())

        efi = spans_of(["suites.element_for_infidelity"])
        gen_under_efi = int((genlib_spans & np.isin(parent, efi)).sum())

        samplers = outermost(SAMPLERS)
        evaluators = outermost(EVALUATORS)

        m = {
            "matcore.hermitian_eig.calls": c("matcore.hermitian_eig"),
            "matcore.hermitian_eig.self_s": s("matcore.hermitian_eig"),
            "matcore.polar_decompose.calls": c("matcore.polar_decompose"),
            "matcore.polar_decompose.self_s": s("matcore.polar_decompose"),
            "channel.canonical.calls": c("channel.canonical"),
            "channel.canonical.self_s": s("channel.canonical"),
            "channel.canonical.cache_hit_ratio": ratio(canon.size - canon_miss.size, canon.size),
            "channel.from_choi.calls": c("channel.from_choi"),
            "channel.from_choi.self_s": s("channel.from_choi"),
            "channel.choi_path_ratio": ratio(choi_under_canon, canon_miss.size),
            "channel.compose.calls": c("channel.compose"),
            "channel.compose.self_s": s("channel.compose"),
            "channel.to_superop.self_s": s("channel.to_superop"),
            "metrics.phi.calls": c("metrics.phi"),
            "metrics.upsilon.calls": c("metrics.upsilon"),
            "metrics.report.self_s": s("metrics.report"),
            "metrics.mc.self_s": s(MC[0]) + s(MC[1]),
            "metrics.mc.samples_per_s": ratio(mc_samples, mc_incl),
            "polar.channel_polar.calls": c("polar.channel_polar"),
            "polar.channel_polar.self_s": s("polar.channel_polar"),
            "polar.channel_polar.cache_hit_ratio": ratio(pol.size - pol_miss.size, pol.size),
            "polar.equability.self_s": s("polar.equability"),
            "bounds.eval.self_s": eval_self,
            "bounds.eval.child_s": eval_total - eval_self,
        }
        for name, short in THEOREMS.items():
            m[f"bounds.{short}.self_s"] = s(name)
        m.update({
            "bounds.optimize_unitary_correction.calls": c("bounds.optimize_unitary_correction"),
            "bounds.optimize_unitary_correction.self_s": s("bounds.optimize_unitary_correction"),
            "bounds.optimize_unitary_correction.evals": sum(e for e, _ in opt),
            "bounds.optimize_unitary_correction.improved_ratio": ratio(
                sum(1 for _, imp in opt if imp), len(opt)
            ),
            "bounds.coherent_envelope.calls": c("bounds.coherent_envelope"),
            "bounds.coherent_envelope.self_s": s("bounds.coherent_envelope"),
            "bounds.coherent_envelope.clipped_ratio": ratio(sum(env), len(env)),
            "genlib.calls": int(genlib_spans.sum()),
            "genlib.self_s": float(self_t[genlib_spans].sum()),
            "suites.sampler.total_s": float(dur[samplers].sum()),
            "suites.evaluator.total_s": float(dur[evaluators].sum()),
            "suites.sampler.gen_per_element": ratio(gen_under_efi, efi.size),
            "suites.composition_sweep.self_s": s("suites.composition_sweep"),
            "suites.sweep.rows_per_s": ratio(rows, sweep_incl),
            "cli.self_s": s("cli.main"),
        })
        return m
