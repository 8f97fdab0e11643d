"""In-process tracing of `swansim.cli.main` by layer.

The library is not edited: the functions `swansim.cli` looks up by name are
rebound on the imported module to wrappers that record a span per call.
Layers are the package's modules; `model` and `errors` only build objects and
stay inside their caller's span, and `_kernels` is reached only through
`ode.integrate` and `gaussian.riccati_direct`, so it is measured inside those.

A span is (id, parent id, invocation id, name, start ns, end ns).  Spans stay
in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

# name looked up by swansim.cli -> layer (module) it belongs to
WRAPPED = {
    "integrate": "ode",
    "closed_series": "closed_form",
    "metric_eigen": "closed_form",
    "classify_metric": "geometry",
    "region_grid": "geometry",
    "evolve_b": "gaussian",
    "evolve_state": "gaussian",
    "gaussian_norm": "gaussian",
    "mapped_dynamics": "gaussian",
    "metric_from_b": "gaussian",
    "project_expectations": "gaussian",
    "riccati_direct": "gaussian",
}
MAIN = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._invocation: str | None = None

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self._invocation, name, time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][5] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        span_name = f"{WRAPPED[name]}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.counts[span_name] += 1
            if name == "integrate":
                diverged = result.divergence_time is not None
                # a truncated run computed one step past its last kept row
                self.counts["ode.steps"] += len(result.times) - (0 if diverged else 1)
                self.counts["ode.diverged"] += diverged
            elif name == "region_grid":
                self.counts["geometry.points"] += result.size
            return result

        return wrapper

    @contextmanager
    def installed(self, cli_module):
        """Rebind the wrapped names on swansim.cli for the duration of the block."""
        originals = {name: getattr(cli_module, name) for name in WRAPPED}
        try:
            for name, fn in originals.items():
                setattr(cli_module, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(cli_module, name, fn)

    def call(self, invocation: str, fn, *args):
        """Run fn(*args) as the root span of one invocation."""
        self._invocation = invocation
        sid = self._open(MAIN)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self._invocation = None

    def self_times(self) -> Counter:
        """Seconds of self time per span name: duration minus the children's."""
        own = [(s[5] - s[4]) for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        out: Counter = Counter()
        for s, t in zip(self.spans, own):
            out[s[3]] += t * 1e-9
        return out

    def root_seconds(self) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[1] is None) * 1e-9

    def layer_metrics(self, rows: int, out_bytes: int) -> dict[str, float]:
        st = self.self_times()
        c = self.counts

        def layer(prefix: str) -> float:
            return sum(v for k, v in st.items() if k.startswith(prefix + "."))

        integrate_s = st["ode.integrate"]
        region_s = st["geometry.region_grid"]
        cli_s = st[MAIN]
        return {
            "cli.self_s": cli_s,
            "cli.rows": rows,
            "cli.bytes": out_bytes,
            "cli.us_per_row": cli_s / rows * 1e6 if rows else 0.0,
            "ode.integrate_s": integrate_s,
            "ode.calls": c["ode.integrate"],
            "ode.steps": c["ode.steps"],
            "ode.ns_per_step": integrate_s / c["ode.steps"] * 1e9 if c["ode.steps"] else 0.0,
            "ode.diverged": c["ode.diverged"],
            "closed_form.s": layer("closed_form"),
            "closed_form.metric_eigen_calls": c["closed_form.metric_eigen"],
            "gaussian.s": layer("gaussian"),
            "gaussian.riccati_s": st["gaussian.riccati_direct"],
            "gaussian.calls": sum(v for k, v in c.items() if k.startswith("gaussian.")),
            "geometry.s": layer("geometry"),
            "geometry.region_grid_s": region_s,
            "geometry.points": c["geometry.points"],
            "geometry.ns_per_point": region_s / c["geometry.points"] * 1e9 if c["geometry.points"] else 0.0,
        }

    def write(self, fh):
        for sid, parent, inv, name, start, end in self.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "invocation": inv, "name": name,
                                 "start_ns": start, "end_ns": end}) + "\n")
