"""Per-layer spans recorded from outside nmshrink.

Each public function is wrapped at every name its callers look it up by:
``estimators`` binds ``delta_hb``/``delta_nu`` at import, ``risklab`` binds
``nm_sample``, ``make_rng`` and ``sample_counts``, ``cli`` binds
``read_counts_csv``, ``log_kernel``, ``compare`` and ``run_posterior``.
Spans (name, start, end, parent) stay in memory until the run writes them.
Gibbs work is recorded per ``run_posterior`` span with the iteration count of
its ``ChainConfig``; a span per step would distort a ~50 us step.
"""

from __future__ import annotations

import functools
from time import perf_counter

# Layer name -> (module, attribute or dict key, [container attribute]) sites.
# A site missing from the program being measured is skipped, so the layer
# then reports zero calls instead of breaking the run.
LAYERS = {
    "kernel.log_kernel": [("kernel", "log_kernel"), ("cli", "log_kernel")],
    "kernel.delta_hb": [("kernel", "delta_hb"), ("estimators", "delta_hb")],
    "kernel.delta_nu": [("kernel", "delta_nu"), ("estimators", "delta_nu")],
    "estimators.hb": [("estimators", "hb")],
    "estimators.hb_posterior_mean": [("estimators", "hb_posterior_mean")],
    "estimators.closed_form": [
        ("estimators", "umvu"),
        ("estimators", "eb"),
        ("estimators", "eb0"),
        ("estimators", "dirichlet_posterior_mean"),
    ],
    "risklab.sample_counts": [("risklab", "sample_counts")],
    "model.nm_sample": [("model", "nm_sample"), ("risklab", "nm_sample")],
    "model.make_rng": [
        ("model", "make_rng"),
        ("risklab", "make_rng"),
        ("gibbs", "make_rng"),
    ],
    "risklab.loss": [
        ("risklab", "loss_ss"),
        ("risklab", "loss_kl"),
        ("risklab", "ss", "_LOSSES"),
        ("risklab", "kl", "_LOSSES"),
    ],
    "risklab.compare": [("risklab", "compare"), ("cli", "compare")],
    "gibbs.run_posterior": [("gibbs", "run_posterior"), ("cli", "run_posterior")],
    "cli.main": [("cli", "main")],
    "model.read_counts_csv": [
        ("model", "read_counts_csv"),
        ("cli", "read_counts_csv"),
    ],
    "audit.dominance_table": [("audit", "dominance_table")],
}

KERNEL_LAYERS = ("kernel.log_kernel", "kernel.delta_hb", "kernel.delta_nu")


def _chain_iterations(args, kwargs) -> int:
    """Iterations of a run_posterior(x, r, prior, cfg) call, from its config."""
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    return int(cfg.n_iter)


class Tracer:
    """Installs span-recording wrappers and summarises spans per pass."""

    def __init__(self, modules: dict):
        self.modules = modules
        # Each span is [name, start, end, parent index, failed, attribute].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        attribute = _chain_iterations if name == "gibbs.run_posterior" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), 0.0, parent, False, None]
            if attribute is not None:
                span[5] = attribute(args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        wrapped = {}
        for name, sites in LAYERS.items():
            for site in sites:
                module = self.modules[site[0]]
                if len(site) == 3:
                    holder = getattr(module, site[2], None)
                    if not isinstance(holder, dict) or site[1] not in holder:
                        continue
                    original = holder[site[1]]
                else:
                    holder = module
                    if not hasattr(module, site[1]):
                        continue
                    original = getattr(module, site[1])
                # One wrapper per function object, so a function bound under
                # several names still opens one span per call.
                key = (name, id(original))
                if key not in wrapped:
                    wrapped[key] = self._wrap(name, original)
                self._saved.append((holder, site[1], original))
                if isinstance(holder, dict):
                    holder[site[1]] = wrapped[key]
                else:
                    setattr(holder, site[1], wrapped[key])

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._saved.clear()

    def summarise(self, first: int, last: int) -> dict:
        """Per-layer calls, busy, self and error counts of spans[first:last]."""
        child = {}
        for i in range(first, last):
            _, start, end, parent, _, _ = self.spans[i]
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "attr": 0}
            for name in LAYERS
        }
        for i in range(first, last):
            name, start, end, _, failed, attr = self.spans[i]
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child.get(i, 0.0)
            row["errors"] += int(failed)
            row["attr"] += attr or 0
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "failed", "attr"],
            "spans": self.spans,
        }
