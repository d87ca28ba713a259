"""
Outside-in layer tracing of one reclab CLI invocation.

Run as a script, ``python3 bench/tracer.py SPANS.json -- <reclab arguments>``
imports reclab, wraps the public functions its layers call into each other,
runs ``reclab.cli.main`` and writes the recorded spans to SPANS.json.
Nothing inside ``src/`` changes: the wrappers replace module attributes and
class methods in this process only.

A span is (name, start, end, parent, attrs).  ``parent`` is the index of the
enclosing span (-1 for the root) and ``attrs`` holds the work counts read
off the call's arguments and result.  The spans of one invocation share a
run id, stay in memory, and are written when the invocation ends.  The
parent stack assumes one thread, which holds for the single-threaded
commands the benchmark runs.

``layer_metrics`` turns a span file into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children; a
layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        """fn, recording a span per call; counts(arguments by name, result) -> attrs."""
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts({**defaults, **dict(zip(names, args)), **kwargs}, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# work counts read at the layer boundaries
# ---------------------------------------------------------------------------


def _law_digest(dist) -> str:
    payload = repr((dist.masses, dist.tail_mass)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _exact_dp_counts(a, dist):
    """DP steps and cells by the engine's budget formula."""
    from reclab.gibbs import GibbsSystem
    from reclab.symbolic import as_word

    tw = as_word(a["target"]).symbols
    n, length, bins = len(tw), a["horizon"] + len(tw), a["r_max"] + 2
    model = a["model"]
    if isinstance(model, GibbsSystem):
        width = len(model.states) * model.transitions.size
    else:
        width = len(set(tw)) + 1
    return {
        "key": f"{tw}|{a['horizon']}",
        "law": _law_digest(dist),
        "steps": length,
        "cells": length * n * width * bins,
    }


def _monte_carlo_counts(a, dist):
    return {"trials": a["trials"], "windows": a["trials"] * a["horizon"]}


def _sample_counts(a, words):
    return {"symbols": a["trials"] * a["length"]}


def _normalizer_counts(a, g):
    return {"u": float(a["u"])}


def _pmf_table_counts(a, table):
    params = a["params"]
    return {
        "key": repr((params.t, params.p, a["r_max"], a["tail_tol"])),
        "entries": len(table.masses),
    }


def _quenched_counts(a, results):
    return {"rows": sum(len(res.rows) for res in results)}


def _annealed_counts(a, rows):
    return {"rows": len(rows)}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the CLI commands cross."""
    from reclab import cli, experiments, gibbs, models
    from reclab import polya_aeppli as pa

    w = tracer.wrap
    cli.load_config = w("cli.load_config", cli.load_config)
    cli.run_quenched = w("experiments.run_quenched", cli.run_quenched, _quenched_counts)
    cli.run_annealed = w("experiments.run_annealed", cli.run_annealed, _annealed_counts)
    experiments.tv_distance = w("experiments.tv_distance", experiments.tv_distance)
    experiments.exact_count_distribution = w(
        "returns.exact_dp", experiments.exact_count_distribution, _exact_dp_counts
    )
    experiments.monte_carlo_count_distribution = w(
        "returns.monte_carlo", experiments.monte_carlo_count_distribution,
        _monte_carlo_counts,
    )
    # experiments imported the table builder by name, cli reaches it through
    # the module; both routes must see the wrapper.
    pa_pmf_table = w("polya_aeppli.pmf_table", pa.pa_pmf_table, _pmf_table_counts)
    experiments.pa_pmf_table = pa.pa_pmf_table = pa_pmf_table
    for cls in (models._ProductModelBase, models.TwoElementModel, models.CountableModel):
        for method, counts in (("sample_words", _sample_counts),
                               ("symbol_weight_matrix", None),
                               ("draw_environment", None)):
            if method in vars(cls):
                setattr(cls, method, w(f"models.{method}", vars(cls)[method], counts))
    models.CountableModel.normalizer = w(
        "models.normalizer", models.CountableModel.normalizer, _normalizer_counts
    )
    gibbs.GibbsSystem.__init__ = w("gibbs.system_build", gibbs.GibbsSystem.__init__)
    gibbs.GibbsSystem.chain_tables = w("gibbs.chain_tables", gibbs.GibbsSystem.chain_tables)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <reclab arguments>", file=sys.stderr)
        return 2
    from reclab import cli

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(argv[2:])
    tracer.dump(argv[0])
    return code


# ---------------------------------------------------------------------------
# span file -> per-layer metrics
# ---------------------------------------------------------------------------

# The layers whose self time should account for nearly all in-process time.
WORK_LAYERS = ("returns", "models", "polya_aeppli", "gibbs")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _repeat_ratio(attrs: list[dict], value: str | None) -> float:
    """Share of calls whose (key, value) equals an earlier call's."""
    seen = set()
    repeats = 0
    for a in attrs:
        item = (a["key"], a[value]) if value else a["key"]
        repeats += item in seen
        seen.add(item)
    return _ratio(repeats, len(attrs))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times (s) and work counts of one traced invocation."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = defaultdict(float)
    attrs = defaultdict(list)
    for i, (name, start, end, parent, a) in enumerate(spans):
        own = (end - start) - child_time[i]
        total[name] += end - start
        self_time[name] += own
        layer_self[name.split(".")[0]] += own
        if a is not None:
            attrs[name].append(a)

    def summed(name: str, field: str) -> int:
        return sum(a[field] for a in attrs[name])

    dp_cells = summed("returns.exact_dp", "cells")
    symbols = summed("models.sample_words", "symbols")
    entries = summed("polya_aeppli.pmf_table", "entries")
    norm_calls = len(attrs["models.normalizer"])
    distinct_u = len({a["u"] for a in attrs["models.normalizer"]})
    in_process = total["cli.main"]
    experiment_spans = ("experiments.run_quenched", "experiments.run_annealed",
                        "experiments.tv_distance")
    return {
        "returns.exact_dp_s": total["returns.exact_dp"],
        "returns.exact_dp_self_s": self_time["returns.exact_dp"],
        "returns.exact_dp_calls": len(attrs["returns.exact_dp"]),
        "returns.dp_steps": summed("returns.exact_dp", "steps"),
        "returns.dp_cells": dp_cells,
        "returns.dp_cells_per_s": _ratio(dp_cells, self_time["returns.exact_dp"]),
        "returns.dp_repeat_ratio": _repeat_ratio(attrs["returns.exact_dp"], "law"),
        "returns.monte_carlo_s": total["returns.monte_carlo"],
        "returns.mc_self_s": self_time["returns.monte_carlo"],
        "returns.mc_trials": summed("returns.monte_carlo", "trials"),
        "returns.mc_window_checks": summed("returns.monte_carlo", "windows"),
        "returns.self_s": layer_self["returns"],
        "models.sample_words_s": total["models.sample_words"],
        "models.symbols_sampled": symbols,
        "models.symbols_per_s": _ratio(symbols, total["models.sample_words"]),
        "models.symbol_weight_matrix_s": total["models.symbol_weight_matrix"],
        "models.draw_environment_s": total["models.draw_environment"],
        "models.normalizer_s": total["models.normalizer"],
        "models.normalizer_calls": norm_calls,
        "models.normalizer_reuse_ratio": 1.0 - _ratio(distinct_u, norm_calls) if norm_calls else 0.0,
        "models.self_s": layer_self["models"],
        "polya_aeppli.pmf_table_s": total["polya_aeppli.pmf_table"],
        "polya_aeppli.pmf_table_calls": len(attrs["polya_aeppli.pmf_table"]),
        "polya_aeppli.table_entries": entries,
        "polya_aeppli.entries_per_s": _ratio(entries, total["polya_aeppli.pmf_table"]),
        "polya_aeppli.table_repeat_ratio": _repeat_ratio(attrs["polya_aeppli.pmf_table"], None),
        "polya_aeppli.self_s": layer_self["polya_aeppli"],
        "gibbs.system_build_s": total["gibbs.system_build"],
        "gibbs.chain_tables_s": total["gibbs.chain_tables"],
        "gibbs.self_s": layer_self["gibbs"],
        "experiments.run_quenched_s": total["experiments.run_quenched"],
        "experiments.run_annealed_s": total["experiments.run_annealed"],
        "experiments.self_s": sum(self_time[s] for s in experiment_spans),
        "experiments.tv_s": total["experiments.tv_distance"],
        "experiments.rows": summed("experiments.run_quenched", "rows")
        + summed("experiments.run_annealed", "rows"),
        "cli.load_config_s": total["cli.load_config"],
        "cli.self_s": self_time["cli.main"],
        "bench.in_process_s": in_process,
        "bench.layer_coverage_frac": _ratio(
            sum(layer_self[layer] for layer in WORK_LAYERS), in_process
        ),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
