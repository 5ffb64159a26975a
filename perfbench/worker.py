"""One in-process pass over a workload, optionally traced.

Run as ``worker.py <spec.json> <result.json>`` in a fresh process with
``src`` on ``PYTHONPATH``.  The spec names the invocations, in order, and
whether to trace.  Each invocation runs through ``mqisim.cli.main(argv)``.

Tracing wraps, from outside the package, the functions each ``mqisim``
module imports from the next (and the few a module calls on itself), so
that nothing under ``src/`` changes.  Every wrapped call records a span
``(name, start, end, parent, invocation, attrs)``; spans and counts stay
in memory and are written to the result file when the pass ends.  A span
name is ``<layer>.<function>`` and the layer is the package module.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from collections import Counter


class Tracer:
    """Span and count recorder for one pass; single-threaded."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.invocation = None
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` recording a span ``name``; ``on_result(counts, args, result)``
        may add counts and return attributes for the span."""

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = [name, t0, t1, parent, self.invocation, None]
            if on_result is not None:
                self.spans[sid][5] = on_result(self.counts, args, result)
            return result

        return traced

    def patch(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` by its traced form, if the module has it."""
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, self.wrap(name, fn, on_result))


def _count_emit(counts, args, content):
    counts["cli.rows"] += len(args[1])
    counts["cli.bytes_out"] += len(content.encode())


def _count_wigner(counts, args, grid):
    counts["gaussian.points"] += int(grid.values.size)


def _count_spectrum(counts, args, table):
    counts["spectrum.steps"] += len(table)


def _count_bs_sector(counts, args, result):
    counts["fock.bs_sector_calls"] += 1


def _count_hypotheses(counts, args, pair):
    # Computed, not measured: the two dense hypothesis matrices plus, for the
    # entangled transmitter, the complex amplitude matrix of shape
    # dim x (noise_cutoff + 1)^2 that build_qi_hypotheses multiplies out.
    dim = pair.rho0.dim
    dense = pair.rho0.matrix.nbytes + pair.rho1.matrix.nbytes
    noise = pair.params.get("noise_cutoff")
    if noise is not None:
        dense += 16 * dim * (noise + 1) ** 2
    counts["illumination.hyp_dim"] += dim
    counts["illumination.dense_bytes"] += dense
    return {"dim": dim}


def _count_chernoff(counts, args, result):
    counts["illumination.q_evals"] += int(result.diagnostics["evaluations"])
    return {"dim": int(result.diagnostics["dim"])}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported ``mqisim`` package."""
    import mqisim.cli as cli
    import mqisim.fock as fock
    import mqisim.illumination as ill

    build_parser = cli.build_parser

    def parser_with_traced_parse():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = tracer.wrap("cli.parse", parser_with_traced_parse)
    tracer.patch(cli, "load_config", "cli.parse")
    tracer.patch(cli, "run_subcommand", "cli.run_subcommand")
    tracer.patch(cli, "emit_csv", "cli.emit", _count_emit)
    tracer.patch(cli, "emit_json", "cli.emit", _count_emit)

    tracer.patch(cli, "tmsv_covariance", "gaussian.tmsv_covariance")
    tracer.patch(cli, "slice_mass", "gaussian.slice_mass")
    tracer.patch(cli, "wigner_grid", "gaussian.wigner_grid", _count_wigner)
    tracer.patch(cli, "spectrum_sweep", "spectrum.spectrum_sweep", _count_spectrum)

    tracer.patch(cli, "build_qi_hypotheses", "illumination.build_qi_hypotheses",
                 _count_hypotheses)
    tracer.patch(cli, "build_classical_hypotheses", "illumination.build_classical_hypotheses",
                 _count_hypotheses)
    tracer.patch(cli, "chernoff_exponent", "illumination.chernoff_exponent", _count_chernoff)

    tracer.patch(cli, "tmsv_fock", "fock.tmsv_fock")
    for attr in ("tmsv_fock", "thermal_probabilities", "thermal_density", "displacement"):
        tracer.patch(ill, attr, "fock." + attr)
    tracer.patch(ill, "_bs_sector", "fock._bs_sector", _count_bs_sector)
    # fock.thermal_density reaches thermal_probabilities through fock's own namespace
    tracer.patch(fock, "thermal_probabilities", "fock.thermal_probabilities")


def run_pass(invocations: list[dict], traced: bool) -> dict:
    import mqisim.cli as cli

    tracer = Tracer()
    if traced:
        install(tracer)
        main = tracer.wrap("cli.main", cli.main)
    else:
        main = cli.main
    results = []
    t_pass = time.perf_counter()
    for inv in invocations:
        tracer.invocation = inv["key"]
        t0 = time.perf_counter()
        try:
            rc = main(inv["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # an uncaught error fails this invocation only; the pass goes on
            traceback.print_exc()
            rc = 1
        results.append({"key": inv["key"], "rc": rc, "wall": time.perf_counter() - t0})
    return {
        "wall": time.perf_counter() - t_pass,
        "invocations": results,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
    }


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run_pass(spec["invocations"], spec["traced"])
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
