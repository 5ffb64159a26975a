"""mqisim benchmark driver (stdlib + numpy).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-refs

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src``.  One closed-loop client runs the
workload's invocations one at a time, each as a fresh ``python -m mqisim``
process, in an order shuffled by the seed, pass after pass, and stops at
the pass boundary nearest to ``--seconds``.  Every output is checked
against ``refs.json``.

``--trace 0`` reports the end-to-end metrics, in seconds at a reference
machine speed: raw wall times times ``CAL_REF_S`` over the run's median
wall time of a calibration process that imports the program's numerical
stack and nothing of the program, launched twice in every pass.  The
machine's speed drifts over minutes; the scaling takes that drift out of
the comparison between runs.  ``--trace 1`` reports the
per-layer metrics: import stages timed in fresh processes, and the
invocations run in-process through ``mqisim.cli.main`` with the layer
boundaries wrapped (see worker.py), alternating traced and untraced
passes so that the tracing overhead is measured.  ``--record-refs``
rewrites ``refs.json`` from the program in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
of a run, with its context, samples and spans, is written to
``.perfbench-out/`` in the checkout.  README.md documents the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from check import check_output, read_table, reference
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs.json"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PER_PASS = 2      # fresh `import mqisim.cli` processes, and calibrations, per pass
IMPORT_SAMPLES = 5      # import probes per traced run
MIN_PASSES = 2          # per end-to-end run, however short --seconds is
TRACE_MIN_PASSES = 3    # per traced run: two traced, one untraced
CHILD_TIMEOUT = 150.0   # seconds before a hung child is killed
# Calibration process: the third-party modules that `mqisim` imports at commit
# a32cf38.  The list is fixed here, so that a change to the program's imports
# shows in its times instead of moving the calibration with it.
CAL_CODE = "import numpy, scipy.linalg, scipy.sparse, scipy.sparse.linalg, scipy.optimize"
CAL_REF_S = 0.6         # calibration wall time at the reference machine speed

LAYERS = ("import", "cli", "gaussian", "spectrum", "fock", "illumination")
SPAN_METRICS = {        # per-layer metric -> span whose self time it sums
    "cli.parse_s": "cli.parse",
    "cli.run_subcommand_self_s": "cli.run_subcommand",
    "cli.emit_s": "cli.emit",
    "cli.main_self_s": "cli.main",
    "gaussian.wigner_grid_s": "gaussian.wigner_grid",
    "spectrum.spectrum_sweep_s": "spectrum.spectrum_sweep",
    "fock.tmsv_fock_s": "fock.tmsv_fock",
    "fock.thermal_probabilities_s": "fock.thermal_probabilities",
    "fock.bs_sector_s": "fock._bs_sector",
    "fock.displacement_s": "fock.displacement",
    "illumination.build_qi_self_s": "illumination.build_qi_hypotheses",
    "illumination.build_classical_self_s": "illumination.build_classical_hypotheses",
    "illumination.chernoff_s": "illumination.chernoff_exponent",
}
COUNT_METRICS = {
    "cli.rows": "count", "cli.bytes_out": "B", "gaussian.points": "count",
    "spectrum.steps": "count", "fock.bs_sector_calls": "count",
    "illumination.hyp_dim": "count", "illumination.q_evals": "count",
    "illumination.dense_bytes": "B",
}
# ROADMAP item 1 re-anchor figures (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
REANCHOR = {"import": 0.49, "qcb_preset": 2.24, "chernoff_539": 0.21, "chernoff_1168": 1.40}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def launch(argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
    """Run one child to exit; return (wall s, exit code, max RSS MB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe(*args: str) -> tuple[dict, float]:
    """Run import_probe.py in a fresh process; return (its JSON, wall s)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "import_probe.py"), *args], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout), wall


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_context(found: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": found["python"],
        "numpy": found["numpy"],
        "scipy": found["scipy"],
        "numpy_blas": found["numpy_blas"],
        "scipy_blas": found["scipy_blas"],
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
    }


def preflight() -> dict:
    """Check that a checkout of mqisim surrounds the benchmark; return the discovery probe."""
    for need in ("src/mqisim/cli.py", "configs"):
        if not (ROOT / need).exists():
            raise BenchError(f"{ROOT / need} not found: run from an mqisim checkout")
    found, _ = probe("discover")    # also compiles the bytecode before anything is timed
    where = Path(found["mqisim_file"]).resolve()
    if not where.is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"mqisim imported from {where}, not from this checkout")
    return found


class Client:
    """Closed-loop client: runs invocations and checks their outputs."""

    def __init__(self, work: Path, refs: dict):
        self.work = work
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def output(self, inv) -> Path:
        return self.work / f"{inv.key}.{inv.fmt}"

    def argv(self, inv) -> list[str]:
        return [*inv.argv, "--output", str(self.output(inv)), "--quiet"]

    def record(self, inv, rc: int, stderr: str = "") -> None:
        """Count one attempt; check the exit code and the output file."""
        self.attempted += 1
        ref = self.refs.get(inv.key)
        if rc != 0:
            problems = [f"exit code {rc}: {stderr.strip()[-300:]}"]
        elif ref is None:
            problems = ["no reference in refs.json"]
        else:
            problems = check_output(self.output(inv), inv.fmt, ref)
        if problems:
            self.failed += 1
            self.problems += [f"{inv.key}: {p}" for p in problems[:5]]
        self.output(inv).unlink(missing_ok=True)

    def run_fresh(self, inv) -> tuple[float, float]:
        """One invocation as a fresh process; return (wall s, max RSS MB)."""
        err = self.work / "stderr.txt"
        wall, rc, rss = launch([sys.executable, "-m", "mqisim", *self.argv(inv)], err)
        self.record(inv, rc, err.read_text(errors="replace"))
        return wall, rss


def end_to_end(client: Client, invocations, rng: random.Random, seconds: float):
    cal, setup, walls, passes, loop_walls, peak = [], [], [], [], [], 0.0
    start = time.perf_counter()
    # whole passes only, stopping at the boundary nearest to `seconds`
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(loop_walls) / 2 < seconds):
        t_loop = time.perf_counter()
        # calibration and set-up samples are spread over the run, so that
        # they see the same machine speed as the passes
        for _ in range(SETUP_PER_PASS):
            for code, out in ((CAL_CODE, cal), ("import mqisim.cli", setup)):
                wall, rc, _ = launch([sys.executable, "-c", code], client.work / "stderr.txt")
                if rc != 0:
                    raise BenchError(f"`{code}` failed")
                out.append(wall)
        order = list(invocations)
        rng.shuffle(order)
        total = 0.0
        for inv in order:
            wall, rss = client.run_fresh(inv)
            walls.append({"key": inv.key, "wall": wall, "rss_mb": rss})
            total += wall
            peak = max(peak, rss)
        passes.append(total)
        loop_walls.append(time.perf_counter() - t_loop)
    scale = CAL_REF_S / statistics.median(cal)
    times = [w["wall"] for w in walls]
    metrics = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "invocation_p50_s": (float(np.percentile(times, 50)) * scale, "s"),
        "pass_s": (statistics.median(passes) * scale, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    # the samples keep raw wall times; the (scaled) p90 is printed and recorded
    # but is not a metric of BENCHMARK.json: a run has fewer than ten
    # invocations beyond it
    samples = {"scale": scale, "calibration": cal, "setup_s": setup, "pass_s": passes,
               "invocations": walls, "invocation_p90_s": float(np.percentile(times, 90)) * scale}
    return metrics, samples


def self_times(spans: list) -> dict[str, float]:
    """Self time per span name: duration minus what its child spans cover."""
    children = defaultdict(list)
    for name, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for sid, (name, t0, t1, _, _, _) in enumerate(spans):
        covered, edge = 0.0, t0
        for c0, c1 in sorted(children[sid]):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[name] += (t1 - t0) - covered
    return out


def worker_pass(client: Client, order, traced: bool) -> dict | None:
    spec_path, result_path = client.work / "spec.json", client.work / "result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({
        "traced": traced,
        "invocations": [{"key": inv.key, "argv": client.argv(inv)} for inv in order],
    }))
    err = client.work / "worker_stderr.txt"
    _, rc, _ = launch([sys.executable, str(BENCH / "worker.py"), str(spec_path),
                       str(result_path)], err)
    stderr = err.read_text(errors="replace")
    if rc != 0 or not result_path.exists():
        for inv in order:
            client.record(inv, rc or 1, stderr)
        return None
    result = json.loads(result_path.read_text())
    for inv, res in zip(order, result["invocations"]):
        client.record(inv, res["rc"], stderr)
    return result


def traced_layers(client: Client, invocations, rng: random.Random, seconds: float,
                  found: dict):
    imports = {"numpy": [], "scipy": [], "mqisim": [], "process": []}
    mods = json.dumps(found["scipy_modules"])
    for _ in range(IMPORT_SAMPLES):
        stages, wall = probe("time", mods)
        for stage, value in stages.items():
            imports[stage].append(value)
        imports["process"].append(wall)
    per_process = {k: statistics.median(v) for k, v in imports.items()}

    traced, untraced, counts_seen = [], [], []
    start = time.perf_counter()
    # traced passes first and at least two of them, so that counts can be compared
    while (len(traced) + len(untraced) < TRACE_MIN_PASSES
           or time.perf_counter() - start < seconds):
        order = list(invocations)
        rng.shuffle(order)
        is_traced = len(traced) <= len(untraced)
        result = worker_pass(client, order, is_traced)
        if result is None:
            raise BenchError("in-process pass failed:\n" + "\n".join(client.problems[-5:]))
        if is_traced:
            traced.append(result)
            counts_seen.append(result["counts"])
        else:
            untraced.append(result)

    n = len(invocations)
    per_pass = []
    for result in traced:
        own = self_times(result["spans"])
        row = {name: own.get(span, 0.0) for name, span in SPAN_METRICS.items()}
        for stage in ("numpy", "scipy", "mqisim"):
            row[f"import.{stage}_s"] = n * per_process[stage]
        row["import.self_s"] = n * (per_process["numpy"] + per_process["scipy"]
                                    + per_process["mqisim"])
        for layer in LAYERS[1:]:
            row[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
        row["traced.wall_s"] = n * per_process["process"] + result["wall"]
        row["traced.uncovered_s"] = row["traced.wall_s"] - sum(
            row[f"{layer}.self_s"] for layer in LAYERS)
        per_pass.append(row)
    metrics = {name: (statistics.median(r[name] for r in per_pass), "s")
               for name in per_pass[0]}
    traced_wall = statistics.median(r["wall"] for r in traced)
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    metrics["traced.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")

    for name, unit in COUNT_METRICS.items():
        values = {c.get(name, 0) for c in counts_seen}
        if len(values) != 1:
            client.problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = (float(max(values)), unit)

    chernoff = defaultdict(list)
    for result in traced:
        for name, t0, t1, _, _, attrs in result["spans"]:
            if name == "illumination.chernoff_exponent":
                chernoff[attrs["dim"]].append(t1 - t0)
    samples = {
        "import_per_process": imports,
        "pass_wall": {"traced": [r["wall"] for r in traced],
                      "untraced": [r["wall"] for r in untraced]},
        "chernoff_by_dim": {str(k): v for k, v in sorted(chernoff.items())},
        "spans": [r["spans"] for r in traced],
        "counts": counts_seen,
    }
    return metrics, samples


def earlier_count_mismatches(workload: str, digest: str, metrics: dict) -> list[str]:
    """Compare the counts with earlier traced runs of the same source in OUT_DIR."""
    problems = []
    for path in sorted(OUT_DIR.glob(f"{workload}-seed*-trace1.json")):
        earlier = json.loads(path.read_text())
        if earlier["context"]["src_sha256"] != digest:
            continue
        for name in COUNT_METRICS:
            was = earlier["metrics"].get(name, {}).get("value")
            if was is not None and was != metrics[name][0]:
                problems.append(f"count {name} = {metrics[name][0]:g}, "
                                f"but {was:g} in {path.name}")
    return problems


def _vs(label: str, figure: float, measured: float | None) -> str:
    if measured is None:
        return f"  {label:<28} re-anchor {figure:.2f} s   (not measured on this workload)"
    gap = measured / figure - 1.0
    return f"  {label:<28} re-anchor {figure:.2f} s   here {measured:.3f} s   gap {gap:+.0%}"


def report(args, context, metrics, samples, client) -> None:
    print(f"mqisim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    blas = context["scipy_blas"].get("blas", {})
    print(f"context: git={context['git_sha']} src={context['src_sha256'][:12]} "
          f"nproc={context['nproc']} python={context['python']} numpy={context['numpy']} "
          f"scipy={context['scipy']} blas={blas.get('name')} {blas.get('version')} "
          f"thread_env={context['thread_env'] or 'unset'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'invocation_p90_s':<38} {samples['invocation_p90_s']:>14.6g} s "
              "(not in BENCHMARK.json: too few invocations beyond it)")
        print(f"  samples: {len(samples['invocations'])} invocations in "
              f"{len(samples['pass_s'])} passes, {len(samples['setup_s'])} setup imports")
        cal = samples["calibration"]
        print(f"  times are raw wall x {samples['scale']:.4f} = {CAL_REF_S} s / median of "
              f"{len(cal)} calibrations ({min(cal):.3f}-{max(cal):.3f} s); raw: setup "
              f"{statistics.median(samples['setup_s']):.4f} s, pass "
              f"{statistics.median(samples['pass_s']):.4f} s")
    failed_frac = client.failed / client.attempted
    print(f"  {'failed_frac':<38} {failed_frac:>14.6g} frac "
          f"({client.failed} of {client.attempted} invocations)")
    if args.trace:
        wall = metrics["traced.wall_s"][0]
        print(f"layer self time per pass, next to the traced wall time {wall:.3f} s "
              f"({len(WORKLOADS[args.workload])} x import process + in-process pass):")
        for layer in LAYERS:
            value = metrics[f"{layer}.self_s"][0]
            print(f"  {layer:<14} {value:10.4f} s  {value / wall:7.1%}")
        value = metrics["traced.uncovered_s"][0]
        print(f"  {'uncovered':<14} {value:10.4f} s  {value / wall:7.1%}  "
              "(interpreter start and exit, glue between spans)")
        print(f"tracing overhead: {metrics['traced.overhead_frac'][0]:+.2%} "
              f"(median traced vs untraced in-process pass)")
        by_dim = {int(k): statistics.median(v) for k, v in samples["chernoff_by_dim"].items()}
        print("against ROADMAP item 1 (warm, in-process):")
        print(_vs("chernoff_exponent dim 539", REANCHOR["chernoff_539"], by_dim.get(539)))
        print(_vs("chernoff_exponent dim 1168", REANCHOR["chernoff_1168"], by_dim.get(1168)))
    else:
        preset = [w["wall"] for w in samples["invocations"]
                  if w["key"] == "preset.qcb_background_sweep"]
        print("against ROADMAP item 1 (fresh processes, raw wall time):")
        print(_vs("import mqisim.cli", REANCHOR["import"], statistics.median(samples["setup_s"])))
        print(_vs("qcb background-sweep preset", REANCHOR["qcb_preset"],
                  statistics.median(preset) if preset else None))
    for problem in client.problems:
        print("FAIL " + problem)


def record_refs(work: Path) -> None:
    client, refs = Client(work, {}), {}
    for invocations in WORKLOADS.values():
        for inv in invocations:
            _, rc, _ = launch([sys.executable, "-m", "mqisim", *client.argv(inv)],
                              work / "stderr.txt")
            if rc != 0:
                raise BenchError(f"{inv.key} exited {rc}")
            refs[inv.key] = reference(read_table(client.output(inv), inv.fmt))
    REFS.write_text(json.dumps({"git_sha": _git_sha(), "src_sha256": _src_digest(),
                                "invocations": refs}, indent=1) + "\n")
    print(f"wrote {REFS} ({len(refs)} invocations)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true")
    args = parser.parse_args()
    if args.workload is None and not args.record_refs:
        parser.error("--workload is required")
    try:
        found = preflight()
        work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
        try:
            if args.record_refs:
                record_refs(work)
                return 0
            if not REFS.is_file():
                raise BenchError(f"{REFS} not found")
            refs = json.loads(REFS.read_text())["invocations"]
            client = Client(work, refs)
            invocations = WORKLOADS[args.workload]
            rng = random.Random(args.seed)
            if args.trace:
                metrics, samples = traced_layers(client, invocations, rng, args.seconds, found)
            else:
                metrics, samples = end_to_end(client, invocations, rng, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    context = run_context(found)
    if args.trace:
        client.problems += earlier_count_mismatches(args.workload, context["src_sha256"], metrics)
    report(args, context, metrics, samples, client)
    result = {
        "correct": not client.problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "problems": client.problems,
              "samples": samples, **result}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
