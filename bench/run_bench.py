"""Benchmark of ``facetkit run`` and ``facetkit.estimate`` on keyed workloads.

Run from the repository root; it imports facetkit from ``src/``:

    python3 bench/run_bench.py --workload crossed_1000 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: each
iteration times one ``python -m facetkit.cli run`` child and one in-process
``facetkit.estimate`` on a freshly ingested tensor, and checks both outputs.
``--trace 1`` replays ``run_study``'s stage order through facetkit's public
calls, wraps each call in a span, and reports per-layer metrics; the spans
are written to ``.bench_work/trace-<workload>-<seed>.json`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table with sample counts and the machine.  Children run one
at a time.  The exit code is 2, with no result printed, when facetkit's
sources are not under ``src/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60
STARTUPS_PER_ITERATION = 3
KERNEL_CALLS_PER_ITERATION = 5
MIN_SETUPS = 3
MIN_SETUP_S = 0.2
# End-to-end times are reported at the speed where one Reference._once()
# takes this long, near its median on a 2-core 2.1 GHz VM (Python 3.11.7,
# numpy 2.4.6), where it ranged from 16 to 24 ms as the host's load changed
REF_NOMINAL_S = 0.025
REF_SHARE = 0.1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "run_s": "s", "cells_per_s": "cells/s", "estimate_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}

PER_LAYER = (
    "ratings.ingest_s", "ratings.connected_s", "ratings.to_json_s",
    "ratings.cells", "ratings.dense_cells", "ratings.fill",
    "model.kernel_s", "model.kernel_cells_per_s",
    "estimate.fit_s", "estimate.sweeps", "estimate.s_per_sweep",
    "estimate.extreme_elements", "estimate.active_cells", "estimate.score_residual",
    "fitstats.rater_s", "fitstats.person_s",
    "agreement.qwk_s", "agreement.qwk_rows", "agreement.alpha_s",
    "ensemble.build_s",
    "report.estimates_json_s", "report.wright_s", "report.tables_s",
    "study.run_s", "study.glue_s", "trace.coverage",
    "cli.startup_s", "cli.share",
)


class Recorder:
    """Samples per metric plus the tally of attempted and failed operations."""

    def __init__(self):
        self.samples = {}
        self.speeds = {}
        self.units = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._unscaled = []

    def add(self, name, value, unit):
        self.samples.setdefault(name, []).append(float(value))
        self.speeds.setdefault(name, []).append(1.0)
        self.units[name] = unit
        self._unscaled.append((name, len(self.samples[name]) - 1))

    def set_speed(self, speed):
        """The samples added since the last call ran at ``speed`` (see Reference)."""
        for name, i in self._unscaled:
            self.speeds[name][i] = speed
        self._unscaled = []

    def operation(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def median(self, name):
        return statistics.median(self.samples[name])

    def value(self, name):
        """Median with each time in seconds at reference speed."""
        power = {"s": 1, "cells/s": -1}.get(self.units[name], 0)
        return statistics.median(
            v * speed**power for v, speed in zip(self.samples[name], self.speeds[name])
        )


class Reference:
    """A fixed numpy and interpreter workload timed between measured calls.

    On a shared machine, the host's load makes neighbouring calls slower or
    faster together: medians of one commit moved by up to half between
    runs minutes apart.  The kernel below does the kinds of work facetkit
    does (category probabilities and bincounts over 20 000 cells, rows to
    JSON), so its time moves with theirs.  Each end-to-end time is scaled
    by REF_NOMINAL_S / the kernel's median right after it.  The kernel
    calls nothing in facetkit, so a change to facetkit cannot move it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._loc = rng.normal(size=20000)
        self._idx = rng.integers(0, 500, size=20000)
        self._cum = np.concatenate([[0.0], np.cumsum(np.linspace(-2.0, 2.0, 6))])
        self._rows = [[f"P{i}", f"I{i % 4}", f"R{i % 12}", i % 7] for i in range(1500)]
        self.samples = []

    def _once(self):
        np = self._np
        for _ in range(5):
            psi = self._loc[:, None] * np.arange(7) - self._cum
            psi -= psi.max(axis=1, keepdims=True)
            p = np.exp(psi)
            p /= p.sum(axis=1, keepdims=True)
            np.bincount(self._idx, weights=p @ np.arange(7.0), minlength=500)
        json.dumps(self._rows)
        {",".join(map(str, row)): row for row in self._rows}

    def sample(self, seconds=0.0):
        """Time the kernel once, and again until ``seconds`` have passed.

        Returns the speed now: seconds at reference speed per second measured.
        """
        first = len(self.samples)
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            self._once()
            now = time.perf_counter()
            self.samples.append(now - start)
            if now >= end:
                return REF_NOMINAL_S / statistics.median(self.samples[first:])


def _tail(values):
    """Highest of p90/p99 with at least ten samples beyond it, else None."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def _machine():
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd, log):
    """Run one child to completion; returns (wall s, exit code)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        # a blocking wait times the child exactly; Popen.wait(timeout) polls
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        return time.perf_counter() - start, code


# ``python -m facetkit.cli`` that prints its own peak RSS last on stderr.  A
# forked child's rusage also counts the parent's pages it held before exec;
# VmHWM counts only the child's own memory.
RUN_CHILD = """\
import runpy, sys
try:
    runpy.run_module("facetkit.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as f:
        print(next(line for line in f if line.startswith("VmHWM:")), file=sys.stderr)
"""


def _peak_rss_mb(log):
    last = Path(log).read_text(encoding="utf-8").strip().splitlines()[-1]
    field, kb, unit = last.split()
    if field != "VmHWM:" or unit != "kB":
        raise ValueError(f"no peak RSS in the child's last line {last!r}")
    return int(kb) / 1024.0


def _child_failure(code, log):
    lines = Path(log).read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return [f"exit code {code}" + (f": {lines[-1]}" if lines else "")]


def set_up(workload, seed, workdir, rec, ref=None):
    """Generate the run's inputs and ingest each once to count its cells.

    Set-up repeats, into a scratch directory that must come out byte for
    byte the same, until there are MIN_SETUPS samples and MIN_SETUP_S
    seconds of them, so that setup_s is a median even where set-up is fast.
    """
    from workloads import dataset_seed

    datasets = []
    k = 0
    while k < workload.datasets or len(rec.samples.get("setup_s", ())) < MIN_SETUPS \
            or sum(rec.samples["setup_s"]) < MIN_SETUP_S:
        fresh = k < workload.datasets
        out = workdir / (f"data{k}" if fresh else "again")
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        ds = workload.generate(out, dataset_seed(seed, k % workload.datasets))
        ds = dataclasses.replace(ds, cells=_ingest(ds).n_cells)
        rec.add("setup_s", time.perf_counter() - start, "s")
        if ref is not None:
            rec.set_speed(ref.sample())
        if fresh:
            datasets.append(ds)
        else:
            first = datasets[k % workload.datasets]
            for a, b in ((ds.csv, first.csv), (ds.config, first.config)):
                if a.read_bytes() != b.read_bytes():
                    rec.problems.append(f"set-up of input {k % workload.datasets} "
                                        f"is not deterministic: {a.name} differs")
        k += 1
    return datasets


def _ingest(ds):
    import facetkit as fk
    return fk.ingest_csv(ds.csv, *ds.scale)


def _iterations(seconds):
    """Yield iteration numbers until the next one would overrun ``seconds``."""
    deadline = time.perf_counter() + seconds
    durations = []
    j = 0
    while True:
        start = time.perf_counter()
        if durations and start + statistics.median(durations) / 2 > deadline:
            return
        yield j
        durations.append(time.perf_counter() - start)
        j += 1


def _attempt(rec, label, fn):
    """Count one operation; ``fn`` returns its problems and may raise."""
    try:
        problems = fn()
    except Exception as e:
        traceback.print_exc()
        problems = [f"{type(e).__name__}: {e}"]
    rec.operation(label, problems)


def _run_argv(ds, out):
    return [sys.executable, "-c", RUN_CHILD, "run", str(ds.config), "--out", str(out)]


def measure(workload, seed, seconds, workdir, rec, ref):
    """End-to-end metrics with tracing off."""
    import facetkit as fk
    from checks import fit_problems, run_problems, severity_rmse

    datasets = set_up(workload, seed, workdir, rec, ref)
    log = workdir / "child.log"
    first_manifest = {}

    def run_once(k, out):
        ds = datasets[k]
        elapsed, code = run_child(_run_argv(ds, out), ds.config.parent, log)
        if code != 0:
            return _child_failure(code, log)
        rec.add("run_s", elapsed, "s")
        rec.add("cells_per_s", ds.cells / elapsed, "cells/s")
        rec.add("peak_rss_mb", _peak_rss_mb(log), "MB")
        problems = run_problems(_ingest(ds), out, first_manifest.get(k))
        first_manifest.setdefault(k, (out / "manifest.json").read_text(encoding="utf-8"))
        if ds.true_severity and not problems:
            estimates = fk.FacetEstimates.read_json(out / "estimates.json")
            rec.add("severity_rmse", severity_rmse(estimates, ds.true_severity), "logits")
        return problems

    def estimate_once(k):
        ds = datasets[k]
        tensor = _ingest(ds)
        estimation = fk.StudyConfig.from_json_file(ds.config).estimation
        gc.collect()
        start = time.perf_counter()
        est = fk.estimate(tensor, estimation)
        rec.add("estimate_s", time.perf_counter() - start, "s")
        return fit_problems(tensor, est)

    for j in _iterations(seconds):
        start = time.perf_counter()
        k = j % len(datasets)
        out = workdir / f"out{j}"
        _attempt(rec, f"run {j}", lambda: run_once(k, out))
        shutil.rmtree(out, ignore_errors=True)
        _attempt(rec, f"estimate {j}", lambda: estimate_once(k))
        rec.set_speed(ref.sample(REF_SHARE * (time.perf_counter() - start)))


def replay(tr, ds, study):
    """run_study's stage order through public calls, one span per layer call."""
    import facetkit as fk

    with tr.span("study.replay"):
        with tr.span("ratings.ingest"):
            tensor = _ingest(ds)
        with tr.span("ratings.connected"):
            tensor.connected
        with tr.span("ratings.to_json"):
            tensor.to_json_text()
        benchmarks = list(study.benchmarks) or list(tensor.ids.raters[:1])
        candidates = [r for r in tensor.ids.raters if r not in benchmarks]
        item_groups = [(item,) for item in tensor.ids.items]
        with tr.span("agreement.qwk"):
            table = fk.qwk_matrix(tensor, benchmarks, candidates, item_groups)
        with tr.span("agreement.alpha"):
            groups = study.alpha_groups or {"all-items": tuple(tensor.ids.items)}
            for group in sorted(groups):
                for rater in tensor.ids.raters:
                    fk.cronbach_alpha(tensor, rater, groups[group])
        with tr.span("ensemble.build"):
            if study.ensembles:
                extended = tensor
                for spec in study.ensembles:
                    extended = fk.build_ensemble(extended, spec)
                fk.qwk_matrix(extended, benchmarks, [s.name for s in study.ensembles],
                              item_groups)
        with tr.span("estimate.fit"):
            est = fk.estimate(tensor, study.estimation)
        with tr.span("report.estimates_json"):
            est.to_json_text()
        with tr.span("fitstats.rater"):
            rater_fit = fk.with_flags(fk.fit_statistics(tensor, est, "rater"), study.fit_cuts)
        with tr.span("report.tables"):
            fk.measure_table(est, rater_fit).to_csv_text()
            fk.descriptive_table(tensor).to_csv_text()
            fk.estimates_summary(est)
            fk.severity_classification(est, allow_unconverged=True)
        with tr.span("report.wright"):
            fk.render_wright(est, "ascii")
            fk.render_wright(est, "svg")
    return tensor, est, table


LAYER_SPANS = {
    "ratings.ingest_s": "ratings.ingest", "ratings.connected_s": "ratings.connected",
    "ratings.to_json_s": "ratings.to_json", "estimate.fit_s": "estimate.fit",
    "fitstats.rater_s": "fitstats.rater", "fitstats.person_s": "fitstats.person",
    "agreement.qwk_s": "agreement.qwk", "agreement.alpha_s": "agreement.alpha",
    "ensemble.build_s": "ensemble.build", "report.estimates_json_s": "report.estimates_json",
    "report.wright_s": "report.wright", "report.tables_s": "report.tables",
    "study.run_s": "study.run", "cli.run_s": "cli.run",
}


def traced_iteration(tr, rec, ds, workdir, first_manifest):
    """One traced pass over a dataset; returns the problems found."""
    import numpy as np

    import facetkit as fk
    from checks import active_cells, fit_problems, run_problems, score_residual

    log = workdir / "child.log"
    study = fk.StudyConfig.from_json_file(ds.config)
    n_spans = len(tr.spans)
    tensor, est, table = replay(tr, ds, study)
    problems = fit_problems(tensor, est)

    p, i, r = np.nonzero(tensor.present_mask)
    params = est.params
    loc = params.ability[p] - params.severity[r] - params.difficulty[i]
    for _ in range(KERNEL_CALLS_PER_ITERATION):
        with tr.span("model.kernel") as s:
            fk.category_probs(loc, params.thresholds)
        rec.add("model.kernel_s", s.duration, "s")
        rec.add("model.kernel_cells_per_s", loc.size / s.duration, "cells/s")
    with tr.span("fitstats.person"):
        fk.fit_statistics(tensor, est, "person")

    # the in-process pipeline and the CLI child must write the same bytes
    out = workdir / "study"
    with tr.span("study.run"):
        fk.run_study(study, output_dir=out)
    problems += run_problems(tensor, out, first_manifest.get(ds.config))
    first_manifest.setdefault(ds.config, (out / "manifest.json").read_text(encoding="utf-8"))
    shutil.rmtree(out)
    out = workdir / "cli"
    with tr.span("cli.run"):
        code = run_child(_run_argv(ds, out), ds.config.parent, log)[1]
    if code != 0:
        return problems + _child_failure(code, log)
    problems += run_problems(tensor, out, first_manifest[ds.config])
    shutil.rmtree(out)
    for _ in range(STARTUPS_PER_ITERATION):
        with tr.span("cli.startup") as s:
            code = run_child([sys.executable, "-c", "import facetkit.cli"], workdir, log)[1]
        if code != 0:
            return problems + _child_failure(code, log)
        rec.add("cli.startup_s", s.duration, "s")

    spans = {}
    for s in tr.spans[n_spans:]:
        spans.setdefault(s.name, s)
    for metric, name in LAYER_SPANS.items():
        rec.add(metric, spans[name].duration, "s")
    covered = sum(c.duration for c in tr.children(spans["study.replay"].id))
    run_s = spans["study.run"].duration
    rec.add("study.glue_s", run_s - covered, "s")
    rec.add("trace.coverage", covered / run_s, "share")

    P, I, R = tensor.shape
    extremes = sum(
        f != "none" for f in est.extreme_persons + est.extreme_raters + est.extreme_items
    )
    rec.add("ratings.cells", tensor.n_cells, "count")
    rec.add("ratings.dense_cells", P * I * R, "count")
    rec.add("ratings.fill", tensor.n_cells / (P * I * R), "share")
    rec.add("estimate.sweeps", est.iterations_used, "count")
    rec.add("estimate.s_per_sweep", spans["estimate.fit"].duration / est.iterations_used, "s")
    rec.add("estimate.extreme_elements", extremes, "count")
    rec.add("estimate.active_cells", active_cells(tensor, est), "count")
    rec.add("estimate.score_residual", score_residual(tensor, est), "score")
    rec.add("agreement.qwk_rows", len(table.rows), "count")
    return problems


def measure_traced(workload, seed, seconds, workdir, rec, tr):
    """Per-layer metrics from spans around facetkit's public calls."""
    datasets = set_up(workload, seed, workdir, rec)
    first_manifest = {}
    for j in _iterations(seconds):
        ds = datasets[j % len(datasets)]
        _attempt(rec, f"traced pass {j}",
                 lambda: traced_iteration(tr, rec, ds, workdir, first_manifest))
    if "cli.run_s" in rec.samples and "cli.startup_s" in rec.samples:
        rec.add("cli.share", rec.median("cli.startup_s") / rec.median("cli.run_s"), "share")


def _report(rec, names, args, machine, ref):
    print(f"facetkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if ref is not None:
        print(f"reference kernel: median {statistics.median(ref.samples):.6g} s over "
              f"{len(ref.samples)} calls; times are scaled to {REF_NOMINAL_S} s per call")
    print(f"{'metric':<28}{'median':>14}{'as measured':>14}  {'unit':<8}{'n':>4}  tail")
    for name in names:
        values = rec.samples[name]
        tail = _tail(values)
        tail_text = f"p{tail[0]}={tail[1]:.6g}" if tail else "-"
        print(f"{name:<28}{rec.value(name):>14.6g}{rec.median(name):>14.6g}  "
              f"{rec.units[name]:<8}{len(values):>4}  {tail_text}")
    share = rec.failed / rec.attempted if rec.attempted else float("nan")
    print(f"{'failed_share':<28}{share:>14.6g}{share:>14.6g}  {'share':<8}{rec.attempted:>4}  "
          f"({rec.failed} of {rec.attempted} operations failed)")
    for problem in rec.problems:
        print(f"problem: {problem}", file=sys.stderr)


def _span_report(tr):
    print(f"{'span':<28}{'n':>6}{'median s':>14}{'median self s':>16}")
    for name in dict.fromkeys(s.name for s in tr.spans):
        spans = [s for s in tr.spans if s.name == name]
        print(f"{name:<28}{len(spans):>6}"
              f"{statistics.median(s.duration for s in spans):>14.6g}"
              f"{statistics.median(tr.self_time(s) for s in spans):>16.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread: a second one spins on the other core without making
    # any call here faster, and doubles the exposure to the neighbours' load
    os.environ.update({v: "1" for v in BLAS_THREAD_VARIABLES})
    if not (SRC / "facetkit" / "__init__.py").is_file():
        print(f"facetkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import facetkit
    if Path(facetkit.__file__).resolve().parent != SRC / "facetkit":
        print(f"imported facetkit from {facetkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    machine = _machine()
    rec = Recorder()
    tr = Tracer(args.workload) if args.trace else None
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ref = None if tr else Reference()
    try:
        if tr:
            measure_traced(workload, args.seed, args.seconds, workdir, rec, tr)
        else:
            measure(workload, args.seed, args.seconds, workdir, rec, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = PER_LAYER if tr else END_TO_END_UNITS
    metrics = {n: {"value": rec.value(n), "unit": rec.units[n]}
               for n in wanted if n in rec.samples}
    shown = list(wanted) if tr else list(wanted) + ["severity_rmse"]
    _report(rec, [n for n in shown if n in rec.samples], args, machine, ref)
    if tr:
        _span_report(tr)
        path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tr.write(path, {"machine": machine, "workload": args.workload, "seed": args.seed,
                        "metrics": metrics})
        print(f"spans written to {path.relative_to(ROOT)}")
    correct = rec.failed == 0 and not rec.problems and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
