"""Benchmark of attricom through its public API and its CLI.

    python3 bench/run.py --workload planted-fit --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. One
process runs one workload. It sets the inputs up from --seed (several times,
to time set-up), then runs whole passes over the inputs, one round of
operations per input, until --seconds have passed. Every operation's
outputs are checked against computations in checks.py. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a round is
run alternately untraced and traced (spans from tracer.py), and the metrics
are the per-layer ones of the traced rounds plus the tracing overhead. The
line before it describes the run: machine, seed, inputs and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
ALPHA, LAM = 0.5, 1.0
# The planted family of the acceptance tests: strength 1 gives a shared
# community an edge probability of 0.63; weight 5 and bias -2 give members an
# attribute probability of 0.95 and non-members 0.12.
PLANT = dict(c=4, k=16, membership_prob=0.25, strength=1.0, weight_scale=5.0, bias=-2.0)


class Run:
    """Operation counts, timing samples and per-input quality of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples = defaultdict(list)
        self.quality: dict[str, float] = {}
        self.wall = 0.0  # timed wall time of the current round

    @contextlib.contextmanager
    def operation(self, label):
        """Count one operation; it fails if its body raises or lists a failure."""
        self.attempted += 1
        failures: list[str] = []
        try:
            with contextlib.redirect_stdout(sys.stderr):
                yield failures
        except Exception as exc:  # one operation's fault must not stop the others
            traceback.print_exc()
            failures.append(f"{type(exc).__name__}: {exc}")
        if failures:
            self.failed += 1
            self.failures.append(f"{label}: {failures[0]}")
            print(f"bench: {label} failed: {'; '.join(failures)}", file=sys.stderr)

    def timed(self, fn, *args):
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        self.wall += elapsed
        return result, elapsed


def recorder(sink):
    """Wrapper factory for Patches.wrap that appends (args, result, seconds)
    of every call to sink."""
    def make(fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            sink.append((args, result, perf_counter() - start))
            return result
        return wrapper
    return make


def instance_seeds(seed, count):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


class Workload:
    """Set-up, rounds and the run-wide verdict of one workload."""

    name = ""

    def setup(self, ac, seed, workdir):
        """Generate the inputs from seed; returns one entry per round."""
        raise NotImplementedError

    def round(self, ac, inputs, r, run):
        """Run and check the operations of round r on inputs[r]."""
        raise NotImplementedError

    def verdict(self, run):
        """Failures of checks over the whole run, which make it incorrect."""
        return []

    def describe(self):
        """One line on the inputs the last set-up made."""
        raise NotImplementedError


class PlantedFit(Workload):
    """attricom.fit to convergence on planted n=400 graphs, whole and with
    60% of the edges removed."""

    name = "planted-fit"
    n, pool, gamma = 400, 8, 0.6
    config = dict(alpha=ALPHA, lam=LAM, max_outer_iters=150)

    def setup(self, ac, seed, workdir):
        inputs = []
        for s in instance_seeds(seed, self.pool):
            graph, _, true_F, _ = ac.planted_instance(ac.PlantedSpec(n=self.n, seed=s, **PLANT))
            damaged = ac.remove_edges(graph, self.gamma, seed=s + 1000)
            truth = checks.threshold(true_F.values, checks.default_delta(self.n))
            inputs.append((s, truth, (("full", graph), ("damaged", damaged))))
        self.edge_counts = [g.num_edges for _, _, graphs in inputs for _, g in graphs]
        return inputs

    def round(self, ac, inputs, r, run):
        s, truth, graphs = inputs[r]
        for variant, graph in graphs:
            with run.operation(f"{self.name} instance {s} {variant}") as failures:
                config = ac.FitConfig(rng_seed=s, **self.config)
                result, elapsed = run.timed(ac.fit, graph, PLANT["c"], config)
                cover, cut = run.timed(ac.threshold_memberships, result.F)
                run.samples["fit_s"].append(elapsed)
                run.samples["detect_s"].append(elapsed + cut)
                run.samples["iter_s"].extend(result.iter_seconds)
                F, W = result.F.values, result.W.values
                totals = [o.scaled_total for o in result.objective_trace]
                recomputed = checks.objective(self.n, graph.edges, graph.attr_pairs,
                                              graph.num_attrs, F, W, config.alpha,
                                              config.lam, config.min_dot_guard)
                detected = ordered(cover)
                failures += (checks.check_trace(totals)
                             + checks.check_objective(totals[-1], recomputed)
                             + checks.check_edge_prob_bound(F)
                             + checks.check_cover(detected, F))
                run.quality[f"{s} {variant}"] = checks.best_match_f1(truth, detected)

    def verdict(self, run):
        full = [f1 for key, f1 in run.quality.items() if key.endswith("full")]
        if full and statistics.mean(full) < 0.80:
            return [f"mean F1 on the whole graphs {statistics.mean(full):.3f} < 0.80"]
        return []

    def describe(self):
        return (f"{self.pool} planted instances n={self.n} C={PLANT['c']} K={PLANT['k']}, "
                f"each fitted whole and with {self.gamma:.0%} of edges removed; "
                f"edges {min(self.edge_counts)}-{max(self.edge_counts)}")


class Detect(Workload):
    """attricom detect, in process through attricom.cli.main, on input files."""

    def __init__(self):
        self.final = []       # (args, FitResult, seconds) of the fit cli.main runs last
        self.candidates = []  # (args, FitResult, seconds) of the fits selection makes
        self.masks = []       # (args, HoldoutMask, seconds) of each make_holdout call

    def capture(self, patches):
        """Record the fits and masks the CLI makes, for checking its outputs."""
        patches.wrap("attricom.cli", "fit", recorder(self.final))
        patches.wrap("attricom.solver", "fit", recorder(self.candidates))
        patches.wrap("attricom.selection", "make_holdout", recorder(self.masks))

    def fits(self, run):
        """Sample every fit of the last detect; return the final one."""
        for _, result, elapsed in self.candidates + self.final:
            run.samples["fit_s"].append(elapsed)
            run.samples["iter_s"].extend(result.iter_seconds)
        return self.final[-1][1]

    def write_inputs(self, workdir, tag, graph):
        edges, attrs = workdir / f"{tag}.edges.tsv", workdir / f"{tag}.attrs.tsv"
        checks.write_pairs(edges, graph.edges)
        checks.write_pairs(attrs, graph.attr_pairs, header=(graph.num_nodes, graph.num_attrs))
        return str(edges), str(attrs)

    def detect(self, ac, run, argv):
        for sink in (self.final, self.candidates, self.masks):
            sink.clear()
        rc, elapsed = run.timed(ac.cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"attricom {' '.join(argv)} exited with {rc}")
        run.samples["detect_s"].append(elapsed)
        prefix = argv[argv.index("-o") + 1]
        return (checks.read_manifest(f"{prefix}.manifest.tsv"),
                checks.read_cover(f"{prefix}.communities.tsv"))

    def check_final_fit(self, ac, graph, manifest, cover, result):
        F, W = result.F.values, result.W.values
        totals = [o.scaled_total for o in result.objective_trace]
        recomputed = checks.objective(graph.num_nodes, graph.edges, graph.attr_pairs,
                                      graph.num_attrs, F, W, ALPHA, LAM,
                                      ac.FitConfig().min_dot_guard)
        return (checks.check_trace(totals)
                + checks.check_objective(totals[-1], recomputed)
                + checks.check_objective(float(manifest["objective_scaled"]), recomputed,
                                         checks.PRINTED_RTOL)
                + checks.check_cover(cover, F))


class FF30kDetect(Detect):
    """detect -c 10 for 3 iterations on a 30,000-node forest-fire graph."""

    name = "ff30k-detect"
    n, k, attr_prob = 30_000, 10, 0.5

    def setup(self, ac, seed, workdir):
        graph = ac.forest_fire(ac.ForestFireParams(n=self.n, seed=seed))
        graph = ac.bernoulli_attributes(graph, self.k, self.attr_prob, seed=seed + 1)
        self.edge_count = graph.num_edges
        return [(graph, self.write_inputs(workdir, "ff30k", graph), workdir / "ff30k")]

    def round(self, ac, inputs, r, run):
        graph, (edges, attrs), prefix = inputs[r]
        with run.operation(self.name) as failures:
            manifest, cover = self.detect(ac, run, [
                "detect", "-i", edges, "-a", attrs, "-c", "10", "--alpha", str(ALPHA),
                "--lambda", str(LAM), "--max-iters", "3", "--tol", "0", "-o", str(prefix)])
            result = self.fits(run)
            failures += (checks.check_counts(manifest, self.n, graph.num_edges, self.k)
                         + self.check_final_fit(ac, graph, manifest, cover, result))
            # A forest-fire graph has no planted truth; the reference is the
            # benchmark's own thresholding of the fit, so this reads 1 unless
            # the written cover is wrong.
            run.quality[self.name] = checks.best_match_f1(
                checks.threshold(result.F.values, checks.default_delta(self.n)), cover)

    def describe(self):
        return (f"forest-fire n={self.n} ({self.edge_count} edges), "
                f"{self.k} Bernoulli({self.attr_prob}) attributes")


class PlantedAuto(Detect):
    """detect -c auto --candidates 2,4,8 on planted n=300 files."""

    name = "planted-auto"
    n, pool = 300, 4
    counts = (2, 4, 8)

    def setup(self, ac, seed, workdir):
        inputs = []
        for s in instance_seeds(seed, self.pool):
            graph, _, true_F, _ = ac.planted_instance(ac.PlantedSpec(n=self.n, seed=s, **PLANT))
            truth = checks.threshold(true_F.values, checks.default_delta(self.n))
            inputs.append((s, graph, truth, self.write_inputs(workdir, f"p{s}", graph),
                           workdir / f"p{s}"))
        self.edge_counts = [graph.num_edges for _, graph, *_ in inputs]
        return inputs

    def round(self, ac, inputs, r, run):
        s, graph, truth, (edges, attrs), prefix = inputs[r]
        with run.operation(f"{self.name} instance {s}") as failures:
            manifest, cover = self.detect(ac, run, [
                "detect", "-i", edges, "-a", attrs, "-c", "auto", "--candidates",
                ",".join(map(str, self.counts)), "--alpha", str(ALPHA),
                "--lambda", str(LAM), "--max-iters", "30", "--tol", "0", "--seed", str(s),
                "-o", str(prefix)])
            scores = {c: float(manifest[f"holdout_score_{c}"]) for c in self.counts}
            failures += checks.check_selection(int(manifest["communities"]), scores)
            failures += self.check_holdout(ac, graph, scores)
            failures += self.check_final_fit(ac, graph, manifest, cover, self.fits(run))
            run.quality[str(s)] = checks.best_match_f1(truth, cover)

    def check_holdout(self, ac, graph, scores):
        """Each candidate's score, recomputed from its fit and the reserved pairs."""
        if len(self.masks) != 1 or len(self.candidates) != len(scores):
            return [f"expected one mask and {len(scores)} candidate fits, got "
                    f"{len(self.masks)} and {len(self.candidates)}"]
        mask = self.masks[0][1]
        pairs = np.column_stack([mask.pair_u, mask.pair_v])
        cells = np.column_stack([mask.attr_u, mask.attr_k])
        failures = (checks.check_reserved(pairs, mask.pair_obs, graph.edges, graph.num_nodes)
                    + checks.check_reserved(cells, mask.attr_obs, graph.attr_pairs,
                                            graph.num_attrs))
        for args, result, _ in self.candidates:
            c = args[1]
            recomputed = checks.holdout_score(result.F.values, result.W.values, pairs,
                                              mask.pair_obs, cells, mask.attr_obs, ALPHA,
                                              ac.FitConfig().min_dot_guard)
            failures += checks.check_objective(scores[c], recomputed, checks.PRINTED_RTOL)
        return failures

    def describe(self):
        return (f"{self.pool} planted instances n={self.n} C={PLANT['c']} K={PLANT['k']}, "
                f"edges {min(self.edge_counts)}-{max(self.edge_counts)}, as files")


WORKLOADS = {w.name: w for w in (PlantedFit, FF30kDetect, PlantedAuto)}


def ordered(cover):
    return sorted((tuple(sorted(c)) for c in cover.communities), key=lambda ids: (-len(ids), ids))


def machine_facts():
    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             "cpu": "unknown", "python": platform.python_version(),
             "numpy": np.__version__, "blas_threads": blas_threads(), "git_sha": git_sha()}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    return facts


def blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    return int(getattr(handle, symbol)())
    return "unknown"


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "attricom" / "__init__.py").is_file():
        print(f"bench: no attricom source under {SRC}", file=sys.stderr)
        return 2
    # numpy is already loaded by checks, so this times the package's own modules.
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import attricom as ac
    import attricom.cli  # noqa: F401  (ac.cli is looked up at call time)
    import_s = perf_counter() - start
    if Path(ac.__file__).resolve().parent != SRC / "attricom":
        print(f"bench: imported attricom from {ac.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    run = Run()
    patches = tracer.Patches()
    if isinstance(workload, Detect):
        workload.capture(patches)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts()}
    try:
        if args.trace:
            metrics = traced(ac, workload, args, run, workdir, tracer.Tracer(), info)
        else:
            metrics = untraced(ac, workload, args, run, workdir, import_s)
    finally:
        patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if metrics is None:
        print(f"bench: all {run.attempted} operations failed", file=sys.stderr)
        return 1
    verdict = workload.verdict(run)
    info.update(inputs=workload.describe(), attempted=run.attempted, failed=run.failed,
                failures=run.failures[:10], verdict=verdict,
                samples={k: len(v) for k, v in run.samples.items()})
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not verdict, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def untraced(ac, workload, args, run, workdir, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workload.setup(ac, args.seed, workdir)
        setups.append(perf_counter() - start)
    start = perf_counter()
    while not run.attempted or perf_counter() - start < args.seconds:
        for r in range(len(inputs)):
            workload.round(ac, inputs, r, run)
    if not run.samples["fit_s"] or not run.quality:
        return None  # no operation got as far as its timing and checks
    # Means over whole passes weigh every input equally; the median of a
    # planted-fit pass jumps between its whole-graph and damaged-graph fits.
    metrics = {"setup_s": (import_s + statistics.median(setups), "s"),
               "fit_s": (statistics.mean(run.samples["fit_s"]), "s"),
               "iter_s": (statistics.median(run.samples["iter_s"]), "s"),
               "detect_s": (statistics.mean(run.samples["detect_s"]), "s"),
               "recovery_f1": (statistics.mean(run.quality.values()), "ratio"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced(ac, workload, args, run, workdir, spans, info):
    """Alternate untraced and traced runs of round 0; per-layer metrics are the
    medians over the traced rounds, set-up is traced once for generation."""
    spans.install()
    try:
        inputs = workload.setup(ac, args.seed, workdir)
        generate_s = spans.metrics()["synthetic.generate_s"]
        called = set(spans.calls)
    finally:
        spans.restore()
    walls = {False: [], True: []}
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        for on in (False, True):
            spans.reset()
            if on:
                spans.install()
            run.wall = 0.0
            try:
                workload.round(ac, inputs, 0, run)
            finally:
                spans.restore()
            walls[on].append(run.wall)
        rounds.append(spans.metrics())
        called |= set(spans.calls)
    info.update(absent=spans.absent, broken=sorted(spans.broken),
                uncalled=sorted({s for _, _, s in tracer.TARGETS} - called))
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics["synthetic.generate_s"] = generate_s
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return {name: {"value": metrics[name], "unit": unit} for name, unit in tracer.UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
