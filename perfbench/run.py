"""Benchmark of the maxcover CLI on seeded workloads.

    python3 perfbench/run.py --workload large-sparse --seed 0 --seconds 36 --trace 0

Run from the repository root. The runner generates the workload's documents
from ``--seed`` under ``perfbench/_work/`` and drives the workload's job list
through the in-process ``maxcover.cli.main`` in a closed loop with one
client: one process, one thread, each job starting when the previous one has
ended. Every ``solve`` is followed by a ``verify`` of its report.

Every output is checked. For a seed in ``pins.json`` each job's exit code
and output digest must equal the ones pinned at the seed commit; for other
seeds the first pass sets the digests and every later pass must repeat them.
``verify`` must accept every report, and ``compare --with-opt`` rows must
meet their guarantees.

``--trace 0`` measures the end-to-end metrics over ``--seconds``: cycles of
one pass, a few cold ``python -m maxcover.cli solve`` runs and one more
document set-up, with times in reference seconds (see ``timed``). ``--trace
1`` alternates untraced passes with traced passes of the same ``cli.main``
(``tracing.py``) and reports per-layer self time, in plain seconds, and
exact counters. The process keeps to one vCPU, so that the other is left
free.

The last line of standard output is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric by name with its unit, and
``perfbench/_work/<workload>-seed<seed>/`` keeps the details and the spans.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PINS = HERE / "pins.json"

COLD_PER_CYCLE = 3
# With seven jobs a pass, 6 to 14 passes keep the tail percentile at p75.
MIN_PASSES = 6
MAX_PASSES = 14
MIN_TRACED_PASSES = 2

# One thread: keep numpy's BLAS pool from starting workers at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(SRC))

from measure import (  # noqa: E402
    check_output,
    compare_problem,
    digest,
    output_digest,
    self_time_by_name,
    tail_latency,
)

try:
    import maxcover
    from maxcover import cli
    from tracing import COUNTERS, LAYER_SPANS, Trace, ratios, time_validation_and_masks
    from workloads import WORKLOADS, write_document
except ImportError as err:  # reported by main(), which then exits 2
    IMPORT_ERROR: ImportError | None = err
else:
    IMPORT_ERROR = None

# The vCPUs of this kind of shared host change speed by up to 1.7x, for
# seconds or minutes at a time, so raw wall times of two runs differ by more
# than most changes worth measuring. Every timed op is therefore bracketed by
# ``speed_probe()``, a fixed piece of work shaped like the program's hot
# loops, and its time is scaled by REFERENCE_PROBE_S over the mean of the two
# probes. The end-to-end times are in these reference seconds; the raw wall
# times are printed beside them and kept in the details file. The probe
# repeats its work PROBE_ROUNDS times, because a single round (about 1 ms)
# reads the speed of one moment and adds noise of its own to every scaled op.
PROBE_ROUNDS = 3
REFERENCE_PROBE_S = PROBE_ROUNDS * 0.00085  # 0.85 ms: a round's median time on a 2-vCPU Xeon KVM guest
_PROBE_TEXT = "\n".join(
    "s " + " ".join(str((i * 7919 + j * 104729) % 5000 + 1) for j in range(12)) for i in range(60)
)


def speed_probe() -> float:
    """Seconds taken by PROBE_ROUNDS rounds of a fixed parse, mask build and
    greedy scan."""
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        masks = []
        for line in _PROBE_TEXT.splitlines():
            mask = 0
            for token in line.split()[1:]:
                mask |= 1 << (int(token) - 1)
            masks.append(mask)
        covered = 0
        for _ in range(6):
            best, best_gain = 0, -1
            for i, mask in enumerate(masks):
                gain = (mask & ~covered).bit_count()
                if gain > best_gain:
                    best, best_gain = i, gain
            covered |= masks[best]
        acc = 0
        for i in range(3000):
            acc += (i * 7) % 13
    return time.perf_counter() - start


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """``cli.main(argv)`` in process; returns (exit code, stdout, stderr).
    A traceback is returned as stderr with exit code None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash in the program is a failed job, not a crashed benchmark
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def timed(call):
    """(result, raw seconds, reference seconds) of ``call()``."""
    before = speed_probe()
    start = time.perf_counter()
    result = call()
    raw = time.perf_counter() - start
    return result, raw, raw * 2 * REFERENCE_PROBE_S / (before + speed_probe())


END_TO_END = {
    "batch_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "cold_solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in the order they are printed."""
    units = {f"{name}_s": "s" for name in LAYER_SPANS}
    units["generators.gen_s"] = "s"
    units.update({
        "core.parse_bytes": "bytes",
        "core.incidences": "count",
        "greedy.picks": "count",
        "exact.subsets_scanned": "count",
        "exact.scan_frac": "ratio",
        "fpt.pool_combos": "count",
        "hybrid.combos_scanned": "count",
        "minnoncovered.repetitions": "count",
        "minnoncovered.best_rep_frac": "ratio",
        "cli.oracle_answered_frac": "ratio",
        "trace.overhead_frac": "ratio",
    })
    return units


class Bench:
    """One workload at one seed: its documents, its checks and its samples."""

    def __init__(self, workload, seed: int, pinned: dict | None):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-seed{seed}"
        self.pinned = pinned
        self.expected = {op: tuple(v) for op, v in (pinned or {}).get("outputs", {}).items()}
        self.reference: dict[str, tuple[int, str]] = {}
        self.cli_output: dict[str, bytes | None] = {}
        self.doc_paths: dict[str, Path] = {}
        self.doc_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}  # op -> reference seconds, untraced passes only
        self.raw_samples: dict[str, list[float]] = {}  # op -> wall seconds

    # -- checks ------------------------------------------------------------

    def record(self, op: str, kind: str, code: int | None, data: bytes | None, stderr: str = "") -> None:
        """Count one attempted op and check its exit code and output."""
        self.attempted += 1
        out_digest = output_digest(kind, data) if code == 0 and data is not None else None
        problem = check_output(self.expected.get(op) or self.reference.get(op), code, out_digest)
        if problem is None and code != 0:
            problem = f"exit code {code}, expected 0"
        if problem is None and data is None:
            problem = "no output written"
        if problem is None and kind == "verify" and not data.startswith(b"ok:"):
            problem = f"verify said {data!r}"
        if problem is None and kind == "compare":
            problem = compare_problem(data.decode("ascii"))
        if problem is None:
            self.reference.setdefault(op, (code, out_digest))
        else:
            self.failures.append(f"{op}: {problem} {stderr.strip()[-300:]}".strip())

    # -- set-up ------------------------------------------------------------

    def setup(self, traced: bool) -> tuple[float, float, float]:
        """Generate and write every document once; returns the raw and the
        reference time and, when traced, the time inside ``generators``.
        Each document is timed on its own, so that its probes stay close to
        the work they scale."""
        tracer = Trace() if traced else None
        directory = self.dir / "docs"
        directory.mkdir(parents=True, exist_ok=True)
        raw = ref = 0.0
        for index, doc in enumerate(self.workload.docs):
            path, doc_raw, doc_ref = timed(lambda: write_document(doc, self.seed, index, directory, tracer))
            self.doc_paths[doc.name] = path
            raw, ref = raw + doc_raw, ref + doc_ref
        gen = self_time_by_name(tracer.spans).get("generators.gen", 0.0) if tracer is not None else 0.0
        digests = {name: digest(path.read_bytes()) for name, path in self.doc_paths.items()}
        if self.doc_digests is not None and digests != self.doc_digests:
            self.problems.append("documents differ between two set-ups with the same seed")
        if self.pinned is not None and self.pinned.get("documents") != digests:
            self.problems.append("documents differ from the pinned ones")
        self.doc_digests = digests
        return raw, ref, gen

    # -- passes ------------------------------------------------------------

    def _out(self, index: int, tag: str) -> Path:
        return self.dir / "out" / f"{index:02d}-{tag}.txt"

    def _verify_argv(self, job, report: Path) -> list[str]:
        return ["verify", "--in", str(self.doc_paths[job.doc]), "--sol", str(report)]

    def _call(self, op: str, argv: list[str], trace: Trace | None):
        """``call_cli(argv)`` timed; returns (result, raw s, reference s).
        Untraced, the latency is kept as a sample of ``op``; traced, the call
        runs in a ``bench.op`` span."""
        if trace is None:
            result, raw, ref = timed(lambda: call_cli(argv))
            self.raw_samples.setdefault(op, []).append(raw)
            self.samples.setdefault(op, []).append(ref)
            return result, raw, ref

        def call():
            with trace.span("bench.op"):
                return call_cli(argv)

        return timed(call)

    def run_pass(self, trace: Trace | None = None) -> tuple[float, float]:
        """One pass over the job list; returns the summed raw and reference
        times of its ops. With ``trace``, every layer call ``cli.main`` makes
        is traced, each output must equal the last untraced pass's, and the
        extra ``core.validate`` and ``core.set_masks`` calls run after each
        job, outside the timed ops."""
        (self.dir / "out").mkdir(parents=True, exist_ok=True)
        raw_sum = ref_sum = 0.0
        with trace.patched() if trace is not None else nullcontext():
            for index, job in enumerate(self.workload.jobs):
                out = self._out(index, "cli" if trace is None else "traced")
                out.unlink(missing_ok=True)
                if trace is not None:
                    trace.job, trace.instance = job.id, None
                argv = [*job.argv, "--in", str(self.doc_paths[job.doc]), "--out", str(out)]
                (code, _, stderr), raw, ref = self._call(job.id, argv, trace)
                raw_sum, ref_sum = raw_sum + raw, ref_sum + ref
                data = out.read_bytes() if code == 0 and out.exists() else None
                self.record(job.id, job.kind, code, data, stderr)
                if trace is None:
                    self.cli_output[job.id] = data
                elif data is not None and output_digest(job.kind, data) != output_digest(
                        job.kind, self.cli_output.get(job.id) or b""):
                    self.failures.append(f"traced {job.id}: output differs from the untraced pass")
                if job.kind == "solve":
                    op = "verify " + job.id
                    (code, stdout, stderr), raw, ref = self._call(op, self._verify_argv(job, out), trace)
                    raw_sum, ref_sum = raw_sum + raw, ref_sum + ref
                    self.record(op, "verify", code, stdout.encode("ascii"), stderr)
                if trace is not None and trace.instance is not None:
                    time_validation_and_masks(trace)
        return raw_sum, ref_sum

    def cold_solve(self) -> tuple[float, float]:
        """Wall time of a fresh ``python -m maxcover.cli solve``: the first
        solve job on the smallest document that has one. Its report is
        checked like the rest."""
        solves = [j for j in self.workload.jobs if j.kind == "solve"]
        smallest = min((j.doc for j in solves), key=lambda name: self.doc_paths[name].stat().st_size)
        job = next(j for j in solves if j.doc == smallest)
        out = self._out(99, "cold")
        out.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "maxcover.cli", *job.argv, "--in", str(self.doc_paths[smallest]), "--out", str(out)]
        proc, raw, ref = timed(lambda: subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=150))
        data = out.read_bytes() if proc.returncode == 0 and out.exists() else None
        self.record(job.id, "solve", proc.returncode, data, proc.stderr)
        return raw, ref


def _until(seconds: float, cycle, min_cycles: int, max_cycles: int) -> None:
    """Run ``cycle()`` at least ``min_cycles`` and at most ``max_cycles``
    times, and stop once one more is predicted to end after ``seconds``."""
    start = time.perf_counter()
    walls: list[float] = []
    while len(walls) < max_cycles:
        cycle_start = time.perf_counter()
        cycle()
        walls.append(time.perf_counter() - cycle_start)
        if len(walls) >= min_cycles and time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Cycles of one pass, COLD_PER_CYCLE cold solves and one more set-up,
    so that every metric samples the whole window of ``seconds``. Times are
    medians in reference seconds (see ``timed``)."""
    setups = [bench.setup(traced=False)]
    passes: list[tuple[float, float]] = []
    cold: list[tuple[float, float]] = []

    def cycle() -> None:
        passes.append(bench.run_pass())
        cold.extend(bench.cold_solve() for _ in range(COLD_PER_CYCLE))
        setups.append(bench.setup(traced=False))

    _until(seconds, cycle, MIN_PASSES, MAX_PASSES)
    job_ids = [job.id for job in bench.workload.jobs]
    latencies = [x for op in job_ids for x in bench.samples[op]]
    raw_latencies = [x for op in job_ids for x in bench.raw_samples[op]]
    tail = tail_latency(latencies)

    def med(pairs, i):
        return statistics.median(p[i] for p in pairs)

    metrics = {
        "batch_s": med(passes, 1),
        "solve_p50_s": statistics.median(latencies),
        "solve_tail_s": tail.value,
        "cold_solve_s": med(cold, 1),
        "setup_s": med(setups, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "batch_s": f"median of {len(passes)} passes; raw {med(passes, 0):.4g} s",
        "solve_p50_s": f"{len(latencies)} samples; raw {statistics.median(raw_latencies):.4g} s",
        "solve_tail_s": f"p{tail.percentile:g}, {tail.samples} samples, {tail.beyond} beyond; "
                        f"raw {tail_latency(raw_latencies).value:.4g} s",
        "cold_solve_s": f"median of {len(cold)} subprocess runs; raw {med(cold, 0):.4g} s",
        "setup_s": f"median of {len(setups)} set-ups; raw {med(setups, 0):.4g} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    details = {
        "notes": notes,
        "passes_raw_ref_s": passes,
        "op_latencies_ref_s": bench.samples,
        "op_latencies_raw_s": bench.raw_samples,
        "tail": {"percentile": tail.percentile, "samples": tail.samples, "beyond": tail.beyond},
        "cold_raw_ref_s": cold,
        "setup_raw_ref_s": [s[:2] for s in setups],
    }
    return metrics, details


def measure_per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Cycles of one untraced pass, one traced pass and one traced set-up."""
    gens = [bench.setup(traced=True)[2]]
    untraced: list[float] = []
    traced: list[float] = []
    traces: list[Trace] = []

    def cycle() -> None:
        untraced.append(bench.run_pass()[0])
        traces.append(Trace())
        traced.append(bench.run_pass(traces[-1])[0])
        gens.append(bench.setup(traced=True)[2])

    _until(seconds, cycle, MIN_TRACED_PASSES, MAX_PASSES)
    counters = traces[0].counters
    if any(t.counters != counters for t in traces):
        bench.problems.append("counters differ between two traced passes")

    by_pass = [self_time_by_name(t.spans) for t in traces]
    metrics = {f"{name}_s": statistics.median(t.get(name, 0.0) for t in by_pass) for name in LAYER_SPANS}
    metrics["generators.gen_s"] = statistics.median(gens)
    for name in per_layer_units():
        if name in COUNTERS:
            metrics[name] = counters[name]
    metrics.update(ratios(counters))
    # Both sides sum the CLI calls alone, without the benchmark's bookkeeping
    # or the extra core.validate and core.set_masks calls.
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    details = {
        "untraced_ops_s": untraced,
        "traced_ops_s": traced,
        "counters": {k: counters[k] for k in COUNTERS},
        "spans_file": str((bench.dir / "spans.json").relative_to(ROOT)),
    }
    spans_doc = [[s.__dict__ for s in t.spans] for t in traces]
    (bench.dir / "spans.json").write_text(json.dumps({"passes": spans_doc}))
    return {name: metrics[name] for name in per_layer_units()}, details


def load_pins(seed: int, workload: str) -> tuple[dict | None, str]:
    """The pins of one seed and workload, and the seed's role in pins.json:
    ' (default seed)', ' (held-out seed)' or ''."""
    if not PINS.exists():
        return None, ""
    pins = json.loads(PINS.read_text())
    role = {pins["default_seed"]: " (default seed)", pins["held_out_seed"]: " (held-out seed)"}.get(seed, "")
    return pins["seeds"].get(str(seed), {}).get(workload), role


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"error: cannot import the program from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if not Path(maxcover.__file__).resolve().is_relative_to(SRC):
        print(f"error: maxcover was imported from {maxcover.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}', expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return 2

    # One vCPU for this process and the cold-solve children, so that the
    # speed probes run where the timed work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    pinned, seed_role = load_pins(args.seed, args.workload)
    bench = Bench(WORKLOADS[args.workload], args.seed, pinned)
    if args.trace:
        metrics, details = measure_per_layer(bench, args.seconds)
        units = per_layer_units()
    else:
        metrics, details = measure_end_to_end(bench, args.seconds)
        units = END_TO_END
    failed = len(bench.failures)
    correct = failed == 0 and not bench.problems
    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace, pinned=pinned is not None,
        attempted=bench.attempted, failures=bench.failures, problems=bench.problems, metrics=metrics,
    )
    (bench.dir / f"result-trace{args.trace}.json").write_text(json.dumps(details, indent=1))

    notes = details.get("notes", {})
    print(f"workload {args.workload}, seed {args.seed}{seed_role}, digests {'pinned' if pinned else 'self-checked'}")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':44s} {failed / max(bench.attempted, 1):>14.6g} {'ratio':6s} {failed}/{bench.attempted} ops")
    for line in bench.failures[:20] + bench.problems:
        print(f"  FAIL {line}")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
