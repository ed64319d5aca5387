"""The wmha benchmark: real `wmha verify` jobs, timed end to end and,
in a separate traced run, layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-golden

Every workload is a closed loop with one client: each job runs in a fresh
worker process (`bench/worker.py`) and the next job starts when that
worker has exited, so no state carries from one job to the next.  A run
repeats passes over the workload's job list while the next pass is
predicted to end no later than half a pass after --seconds; the first
pass always runs.  Twenty import-only workers at the start add set-up
samples; the engine's bytecode is compiled before them.
`verify_total_s` sums, over the jobs of a pass, each job's median wall
time over the run's passes.  Both timings are rescaled by the time of a
fixed reference computation that each worker runs next to its import and
its job (see REFERENCE_S); the wall times as measured are printed too.

Every job is checked: the worker must exit cleanly with exit code 0, the
certificate's fingerprint must equal the one recorded in
`bench/golden.json`, which holds every job any seed can run, and on
conjugated inputs the certificate's S and E.left must equal the oracles
P^-1 S0 P and Q^-1 E0.left Q computed by `bench/jobs.py`.

With --trace 1 a run makes one pass untraced, one recording spans and
one counting calls, and prints the per-layer metrics of `bench/layers.py`
and the tracing overhead.  The spans go to
`.bench_work/spans-<workload>-seed<seed>.jsonl`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
SETUP_PROBES = 20
RUN_LIMIT_S = 170            # a run must end within 180 s
UNITS = {"setup_s": "s", "verify_total_s": "s", "peak_rss_mb": "MB"}
# Timings are rescaled to a machine on which the worker's reference
# computation takes REFERENCE_S: this machine's speed drifts by a factor
# of up to two within minutes, and the reference, timed in the same worker
# next to the work it scales, drifts with it.
REFERENCE_S = 0.01

sys.path[:0] = [str(BENCH), str(SRC)]
import jobs  # noqa: E402
import layers  # noqa: E402


class JobFailed(Exception):
    pass


def fingerprint(report: dict) -> str:
    """sha256 of the verdict, the classification, the witnesses and the
    sorted (check id, status) pairs; schema, tool version and detail
    prose are left out."""
    core = {"verdict": report["verdict"],
            "classification": report["classification"],
            "witnesses": report["witnesses"],
            "checks": sorted([c["id"], c["status"]] for c in report["checks"])}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def oracle_mismatch(job, report: dict):
    w = report.get("witnesses", {})
    if jobs.sparse_as_dict(w.get("S", [])) != jobs.sparse_as_dict(job.oracle["S"]):
        return "S differs from the oracle P^-1 S0 P"
    if jobs.sparse_as_dict(w.get("E", {}).get("left", [])) != \
            jobs.sparse_as_dict(job.oracle["E.left"]):
        return "E.left differs from the oracle Q^-1 E0.left Q"
    return None


class Runner:
    """Starts one worker at a time and checks what it returns."""

    def __init__(self, golden: dict, deadline: float, env=None):
        self.golden = golden
        self.deadline = deadline
        # bytecode sits beside the sources whatever the environment says,
        # compiled here, so set-up is a warm import in every checkout and
        # no job worker pays for compiling in time or memory
        self.env = dict(os.environ if env is None else env)
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            self.env.pop(name, None)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "wmha"),
                        str(BENCH / "layers.py")],
                       cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, check=True)
        self.tmp = WORK / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self, job=None, mode="plain", spans_to=None) -> dict:
        """Run `job` (None: import only) in a fresh worker.  The outcome
        carries the worker's measurements, the report and, for a failed
        job, the reason."""
        self.count += 1
        base = self.tmp / f"job{self.count}"
        spec = {"src": str(SRC), "mode": "probe" if job is None else mode,
                "job": f"{self.count}:{job.name}" if job else "",
                "spans": f"{base}.spans.jsonl"}
        report_path = Path(f"{base}.report.json")
        if job is not None:
            argv = list(job.argv)
            if job.doc is not None:
                doc_path = f"{base}.doc.json"
                with open(doc_path, "w", encoding="utf-8") as fh:
                    json.dump(job.doc, fh)
                argv[argv.index("DOC")] = doc_path
            spec["argv"] = argv + ["--report", str(report_path)]
        spec_path, result_path = f"{base}.spec.json", f"{base}.result.json"
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        outcome = {"job": job, "mode": spec["mode"]}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), spec_path, result_path],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=timeout, env=self.env)
            if proc.returncode != 0:
                raise JobFailed(f"worker exited {proc.returncode}: "
                                f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
            with open(result_path, encoding="utf-8") as fh:
                outcome.update(json.load(fh))
            if job is not None:
                self._check(job, outcome, report_path)
            if spans_to is not None:
                with open(spans_to, "a", encoding="utf-8") as out, \
                        open(spec["spans"], encoding="utf-8") as fh:
                    shutil.copyfileobj(fh, out)
        except subprocess.TimeoutExpired:
            outcome["error"] = f"timed out after {timeout:.0f} s"
        except (JobFailed, OSError, ValueError) as exc:
            outcome["error"] = str(exc)
        finally:
            for leftover in self.tmp.glob(f"job{self.count}.*"):
                leftover.unlink()
        return outcome

    def _check(self, job, outcome: dict, report_path: Path) -> None:
        if outcome["exit"] != 0:
            raise JobFailed(f"exit code {outcome['exit']}")
        raw = report_path.read_bytes()
        report = json.loads(raw)
        outcome["fingerprint"] = fingerprint(report)
        outcome["cert_bytes"] = len(raw)
        outcome["witness_bits"] = layers.witness_bits(report.get("witnesses", {}))
        if job.oracle is not None:
            reason = oracle_mismatch(job, report)
            if reason:
                raise JobFailed(reason)
        if self.golden is None:        # recording the goldens
            return
        expected = self.golden.get(job.key)
        if expected is None:
            raise JobFailed("job missing from bench/golden.json")
        if expected["fingerprint"] != outcome["fingerprint"]:
            raise JobFailed("certificate fingerprint differs from bench/golden.json")


def tail(passes):
    """The highest percentile with at least ten samples beyond it, as
    (value, note).  Passes of eleven jobs or more each give one, and the
    median over passes is reported, so the percentile does not move with
    the number of passes a run makes; for smaller passes it is taken over
    all jobs, or is the maximum when there are fewer than eleven."""
    def one(xs):
        xs = sorted(xs)
        return xs[len(xs) - 11] if len(xs) > 10 else xs[-1]

    size = len(passes[0])
    if size > 10:
        return (statistics.median(one(p) for p in passes),
                f"p{100.0 * (size - 10) / size:.1f} of each pass of {size} jobs, "
                f"10 beyond, median over {len(passes)} passes")
    times = [t for p in passes for t in p]
    n = len(times)
    if n > 10:
        return one(times), f"p{100.0 * (n - 10) / n:.1f} of n={n}, 10 beyond"
    return one(times), f"maximum of n={n}: fewer than 11 samples"


def report_failures(outcomes) -> int:
    failed = [o for o in outcomes if o.get("error")]
    for o in failed:
        name = o["job"].name if o["job"] else "set-up probe"
        print(f"  FAILED {name} ({o['mode']}): {o['error']}")
    return len(failed)


def measure(workload: str, seed: int, seconds: float, runner: Runner) -> dict:
    """The untraced run: end-to-end metrics of one workload."""
    source = jobs.job_source(workload, seed)
    start = time.monotonic()
    probes = [runner.run() for _ in range(SETUP_PROBES)]
    outcomes, pass_times, pass_walls = [], [], []
    while not pass_walls or \
            time.monotonic() - start + statistics.median(pass_walls) / 2 <= seconds:
        began = time.monotonic()
        done = [runner.run(job) for job in source(len(pass_walls))]
        outcomes += done
        pass_walls.append(time.monotonic() - began)
        if any(o.get("error") for o in done):
            break
        pass_times.append([o["job_s"] for o in done])
    failed = report_failures(probes + outcomes)
    samples = [o for o in probes + outcomes if "ref_s" in o]
    by_name: dict = {}
    for o in outcomes:
        if not o.get("error"):
            by_name.setdefault(o["job"].name, []).append(o)

    def rescaled(wall: str):
        return lambda o: o[wall] * REFERENCE_S / o["ref_s"]

    def measured(wall: str):
        return lambda o: o[wall]

    def one_pass(value) -> float:
        """Sum over the pass's jobs of each job's median `value`."""
        return sum(statistics.median(map(value, os_)) for os_ in by_name.values())

    metrics = {}
    if not failed:
        metrics = {
            "setup_s": statistics.median(map(rescaled("setup_s"), samples)),
            "verify_total_s": one_pass(rescaled("job_s")),
            "peak_rss_mb": max(o["peak_rss_kb"] for o in outcomes) / 1024,
        }
    print(f"workload {workload} seed {seed}: {len(outcomes)} jobs in "
          f"{len(pass_walls)} passes, {failed} failed, "
          f"{time.monotonic() - start:.1f} s")
    notes = {"setup_s": f"median of {len(samples)} fresh-worker imports, rescaled",
             "verify_total_s": f"sum over the {len(by_name)} jobs of a pass of each "
                               f"one's median over {len(pass_times)} passes, rescaled"}
    for name, value in metrics.items():
        print(f"  {name:16} {value:12.6f} {UNITS[name]:3} {notes.get(name, '')}")
    if metrics:
        print(f"  {'setup_wall_s':16} "
              f"{statistics.median(map(measured('setup_s'), samples)):12.6f} s   "
              f"setup_s as measured, not rescaled (printed only)")
        print(f"  {'verify_wall_s':16} {one_pass(measured('job_s')):12.6f} s   "
              f"verify_total_s as measured, not rescaled (printed only)")
        print(f"  {'reference_s':16} "
              f"{statistics.median(map(measured('ref_s'), samples)):12.6f} s   "
              f"median time of the reference computation (printed only)")
    if pass_times:
        times = [t for p in pass_times for t in p]
        tail_value, tail_note = tail(pass_times)
        print(f"  {'job_p50_s':16} {statistics.median(times):12.6f} s   n={len(times)}"
              f", not rescaled (printed only)")
        print(f"  {'job_tail_s':16} {tail_value:12.6f} s   {tail_note}, not rescaled "
              f"(printed only)")
    attempted = len(outcomes)
    print(f"  {'failed_share':16} {failed / max(attempted, 1):12.6f} share "
          f"({failed}/{attempted} jobs)")
    return {"correct": failed == 0 and bool(pass_times), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


def count_metrics(counted) -> dict:
    """Count metrics of one pass of checked jobs run in "counts" mode."""
    totals: dict = {}
    for o in counted:
        for key, value in o["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return layers.count_metrics(totals, max(o["witness_bits"] for o in counted),
                                sum(o["cert_bytes"] for o in counted))


def trace(workload: str, seed: int, runner: Runner) -> dict:
    """The traced run: one pass each untraced, with spans and counting."""
    batch = jobs.job_source(workload, seed)(0)
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    plain = [runner.run(job) for job in batch]
    spanned = [runner.run(job, "spans", spans_to=spans_path) for job in batch]
    counted = [runner.run(job, "counts") for job in batch]
    outcomes = plain + spanned + counted
    failed = report_failures(outcomes)
    metrics = {}
    if not failed:
        metrics.update(layers.span_metrics(str(spans_path)))
        metrics.update(count_metrics(counted))
    print(f"traced workload {workload} seed {seed}: {len(batch)} jobs per pass, "
          f"{failed} failed; spans in {spans_path.relative_to(ROOT)}")
    out = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in sorted(metrics.items())}
    if not failed:
        traced = sum(o["job_s"] * REFERENCE_S / o["ref_s"] for o in spanned)
        untraced = sum(o["job_s"] * REFERENCE_S / o["ref_s"] for o in plain)
        out["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
        print(f"  tracing overhead: traced pass {traced:.4f} s over untraced "
              f"{untraced:.4f} s = {traced / untraced:.3f}")
    for name, m in out.items():
        print(f"  {name:36} {m['value']:16.6f} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": out}


def record_golden(runner: Runner) -> int:
    """Fingerprint every job any seed can run into bench/golden.json."""
    golden = {}
    for workload in jobs.WORKLOADS:
        for job in jobs.every_job(workload):
            o = runner.run(job)
            if o.get("error"):
                print(f"cannot record {job.name}: {o['error']}", file=sys.stderr)
                return 1
            golden[job.key] = {"job": f"{workload}: {job.name}",
                               "fingerprint": o["fingerprint"]}
            print(f"{workload}: {job.name} {o['fingerprint'][:16]}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    needed = [SRC / "wmha" / "cli.py"] + ([] if args.record_golden else [GOLDEN])
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark needs {', '.join(missing)}", file=sys.stderr)
        return 2
    golden = None
    if not args.record_golden:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    runner = Runner(golden, time.monotonic() + 3600)
    try:
        if args.record_golden:
            return record_golden(runner)
        workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in workloads:
            runner.deadline = time.monotonic() + RUN_LIMIT_S
            results[w] = trace(w, args.seed, runner) if args.trace \
                else measure(w, args.seed, args.seconds, runner)
    finally:
        runner.close()
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
