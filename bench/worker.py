"""Run one job in this fresh process and write what it measured.

    python3 bench/worker.py SPEC_JSON RESULT_JSON

The spec names the CLI argv, a report path, and a mode: "probe" only
imports `wmha.cli`; "plain" runs the job untraced; "spans" and "counts"
run it under `layers.install`.  The result holds the import time, the
job's wall time, its exit code and this process's peak RSS, and the
median time of a fixed reference computation run twice after the import
and, for a job, twice more just after it, which tracks the speed the
shared machine gave the worker meanwhile.  The worker then leaves
without tearing the interpreter down, which is not part of the job and
takes up to half a second after a large one.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

REFERENCE_TERMS = 1000


def reference() -> float:
    """Wall time of a fixed stdlib-Fraction sum, about 10 ms; it uses no
    wmha code, so no change to the engine moves it.  `fractions` is
    imported here, after `wmha.cli`, so that set-up still pays for it."""
    from fractions import Fraction
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.  ru_maxrss
    also counts the runner's, which the worker inherits across fork and
    exec, so it is the fallback only."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import wmha.cli
    result = {"setup_s": time.perf_counter() - start}
    refs = [reference(), reference()]
    if spec["mode"] != "probe":
        recorder = None
        if spec["mode"] != "plain":
            import layers
            recorder = layers.install(spec["mode"])
        start = time.perf_counter()
        try:
            code = wmha.cli.main(spec["argv"])
        except SystemExit as exc:      # argparse rejects bad argv this way
            code = exc.code
        result["job_s"] = time.perf_counter() - start
        refs += [reference(), reference()]
        result["exit"] = code
        if spec["mode"] == "spans":
            recorder.write(spec["spans"], spec["job"])
        elif spec["mode"] == "counts":
            result["counts"] = recorder.counts
    refs.sort()
    result["ref_s"] = (refs[len(refs) // 2 - 1] + refs[len(refs) // 2]) / 2   # median
    result["peak_rss_kb"] = peak_rss_kb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)
