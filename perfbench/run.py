#!/usr/bin/env python3
"""brauerlab benchmark: certificates end to end, and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quartic-rational --seed 1 \
        --seconds 40 --trace 0

A single closed-loop caller certifies the workload's seeded input set one
certificate at a time, pass after pass, for about ``--seconds``: a new pass
starts only while the median pass so far still fits in the window, and
the first pass always runs.  Every verdict is checked against its
known answer.

Reported times are speed-adjusted: the host this was tuned on changes
speed by up to 2x over seconds to minutes, so every timed interval is
bracketed by a fixed walk over a list of ints that uses no brauerlab code
(``reference_s``) and scaled by ``REFERENCE_S`` over the faster of its
readings just before and just after the interval.  A time so reads
in seconds at the speed where the reference takes ``REFERENCE_S``; the raw
wall times are in the info line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's context (machine, code, fingerprint, sample counts).

``--trace 1`` makes one untraced pass and then, with the layer functions
wrapped (see tracing.py), builds the inputs again and makes one traced
pass; it reports the per-layer metrics and writes the spans under
``.perfbench-out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 7          # fresh interpreters timed per run for setup_s, at least
PROBES_PER_GAP = 2        # of them before each pass
PROBE_TIMEOUT_S = 120
REFERENCE_ITEMS = 200_000  # ints walked by the host-speed reference
REFERENCE_S = 0.035        # time of the walk at the reference speed
SEGMENT_S = 0.25           # wall time between two speed readings in a pass
WORKLOADS = ("quartic-rational", "quartic-symbolic", "lattice-family")


def use_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "brauerlab" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


# ------------------------------------------------------------ certifying


def reference_data() -> list:
    """Distinct Python ints in shuffled order, so that a walk over the list
    visits them all over the heap, as the program's scalars and matrix
    entries are.  Built once per process, outside any timed interval."""
    rng = random.Random(0)
    data = [rng.randrange(1 << 31, 1 << 62) for _ in range(REFERENCE_ITEMS)]
    rng.shuffle(data)
    return data


REFERENCE = reference_data()


def reference_s() -> float:
    """Wall time of one walk over ``REFERENCE``: the host's current speed.
    A walk that misses the second-level cache tracked the program's
    slow-downs better, on the host this was tuned on, than a loop that
    stays in the first-level cache, a small integer elimination, or the
    fastest of three shorter walks."""
    start = time.perf_counter()
    total = 0
    for x in REFERENCE:
        total += x % 7
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the reference speed.  The
    faster reading is taken: an interruption only ever slows one down."""
    return REFERENCE_S / min(before, after)


@dataclass
class Result:
    name: str
    wall_s: float
    matched: bool
    verdict: Any
    payload: Any
    error: Optional[str]
    seconds: float = 0.0    # wall_s at the reference speed


def run_pass(certificates, tracer=None) -> list:
    """Certify each input in order, one at a time; never raises for a
    certificate that fails, it records the miss instead.

    The speed is read before the first certificate, after the last, and
    between two certificates once ``SEGMENT_S`` has passed since the last
    reading; each certificate is scaled by the readings around it.
    """
    results, segment = [], []
    before, mark = reference_s(), time.perf_counter()
    for index, cert in enumerate(certificates):
        if tracer is not None:
            tracer.certificate = cert.name
        scope = tracer.span("certificate") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                verdict, payload = cert.run()
            error = None
        except Exception as exc:  # a raising certificate is a wrong verdict
            verdict, payload, error = None, None, f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
        segment.append(Result(cert.name, wall_s, error is None
                              and verdict == cert.expected, verdict, payload,
                              error))
        if (index == len(certificates) - 1
                or time.perf_counter() - mark >= SEGMENT_S):
            after = reference_s()
            scale = speed_scale(before, after)
            for r in segment:
                r.seconds = r.wall_s * scale
            results += segment
            segment, before, mark = [], after, time.perf_counter()
    return results


def fingerprint(results) -> str:
    """sha256 of the sorted-key JSON of the payloads, in name order."""
    items = sorted(([r.name, r.payload] for r in results), key=lambda i: i[0])
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cert_medians(results) -> dict:
    """Median time of each certificate over the passes."""
    times: dict = {}
    for r in results:
        times.setdefault(r.name, []).append(r.seconds)
    return {name: statistics.median(ts) for name, ts in sorted(times.items())}


def misses(results) -> list:
    return [{"certificate": r.name, "verdict": r.verdict, "error": r.error}
            for r in results if not r.matched]


# ---------------------------------------------------------------- context


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform()}


def code() -> dict:
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(p.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "src.lines": src_lines()}


def tail(samples: list) -> Optional[dict]:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[q - 1]
            return {"percentile": q, "value": cut}
    return None


# ------------------------------------------------------------------ set-up


def setup_probe(workload: str, seed: int) -> int:
    """Child side of setup_s: import brauerlab and build the inputs."""
    before = reference_s()
    start = time.perf_counter()
    import workloads
    workloads.build(workload, seed)
    wall_s = time.perf_counter() - start
    print(json.dumps({"setup_s": wall_s * speed_scale(before, reference_s()),
                      "wall_s": wall_s}))
    return 0


def measure_setup(workload: str, seed: int, count: int) -> list:
    """``count`` probes in fresh interpreters: [setup_s, wall_s] each."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append([probe["setup_s"], probe["wall_s"]])
    return times


# -------------------------------------------------------------------- runs


def untraced(workload: str, seed: int, seconds: float) -> tuple:
    import workloads

    inputs = workloads.build(workload, seed)
    setup, passes, pass_walls = [], [], []
    start = time.perf_counter()
    while True:
        # set-up probes go between passes, so they sample the whole window
        setup += measure_setup(workload, seed, PROBES_PER_GAP)
        t0 = time.perf_counter()
        passes.append(run_pass(inputs.certificates))
        pass_walls.append(time.perf_counter() - t0)
        # start another pass only if it should end inside the window
        if time.perf_counter() - start + statistics.median(pass_walls) > seconds:
            break
    setup += measure_setup(workload, seed, max(SETUP_PROBES - len(setup), 1))
    results = [r for p in passes for r in p]
    failed = len(misses(results))
    pass_times = [sum(r.seconds for r in p) for p in passes]
    cert_times = [r.seconds for r in results]
    metrics = {
        "verdict_s": (statistics.median(pass_times), "s"),
        "cert_p50_s": (statistics.median(cert_times), "s"),
        "verdict_match": (1 - failed / len(results), "share"),
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {
        "passes": len(passes), "pass_s": pass_times,
        "pass_wall_s": [sum(r.wall_s for r in p) for p in passes],
        "setup_samples_s": setup,
        "cert_n": len(cert_times), "cert_tail_s": tail(cert_times),
        "cert_median_s": cert_medians(results),
        "fingerprints": sorted({fingerprint(p) for p in passes}),
        "gen": inputs.gen, "misses": misses(results)[:10],
    }
    return results, failed, metrics, info


def traced(workload: str, seed: int) -> tuple:
    import workloads
    from tracing import Tracer

    inputs = workloads.build(workload, seed)
    base = run_pass(inputs.certificates)
    base_s = sum(r.seconds for r in base)
    with Tracer() as tracer:
        with tracer.span("setup"):
            inputs = workloads.build(workload, seed)
        traced_pass = run_pass(inputs.certificates, tracer)
    traced_s = sum(r.seconds for r in traced_pass)
    spans_file = OUT / f"spans-{workload}-seed{seed}.json"
    tracer.write(spans_file)
    results = base + traced_pass
    metrics = tracer.metrics()
    metrics["gen.resampled"] = (inputs.gen.get("resampled", 0), "count")
    metrics["src.lines"] = (src_lines(), "lines")
    metrics["trace.overhead"] = (traced_s / base_s, "ratio")
    info = {
        "untraced_s": base_s, "traced_s": traced_s, "cert_n": len(results),
        "fingerprints": sorted({fingerprint(base), fingerprint(traced_pass)}),
        "gen": inputs.gen, "spans": str(spans_file.relative_to(ROOT)),
        "misses": misses(results)[:10],
    }
    return results, len(misses(results)), metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not use_sources():
        print(f"perfbench: no brauerlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    if args.trace:
        results, failed, metrics, info = traced(args.workload, args.seed)
    else:
        results, failed, metrics, info = untraced(args.workload, args.seed,
                                                  args.seconds)
    # every pass must serialize its payloads identically
    correct = failed == 0 and len(info["fingerprints"]) == 1
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "machine": machine(), "code": code()}
    print(json.dumps({"info": {**context, **info}}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
