"""Benchmark for homfly3: end-to-end metrics per workload, or a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1209 --seconds 30 --trace 0

One process, one thread, closed loop: each request is sent after the
previous one returned.  The run first sets homfly3 up in this process (the
unknot at r = 1..4, which builds every mixing matrix), then repeats passes
over the workload's requests until another pass would end after
``--seconds`` (at least MIN_PASSES passes).  Before each of the first
SETUP_PROBES passes a fresh interpreter is set up and timed, so that the
probes are spread over the run like the passes.  Each output is checked
right after its request, outside the timed region.

Times are reported in seconds at a reference speed (see hostspeed.py):
the shared host this was written on switches between a fast and a slow
state, and in the slow one homfly3 runs up to about 1.7 times slower.  So
the run times hostspeed's reference loop, which shares no code with
homfly3, REF_LOOPS times after every request, and every SAMPLE_PERIOD
seconds while a request runs from a SIGALRM handler whose time is taken
out of the latency.  Each latency is multiplied by REF_SECONDS over the
median loop time before, during and after it; each set-up probe likewise,
with the loop timed inside the fresh interpreter.  A request's latency is
then the median of its scaled samples over the passes.  The loop does not
touch homfly3, so a change to the program moves the scaled times as it
moves the measured ones.  The details keep the times as measured and the
loop's median per pass.

``--trace 0`` reports the end-to-end metrics:

    setup_s      median over the probes of import + unknot at r = 1..4 in
                 a fresh interpreter, timed from outside
    wall_s       median over the passes of the time of a pass, the sum of
                 its request latencies
    req_p50_s    median over the requests of their latencies
    peak_rss_mb  peak resident memory of this process after the passes

The details also hold the least of each (over the probes, the passes and
each request's samples), and the pooled latency at the highest percentile
with ten samples beyond it, with its percentile and sample count.

``--trace 1`` adds one traced pass and a traced fresh-process set-up and
reports the per-layer metrics of tracer.LAYER_METRICS (plus ``setup.``
copies of tracer.SETUP_METRICS), with the times scaled like those of the
pass or probe they come from; the spans, as measured, go to
perfbench/out/.

The last line of standard output is the result object; the line before it
holds details (seed, generated words, each request's latency, pass and
probe times, load averages before and after, failures).  Exits 1 if any
output is wrong or the checker's self-test fails, and 2 if homfly3 cannot
be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
DEFAULT_SEED = 1209
SETUP_PROBES = 3
MIN_PASSES = 3
TAIL_BEYOND = 10

sys.path.insert(0, str(SRC))
try:
    import homfly3
except ImportError as exc:
    sys.stderr.write("cannot import homfly3 from %s: %s\n" % (SRC, exc))
    sys.exit(2)
if Path(homfly3.__file__).resolve().parent != SRC / "homfly3":
    sys.stderr.write("homfly3 was imported from %s, not from %s\n"
                     % (homfly3.__file__, SRC))
    sys.exit(2)

import setup_probe  # noqa: E402
from hostspeed import REF_LOOPS, HostSampler, time_reference, to_reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _child_env():
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class Pass:
    latencies: list  # as measured
    scaled: list  # at the reference speed
    refs: list  # every reference loop time of the pass
    failures: list
    self_test: bool


def _probe(*flags):
    """Set up a fresh interpreter; returns (time as measured, without the
    child's reference loops, the factor to the reference speed, and the
    child's report)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *flags]
    before = time_reference(4 * REF_LOOPS)
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    after = time_reference(4 * REF_LOOPS)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
    report = json.loads(proc.stdout.splitlines()[-1])
    during = report["reference_loop_s"]
    return elapsed - sum(during), to_reference(before + during + after), report


def run_pass(requests, sampler, tracer=None):
    """Send every request once and check its output before the next one.

    The reference loop is timed before the first request and right after
    each one, and by ``sampler`` while it runs; a latency is scaled by the
    median of the loop times on both sides of it and during it.  Only the
    requests are timed; each output is dropped once checked, so a pass never
    holds the outputs of earlier requests.
    """
    result = Pass([], [], [], [], True)
    before = time_reference()
    result.refs += before
    for i, req in enumerate(requests):
        with sampler:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = req.send()
                else:
                    tracer.request = i
                    out = tracer.span("bench.request", req.send)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                error = "%s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
        during = [d for start, d in sampler.ticks if start < t1]
        latency = t1 - t0 - sum(during)
        after = time_reference()
        result.refs += during + after
        result.latencies.append(latency)
        result.scaled.append(latency * to_reference(before + during + after))
        before = after
        if error is None:
            error = req.check(out)
            if error is None and req.wrong_check(out) is None:
                result.self_test = False
        if error is not None:
            result.failures.append("%s: %s" % (req.label, error))
        out = None
    return result


def _scaled(layer, factor):
    """Per-layer values with the times (names ending in _s) scaled."""
    return {name: value * factor if name.endswith("_s") else value
            for name, value in layer.items()}


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it, or (None, None) when there are too few samples."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None, None
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_before = os.getloadavg()
    setup_probe.unknot_at_all_ranks()
    work = workloads.build(args.workload, args.seed)
    requests = work.requests
    probes = 0 if args.trace else SETUP_PROBES

    sampler = HostSampler()
    setup_raw, setup_times, passes = [], [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        if len(setup_times) < probes:
            elapsed, factor, _ = _probe()
            setup_raw.append(elapsed)
            setup_times.append(elapsed * factor)
        passes.append(run_pass(requests, sampler))
        now = time.perf_counter()
        if (len(passes) >= MIN_PASSES and len(setup_times) >= probes
                and 2 * now - cycle_start - start > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = list(zip(*(ps.scaled for ps in passes)))
    per_request = [statistics.median(x) for x in samples]
    wall_s = statistics.median(sum(ps.scaled) for ps in passes)
    pooled = [x for ps in passes for x in ps.scaled]
    checked = list(passes)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(requests, sampler, tracer)
        finally:
            tracer.uninstall()
        checked.append(traced)
        factor = sum(traced.scaled) / sum(traced.latencies)
        layer = _scaled(tracer.layer_metrics(), factor)
        layer["trace.overhead_s"] = sum(traced.scaled) - wall_s
        _, setup_factor, report = _probe("--trace")
        setup_layer = _scaled(report["layer"], setup_factor)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("%s-seed%d.spans.tsv.gz" % (args.workload, args.seed))
        tracer.write_spans(spans_path)
        metrics = {}
        for name, unit, *_ in tracing.LAYER_METRICS:
            metrics[name] = {"value": layer[name], "unit": unit}
            if name in tracing.SETUP_METRICS:
                metrics["setup." + name] = {"value": setup_layer[name], "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "req_p50_s": {"value": statistics.median(per_request), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    failures = [f for ps in checked for f in ps.failures]
    self_test = all(ps.self_test for ps in checked)
    attempted = len(requests) * len(checked)
    tail_s, tail_pct = tail(pooled)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": [r.label for r in requests],
        "request_latencies_s": per_request,
        **work.details,
        "passes": len(passes),
        "pass_times_s": [sum(ps.scaled) for ps in passes],
        "measured_pass_times_s": [sum(ps.latencies) for ps in passes],
        "reference_loop_median_s": [statistics.median(ps.refs) for ps in passes],
        "setup_times_s": setup_times,
        "measured_setup_times_s": setup_raw,
        "setup_least_s": min(setup_times) if setup_times else None,
        "wall_least_s": min(sum(ps.scaled) for ps in passes),
        "req_p50_least_s": statistics.median(min(x) for x in samples),
        "req_tail_s": tail_s,
        "req_tail_percentile": tail_pct,
        "req_tail_samples": len(pooled),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "checker_self_test": "passed" if self_test else "FAILED",
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    if args.trace:
        details["spans"] = str(spans_path.relative_to(HERE.parent))
        details["span_count"] = len(tracer.span_name)
    print(json.dumps({"details": details}))

    correct = not failures and self_test
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
