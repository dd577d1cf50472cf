"""One workload in one process: set up, then time it, trace it, or stop.

``run.py`` starts this file once per set-up sample and once for the measured
run, with the environment it needs (the checkout's ``src`` on PYTHONPATH,
one BLAS thread).  It prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|timed|traced
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_trigint() -> None:
    try:
        import trigint
    except ImportError as exc:
        raise SystemExit(f"worker: cannot import trigint from {ROOT}/src: {exc}") from exc
    expected = os.path.join(ROOT, "src", "trigint", "")
    if not os.path.abspath(trigint.__file__).startswith(expected):
        raise SystemExit(f"worker: imported trigint from {trigint.__file__}, not from {expected}")


def drive(wl, rounds, *, call, prepare, tracer=None, seconds=None):
    """Time the requests of whole rounds; stop at the round boundary nearest ``seconds``."""
    latencies, records, errors = [], [], []
    for count, requests in enumerate(rounds, 1):
        wl.begin_round()
        for request in requests:
            prepare(request)
            if tracer is not None:
                tracer.rebase_caches()
            span = tracer.request() if tracer is not None else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    output = call(request)
            except Exception as exc:  # a failed request is counted, listed and kept
                latencies.append(time.perf_counter() - start)
                errors.append(f"{request!r}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.checkpoint_caches()
            records.append((request, wl.record(request, output)))
        if seconds is not None and sum(latencies) * (1 + 0.5 / count) >= seconds:
            break
    return latencies, records, errors


def timed_run(wl, first, seconds: float) -> dict:
    def rounds():
        yield first
        while True:
            yield wl.round()

    latencies, records, errors = drive(wl, rounds(), call=wl.run, prepare=wl.prepare, seconds=seconds)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-short" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    failures = errors + wl.check(records)
    busy = sum(latencies)
    return {
        "attempted": len(latencies),
        "samples": len(latencies),
        "failures": failures,
        "measured_s": busy,
        "metrics": {
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "throughput_rps": len(latencies) / busy,
            "success_rate": 1 - len(failures) / len(latencies),
            "peak_rss_mb": peak_mb,
        },
    }


def _median_wall(argv: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes() -> tuple[dict, list[str]]:
    """The ROADMAP north-star reference calls, cold and untraced."""
    from trigint import closedform, recurrence
    from workloads import cold_reset

    def cold(fn):
        cold_reset()
        start = time.perf_counter()
        value = fn()
        return time.perf_counter() - start, value

    t_c1, c1 = cold(lambda: recurrence.cos_moment(120, 120))
    t_b1, b1 = cold(lambda: closedform.even_branch(60, 120))
    t_c2, c2 = cold(lambda: recurrence.cos_moment(400, 30))
    t_b2, b2 = cold(lambda: closedform.even_branch(200, 30))
    t_k, k = cold(lambda: closedform.coeff_via_recurrence(30, 6, 2))
    failures = [f"probe {name}: routes differ" for name, ok in (
        ("c(120,120)", c1 == b1.assembled), ("c(400,30)", c2 == b2.assembled),
        ("coeff_via_recurrence(30,6,2)", k == closedform.even_branch(30, 6).coeffs[2]),
    ) if not ok]
    cold_reset()
    interpreter = _median_wall([sys.executable, "-c", "pass"], 5)
    values = {
        "probe.cos_moment_120_120_s": t_c1,
        "probe.even_branch_60_120_s": t_b1,
        "probe.cos_moment_400_30_s": t_c2,
        "probe.even_branch_200_30_s": t_b2,
        "probe.coeff_via_recurrence_30_6_2_s": t_k,
        "probe.cli_eval_s": _median_wall(
            [sys.executable, "-m", "trigint.cli", "eval", "--family", "c", "--n", "2", "--p", "1"], 3),
        "cli.interpreter_s": interpreter,
        "cli.import_s": _median_wall([sys.executable, "-c", "import trigint.cli"], 5) - interpreter,
    }
    return values, failures


def traced_run(wl, first) -> dict:
    from tracer import MODULES, Tracer
    from workloads import cold_reset

    rounds = [first] + [wl.round() for _ in range(wl.traced_rounds - 1)]
    cold_reset()
    plain, records, errors = drive(wl, rounds, call=wl.replay, prepare=wl.prepare_replay)
    tracer = Tracer()
    tracer.install()
    try:
        cold_reset()
        traced, traced_records, traced_errors = drive(
            wl, rounds, call=wl.replay, prepare=wl.prepare_replay, tracer=tracer)
    finally:
        tracer.uninstall()
    failures = errors + traced_errors + wl.check(records)
    if traced_errors == errors and traced_records != records:
        failures.append("traced replay gave different outputs from the untraced one")
    probe_values, probe_failures = probes()
    failures += probe_failures

    calls, self_s, k = tracer.calls, tracer.seconds, tracer.counters
    request_s = (tracer.request_ns - tracer.observe_ns) / 1e9
    lookups = k["cache_hits"] + k["cache_misses"]
    metrics = {
        "pipoly.arith.calls": calls["pipoly.arith"],
        "pipoly.arith.self_s": self_s("pipoly.arith"),
        "pipoly.coeff_bits.max": k["coeff_bits_max"],
        "pipoly.evaluate.calls": calls["pipoly.evaluate"],
        "pipoly.evaluate.self_s": self_s("pipoly.evaluate"),
        "pipoly.render.self_s": self_s("pipoly.render"),
        "recurrence.cos_moment.calls": calls["recurrence.cos_moment"],
        "recurrence.cos_moment.self_s": self_s("recurrence.cos_moment"),
        "recurrence.sin_moment.self_s": self_s("recurrence.sin_moment"),
        "recurrence.base_rows.self_s": self_s("recurrence.base_rows"),
        "recurrence.solve_first_order.self_s": self_s("recurrence.solve_first_order"),
        "recurrence.cache.hits": k["cache_hits"],
        "recurrence.cache.misses": k["cache_misses"],
        "recurrence.cache.hit_ratio": k["cache_hits"] / lookups if lookups else 0.0,
        "recurrence.cache.size_max": k["cache_size_max"],
        "eulersums.nested_sum.calls": calls["eulersums.nested_sum"],
        "eulersums.nested_sum.self_s": self_s("eulersums.nested_sum"),
        "eulersums.tail_coupled_sum.calls": calls["eulersums.tail_coupled_sum"],
        "eulersums.tail_coupled_sum.self_s": self_s("eulersums.tail_coupled_sum"),
        "eulersums.central_tail.self_s": self_s("eulersums.central_tail"),
        "closedform.branch.calls": calls["closedform.branch"],
        "closedform.branch.self_s": self_s("closedform.branch") + self_s("closedform.star"),
        "closedform.cascade.calls": calls["closedform.cascade"],
        "closedform.cascade.self_s": self_s("closedform.cascade"),
        "quadrature.finite.calls": calls["quadrature.finite"],
        "quadrature.finite.self_s": self_s("quadrature.finite"),
        "quadrature.panels": k["panels"],
        "quadrature.halfline.calls": calls["quadrature.halfline"],
        "quadrature.halfline.self_s": self_s("quadrature.halfline"),
        "quadrature.arches": k["arches"],
        "quadrature.accelerate.self_s": self_s("quadrature.accelerate"),
        "quadrature.unconverged": k["unconverged"],
        "quadrature.converged_ratio": 1 - k["unconverged"] / k["oracles"] if k["oracles"] else 0.0,
        "halfline.closed_form.calls": calls["halfline.closed_form"],
        "halfline.closed_form.self_s": self_s("halfline.closed_form"),
        "halfline.special.self_s": self_s("halfline.special"),
        "report.self_s": self_s("report"),
        "cli.main.self_s": self_s("cli.main"),
        **{f"{module}.share": self_s(module) / request_s for module in MODULES},
        "trace.request_s": request_s,
        "trace.unattributed_s": self_s("request"),
        "trace.coverage_ratio": 1 - self_s("request") / request_s,
        "trace.overhead_ratio": sum(traced) / sum(plain),
        **probe_values,
    }
    return {
        "attempted": len(plain) + 3,
        "samples": len(plain),
        "failures": failures,
        "measured_s": sum(plain),
        "traced_s": sum(traced),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = parser.parse_args()

    _import_trigint()
    import mpmath
    import numpy

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ROOT)
    first = wl.round()
    wl.warm_up()
    ready = time.perf_counter()
    if args.mode == "setup":
        result = {}
    elif args.mode == "timed":
        result = timed_run(wl, first, args.seconds)
    else:
        result = traced_run(wl, first)
    result.update(
        ready=ready,
        reference_defects=sorted(set(wl.reference_defects)),
        versions={"python": sys.version.split()[0], "mpmath": mpmath.__version__, "numpy": numpy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
