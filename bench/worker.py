"""The side of the benchmark that runs relbec, in a fresh interpreter.

    python3 bench/worker.py MODE < spec.json

Every mode imports relbec.cli first, does the workload's untimed set-up,
prints `READY <import seconds>` and then does its work; the result is one
JSON line on stdout. MODE is one of:

  setup          stop after READY (set-up time is taken by the caller)
  eos            eos-grid rounds until spec["seconds"] have passed
  oracle         one oracle box ladder, timed after import
  trace-eos      one traced eos-grid round, then the probe
  trace-cli      one traced cli-figures round in this process, then the probe
  trace-oracle   one oracle box ladder, traced when spec["traced"]
  trace-probe    the probe alone
"""
import contextlib
import io
import json
import resource
import sys
import time


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def eos_round(quadrature, PhasePoint, RelBecError, points):
    """One pass over the grid: per point its latency in ns and
    [n1, n2, q_tilde] or the name of the error it raised."""
    times, values = [], []
    clock = time.perf_counter_ns
    for t, mu in points:
        start = clock()
        try:
            r = quadrature.thermal_charge_density(PhasePoint(t, mu))
            out = [r.n1, r.n2, r.q_tilde]
        except RelBecError as exc:
            out = type(exc).__name__
        times.append(clock() - start)
        values.append(out)
    return times, values


def run_eos(spec):
    from relbec import PhasePoint, RelBecError, quadrature
    points = [(p["t"], p["mu"]) for p in spec["ops"]]
    deadline = time.perf_counter() + spec["seconds"]
    times, first = eos_round(quadrature, PhasePoint, RelBecError, points)
    rounds, mismatched = 1, 0
    while time.perf_counter() < deadline:
        more, values = eos_round(quadrature, PhasePoint, RelBecError, points)
        times.extend(more)
        mismatched += sum(a != b for a, b in zip(values, first))
        rounds += 1
    return {"rounds": rounds, "times_ns": times, "values": first,
            "mismatched": mismatched, "maxrss_mb": _maxrss_mb()}


def oracle_ladder(oracle, PhasePoint, BoxSpec, op):
    phase = PhasePoint(op["t"], op["mu"])
    rows = []
    for length in op["boxes"]:
        cutoff = oracle.suggest_cutoff(phase, length)
        res = oracle.mode_sum(phase, BoxSpec(length, cutoff))
        rows.append({"box_length": length, "mode_cutoff": cutoff,
                     "q_tilde_fv": res.q_tilde_fv, "n1_fv": res.n1_fv,
                     "n2_fv": res.n2_fv, "modes_used": res.modes_used,
                     "tail_bound": res.tail_bound})
    return rows


def run_oracle(spec, tracer=None):
    from relbec import BoxSpec, PhasePoint, oracle
    if tracer is not None:
        tracer.install()
    start = time.perf_counter_ns()
    rows = oracle_ladder(oracle, PhasePoint, BoxSpec, spec["op"])
    elapsed = time.perf_counter_ns() - start
    out = {"time_ns": elapsed, "rows": rows, "maxrss_mb": _maxrss_mb()}
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.spans
    return out


def cli_in_process(main, argv):
    """relbec's main() with stdout and stderr captured, as one invocation:
    (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_probe(tracer, cases):
    import relbec.cli
    tracer.part = "probe"
    tracer.install()
    codes = [tracer.call_main(relbec.cli.main, argv)[0] for argv in cases]
    tracer.uninstall()
    return codes


def run_trace(mode, spec):
    import tracing
    tracer = tracing.Tracer()
    if mode == "trace-oracle":
        return run_oracle(spec, tracer if spec["traced"] else None)
    out = {"kernel_ns_per_node": tracing.kernel_ns_per_node()}
    if mode == "trace-eos":
        from relbec import PhasePoint, RelBecError, quadrature
        points = [(p["t"], p["mu"]) for p in spec["ops"]]
        start = time.perf_counter_ns()
        eos_round(quadrature, PhasePoint, RelBecError, points)
        out["untraced_ns"] = time.perf_counter_ns() - start
        tracer.install()
        start = time.perf_counter_ns()
        _, out["values"] = eos_round(quadrature, PhasePoint, RelBecError,
                                     points)
        out["traced_ns"] = time.perf_counter_ns() - start
        tracer.uninstall()
    elif mode == "trace-cli":
        import relbec.cli
        start = time.perf_counter_ns()
        for argv in spec["argvs"]:
            cli_in_process(relbec.cli.main, argv)
        out["untraced_ns"] = time.perf_counter_ns() - start
        tracer.install()
        start = time.perf_counter_ns()
        out["results"] = [tracer.call_main(relbec.cli.main, argv)
                          for argv in spec["argvs"]]
        out["traced_ns"] = time.perf_counter_ns() - start
        tracer.uninstall()
    out["probe_codes"] = run_probe(tracer, spec["probe"])
    out["spans"] = tracer.spans
    return out


def main():
    mode = sys.argv[1]
    spec = json.loads(sys.stdin.read() or "{}")
    start = time.perf_counter()
    import relbec.cli  # noqa: F401  (the import every user pays)
    import_s = time.perf_counter() - start
    if mode in ("eos", "trace-eos") or spec.get("workload") == "eos-grid":
        # let numpy's first-call set-up finish before timing
        from relbec import PhasePoint, thermal_charge_density
        thermal_charge_density(PhasePoint(1.0, 0.5))
    print(f"READY {import_s!r}", flush=True)
    if mode == "setup":
        return
    if mode == "eos":
        result = run_eos(spec)
    elif mode == "oracle":
        result = run_oracle(spec)
    else:
        result = run_trace(mode, spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
