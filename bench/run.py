"""relbec benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload {eos-grid,cli-figures,oracle}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; relbec is imported from ./src. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1. A record of the run (and the spans of a traced run) goes
to bench/out/. See bench/README.md for what is measured and why.
"""
import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
PY = sys.executable

SETUP_SAMPLES = 4      # fresh interpreters timed for setup_s
IMPORT_SAMPLES = 3     # fresh interpreters timed for cli.import_s
CHILD_TIMEOUT = 120.0  # seconds any one child may take
RUN_TIMEOUT = 175      # the whole run, so it ends within 180 s

_current = []          # the child running now, killed on timeout


class Child:
    """One finished child process: exit code, output, wall time from
    spawn to exit, time from spawn to its READY line, peak RSS."""

    def __init__(self, argv, stdin_text=None, wait_ready=False):
        start = time.perf_counter()
        with tempfile.TemporaryFile("w+", dir=OUT_DIR) as err:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=_env(), text=True, stderr=err,
                stdin=subprocess.DEVNULL if stdin_text is None else subprocess.PIPE,
                stdout=subprocess.PIPE)
            _current.append(proc)
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                if stdin_text is not None:
                    proc.stdin.write(stdin_text)
                    proc.stdin.close()
                self.ready_line = self.ready_s = None
                if wait_ready:
                    self.ready_line = proc.stdout.readline()
                    self.ready_s = time.perf_counter() - start
                self.stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - start
            finally:
                timer.cancel()
                _current.remove(proc)
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            err.seek(0)
            self.stderr = err.read()
        self.maxrss_mb = usage.ru_maxrss / 1024.0

    def check(self):
        if self.code != 0 or (self.ready_line is not None
                              and not self.ready_line.startswith("READY")):
            raise RuntimeError(f"worker failed ({self.code}): "
                               f"{self.stderr.strip()[-2000:]}")
        return self

    def result(self):
        return json.loads(self.check().stdout.strip().splitlines()[-1])


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def worker(mode, spec, wait_ready=True):
    return Child([PY, WORKER, mode], json.dumps(spec), wait_ready)


def setup_samples(workload, n):
    """Fresh interpreter -> import relbec.cli -> workload set-up -> READY:
    (seconds to READY, import seconds reported by the child) per sample."""
    out = []
    for _ in range(n):
        child = worker("setup", {"workload": workload}).check()
        out.append((child.ready_s, float(child.ready_line.split()[1])))
    return out


# --- the timed window of each workload -----------------------------------

def another_round(start, rounds, seconds):
    """The first round always runs; another only if a round as long as the
    average so far still ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds


def run_eos(ops, seconds):
    child = worker("eos", {"ops": ops, "seconds": seconds})
    res = child.result()
    reasons = checks.check_eos(ops, res["values"])
    latencies = [ns / 1e9 for ns in res["times_ns"]]
    return {"rounds": res["rounds"], "latencies": latencies,
            "reasons": reasons, "peak_rss_mb": child.maxrss_mb,
            "consistent": res["mismatched"] == 0}


def run_cli(ops, seconds):
    argvs = [wl.cli_argv(op) for op in ops]
    start = time.perf_counter()
    rounds, latencies, rss, first, consistent = 0, [], [], None, True
    while another_round(start, rounds, seconds):
        results = []
        for argv in argvs:
            child = Child([PY, "-m", "relbec.cli", *argv])
            latencies.append(child.wall_s)
            rss.append(child.maxrss_mb)
            results.append((child.code, child.stdout, child.stderr))
        if first is None:
            first = results
        consistent &= [r[:2] for r in results] == [r[:2] for r in first]
        rounds += 1
    return {"rounds": rounds, "latencies": latencies,
            "reasons": checks.check_cli(ops, first),
            "peak_rss_mb": max(rss), "consistent": consistent}


def run_oracle(ops, seconds):
    start = time.perf_counter()
    rounds, latencies, rss, first, consistent = 0, [], [], None, True
    while another_round(start, rounds, seconds):
        results = []
        for op in ops:
            child = worker("oracle", {"op": op})
            res = child.result()
            latencies.append(res["time_ns"] / 1e9)
            rss.append(child.maxrss_mb)
            results.append(res["rows"])
        if first is None:
            first = results
        consistent &= results == first
        rounds += 1
    return {"rounds": rounds, "latencies": latencies,
            "reasons": checks.check_oracle(ops, first),
            "peak_rss_mb": max(rss), "consistent": consistent}


RUNNERS = {"eos-grid": run_eos, "cli-figures": run_cli, "oracle": run_oracle}


def end_to_end(workload, ops, seconds):
    # set-up samples on both sides of the window, so that a slow spell of
    # the machine weighs on both alike
    half = SETUP_SAMPLES // 2
    setup = [s for s, _ in setup_samples(workload, half)]
    run = RUNNERS[workload](ops, seconds)
    setup += [s for s, _ in setup_samples(workload, SETUP_SAMPLES - half)]
    lat = run["latencies"]
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    detail = {"rounds": run["rounds"], "latencies_s": lat,
              "setup_samples_s": setup,
              "outputs_repeat_across_rounds": run["consistent"]}
    return ops, run["reasons"], run["rounds"], run["consistent"], metrics, detail


# --- traced run ------------------------------------------------------------

def traced(workload, ops, seconds):
    imports = [imp for _, imp in setup_samples(workload, IMPORT_SAMPLES)]
    probe = wl.PROBE_CASES
    span_lists = []
    if workload == "eos-grid":
        res = worker("trace-eos", {"ops": ops, "probe": probe}).result()
        reasons = checks.check_eos(ops, res["values"])
        untraced, traced_ns = res["untraced_ns"], res["traced_ns"]
    elif workload == "cli-figures":
        argvs = [wl.cli_argv(op) for op in ops]
        res = worker("trace-cli", {"argvs": argvs, "probe": probe}).result()
        reasons = checks.check_cli(ops, [tuple(r) for r in res["results"]])
        untraced, traced_ns = res["untraced_ns"], res["traced_ns"]
    else:
        # one pass over the nine points is enough for the layer figures
        ops = ops[:len(ops) // wl.ORACLE_PASSES]
        rows, untraced, traced_ns = [], 0, 0
        for op in ops:
            plain = worker("trace-oracle", {"op": op, "traced": False}).result()
            spanned = worker("trace-oracle", {"op": op, "traced": True}).result()
            untraced += plain["time_ns"]
            traced_ns += spanned["time_ns"]
            rows.append(spanned["rows"])
            span_lists.append(spanned["spans"])
        reasons = checks.check_oracle(ops, rows)
        res = worker("trace-probe", {"probe": probe}).result()
    if any(code != 0 for code in res["probe_codes"]):
        raise RuntimeError(f"probe commands failed: {res['probe_codes']}")
    span_lists.append(res["spans"])
    spans = tracing.merge(span_lists)
    values, source = tracing.layer_metrics(spans)
    values["statistics.kernel_ns_per_node"] = res["kernel_ns_per_node"]
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_ratio"] = traced_ns / untraced
    metrics = {name: values.get(name) for name in declared("per_layer")}
    detail = {"source": source, "untraced_ns": untraced,
              "traced_ns": traced_ns, "import_samples_s": imports,
              "spans": spans}
    return ops, reasons, 1, True, metrics, detail



def declared(kind):
    """Metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def machine():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _timeout(signum, frame):
    for proc in list(_current):
        proc.kill()
    sys.stderr.write(f"run exceeded {RUN_TIMEOUT} s\n")
    os._exit(3)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "relbec", "cli.py")):
        sys.exit(f"no relbec sources under {ROOT}/src: run from a checkout")
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT)
    os.makedirs(OUT_DIR, exist_ok=True)

    ops = wl.make(args.workload, args.seed)
    run = traced if args.trace else end_to_end
    ops, reasons, rounds, consistent, metrics, detail = run(
        args.workload, ops, args.seconds)
    # every round repeats the same operations, with outputs identical to
    # the first round's (checked): a failure counts once per round
    failing = [i for i, r in enumerate(reasons) if r is not None]
    unexpected = [i for i in failing if not ops[i]["fault"]]
    correct = consistent and not unexpected
    units = declared("per_layer" if args.trace else "end_to_end")
    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        raise RuntimeError(f"run did not measure {missing}")
    result = {
        "correct": correct,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failing),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, machine=machine(),
                  failures=[{"op": ops[i], "reason": reasons[i],
                             "expected": bool(ops[i]["fault"])}
                            for i in failing], **detail)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh)
    for i in unexpected:
        sys.stderr.write(f"unexpected failure: {ops[i]} -> {reasons[i]}\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
