"""qflat benchmark: one workload, one seed, one run.

Usage, from the root of a qflat checkout:

    python3 perfbench/run.py --workload {cli,lib} --seed N \\
        --seconds S --trace {0,1}

A run repeats the workload's round of operations as a closed loop (one
caller, one process, no threads) and stops at the round boundary nearest
to S seconds, so every run measures whole rounds of the same mix.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs untraced
rounds for half of S, replays as many rounds traced (the CLI in-process
through `qflat.cli.main`) and reports the per-layer metrics.  After the
timed phase every distinct operation is checked by the independent oracle
and its output digest is compared with every other execution of it, in
this run and in earlier runs with the same seed and sources; a rejected
operation counts as failed.  The next-to-last line of standard output is
the run record, the last line the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = HERE / "_state"
SETUP_REPEATS = 5
PROBE_REPEATS = 3
WORKLOADS = ("cli", "lib")
LIB_PARTS = ("enum", "mass", "local")
# the tail is read at the highest of these percentiles that still leaves
# at least ten samples above it
LADDER = (50, 75, 90, 95, 99, 99.9)


class Raised:
    """An exception an operation raised, kept as its outcome."""

    def __init__(self, err):
        self.text = f"{type(err).__name__}: {err}"


# ---------------------------------------------------------------------------
# running one operation


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_subprocess(op, work):
    """`python -m qflat.cli ARGV` as a fresh process; (result, latency, maxrss_kb)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qflat.cli", *op.argv],
                                stdout=out, stderr=err, cwd=ROOT, env=_env())
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = (proc.returncode, out_path.read_text(), err_path.read_text())
    return result, latency, usage.ru_maxrss


def run_inprocess_cli(op):
    from qflat import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught exception is exit 1 for a user
            print(f"Traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    latency = time.perf_counter() - start
    return (code, out.getvalue(), err.getvalue()), latency, 0


def run_library(op):
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # recorded and judged as a failed operation
        result = Raised(exc)
    return result, time.perf_counter() - start, 0


# ---------------------------------------------------------------------------
# digests


def canon(x):
    """A JSON-able canonical form of a library result."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return x if x.bit_length() < 4000 else hex(x)
    if isinstance(x, Fraction):
        return [canon(x.numerator), canon(x.denominator)]
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in sorted(x.items(), key=str)}
    if isinstance(x, Raised):
        return {"raised": x.text}
    for attr in ("matrix", "basis"):
        if hasattr(x, attr):
            return {attr: canon(getattr(x, attr))}
    if hasattr(x, "lo") and hasattr(x, "hi"):
        return [canon(x.lo), canon(x.hi)]
    if hasattr(x, "__dataclass_fields__"):
        return {type(x).__name__: {k: canon(getattr(x, k))
                                   for k in x.__dataclass_fields__}}
    return repr(x)


def digest(result):
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[1], str):
        data = result[1].encode()          # CLI: the stdout bytes
    else:
        data = json.dumps(canon(result), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:24]


def source_hash():
    """Hash of the qflat sources and of this benchmark's own code: stored
    digests are compared only between runs of identical code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qflat").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------------
# phases


def loop(ops, seconds, runner, *, rounds=None, on_result=None):
    """Whole rounds, ending at the round boundary nearest to `seconds`
    (at least one round), or exactly `rounds` rounds."""
    samples, first, seen = [], {}, {}
    peak = 0
    start = time.monotonic()
    done = 0
    while True:
        for i, op in enumerate(ops):
            result, latency, rss = runner(op)
            samples.append((i, latency))
            peak = max(peak, rss)
            first.setdefault(i, result)
            seen.setdefault(i, set()).add(digest(result))
            if on_result is not None:
                on_result(op, result)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        else:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / done / 2 >= seconds:
                break
    return {"samples": samples, "first": first, "digests": seen,
            "rounds": done, "peak_kb": peak}


def judge(ops, phases, workload, seed, known):
    """Oracle verdicts and output determinism; returns per-op failures."""
    import oracle
    key = f"{source_hash()}|{workload}|{seed}|"
    store_path = STATE / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    failures = {}
    for i, op in enumerate(ops):
        result = phases[0]["first"][i]
        if isinstance(result, Raised):
            verdict = (False, None, f"raised {result.text}")
        else:
            try:
                verdict = op.check(result)
            except Exception as exc:  # a check that cannot read the output
                verdict = (False, None, f"check failed: {type(exc).__name__}: {exc}")
        digests = set().union(*(ph["digests"][i] for ph in phases))
        stored = store.get(key + op.id)
        if len(digests) > 1 or (stored is not None and stored not in digests):
            verdict = (False, None, "output differs between executions")
        elif stored is None:
            store[key + op.id] = next(iter(digests))
        if not verdict[0]:
            failures[i] = {"op": op.id, "cause": verdict[1], "note": verdict[2],
                           "explained": verdict[1] in known}
    STATE.mkdir(exist_ok=True)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, store_path)
    return failures, oracle.self_check()


def tail(latencies):
    n = len(latencies)
    usable = [q for q in LADDER if n * (100 - q) / 100 >= 10]
    q = usable[-1] if usable else 100
    ordered = sorted(latencies)
    idx = min(n - 1, max(0, ceil(q / 100 * n) - 1))
    return ordered[idx], q, n - 1 - idx


def setup_times(workload, seed, work):
    """Median wall time from spawning a fresh interpreter to the first op
    being ready: interpreter start, the qflat import, input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe", "--work", str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def import_probes():
    """cli.interp_s, cli.import_s and cli.import_sympy_s (medians)."""
    interp, imp, sym = [], [], []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        interp.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import qflat.cli"], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        imp.append(cumulative.get("qflat.cli", 0.0))
        sym.append(cumulative.get("sympy", 0.0))
    return (statistics.median(interp), statistics.median(imp),
            statistics.median(sym))


# ---------------------------------------------------------------------------
# traced run


def traced(ops, seconds, runner):
    import oracle
    import tracer

    counts = {}

    def add(name, value):
        counts[name] = counts.get(name, 0) + value

    def on_density(r):
        if r.method == "unit-formula":
            add("localform.unit_formula.calls", 1)
        elif r.method in ("jordan-blocks", "two-adic-pieces"):
            add("localform.structural.calls", 1)
        add("localform.levels", r.k)
        add("localform.unstabilized", int(not r.stabilized))

    def on_rhs(r):
        add("massledger.primes", len(oracle.primes_up_to(r.prime_bound)))
        add("massledger.endpoint_bits", max(
            x.bit_length() for e in (r.interval.lo, r.interval.hi)
            for x in (e.numerator, e.denominator)))

    observers = {
        ("localform", "local_density"): on_density,
        ("massledger", "siegel_rhs"): on_rhs,
        ("pingpong", "free_words_audit"):
            lambda r: add("pingpong.words_checked", r[0]),
        ("pingpong", "schottky_certify"):
            lambda r: add("pingpong.power_m", r.m),
    }
    plain = loop(ops, seconds / 2, runner)
    tr = tracer.Tracer(observers)

    def on_result(op, result):
        if op.work is not None and not isinstance(result, Raised):
            for name, value in op.work(result).items():
                add(name, value)

    with tr.active():
        traced_phase = loop(ops, seconds, runner, rounds=plain["rounds"],
                            on_result=on_result)
    interp, imp, sym = import_probes()
    metrics = {}
    for layer in tracer.LAYERS:
        calls, self_s, errors = tr.layer(layer)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.errors"] = (errors, "count")
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (imp, "s")
    metrics["cli.import_sympy_s"] = (sym, "s")
    for layer, fn, what in (
            ("enumeration", "representation_count", "self_s"),
            ("enumeration", "short_vectors", "self_s"),
            ("enumeration", "automorphism_order", "self_s"),
            ("exact", "rational_cholesky", "calls"),
            ("exact", "determinant", "calls"),
            ("exact", "smith_normal_form", "self_s"),
            ("localform", "local_density", "self_s"),
            ("localform", "jordan_decompose_odd", "self_s"),
            ("localform", "two_adic_split", "self_s")):
        st = tr.function(layer, fn)
        metrics[f"{layer}.{fn}.{what}"] = (
            (st.self_s, "s") if what == "self_s" else (st.calls, "count"))
    for name, unit in COUNTERS:
        metrics[name] = (counts.get(name, 0), unit)
    walked = counts.get("enumeration.vectors_walked", 0)
    metrics["enumeration.hit_ratio"] = (
        counts.get("enumeration.vectors_returned", 0) / walked if walked else 0.0,
        "ratio")
    # untraced seconds per round spent in each part of the lib round
    per_part = {}
    for i, lat in plain["samples"]:
        part = ops[i].id.split(":", 1)[0]
        per_part[part] = per_part.get(part, 0.0) + lat / plain["rounds"]
    for part in LIB_PARTS:
        metrics[f"part.{part}.s_per_round"] = (per_part.get(part, 0.0), "s")
    busy = sum(lat for _, lat in plain["samples"])
    busy_traced = sum(lat for _, lat in traced_phase["samples"])
    metrics["trace.overhead_s"] = (busy_traced - busy, "s")
    return traced_phase, plain, metrics


COUNTERS = (
    ("enumeration.vectors_returned", "count"),
    ("enumeration.vectors_walked", "count"),
    ("localform.unit_formula.calls", "count"),
    ("localform.structural.calls", "count"),
    ("localform.levels", "count"),
    ("localform.unstabilized", "count"),
    ("massledger.primes", "count"),
    ("massledger.endpoint_bits", "bits"),
    ("pingpong.words_checked", "count"),
    ("pingpong.power_m", "count"),
)


# ---------------------------------------------------------------------------


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_all(args):
    """Each workload in its own process; one result line per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"perfbench: workload {name} failed:\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        print(json.dumps({name: {**json.loads(lines[-2]),
                                 **json.loads(lines[-1])}}))
    return status


def build(workload, seed, work):
    import ops
    if workload == "cli":
        return ops.cli_ops(seed, work)
    return ops.WORKLOADS[workload](seed)


def main(argv=None):
    args = parse(argv)
    if not (SRC / "qflat" / "cli.py").is_file():
        print("perfbench: no qflat sources under ./src; run from the root of "
              "a qflat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import qflat.cli  # noqa: F401  (the import every workload pays)
        build(args.workload, args.seed, Path(args.work))
        print(time.monotonic())
        return 0

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work):
    import qflat.cli  # noqa: F401
    inventory = json.loads((HERE / "inventory.json").read_text())
    known = set(inventory["defects"])
    setup = [] if args.trace else setup_times(args.workload, args.seed,
                                              work / "probe")
    ops = build(args.workload, args.seed, work / "inputs")
    # one seeded shuffle of the round: operations of every size are spread
    # over the whole run, so the median and the tail sample all of it and
    # not only the stretch where, say, one lattice's operations sit
    random.Random(f"order:{args.workload}:{args.seed}").shuffle(ops)
    if args.workload == "cli":
        runner = (run_inprocess_cli if args.trace
                  else lambda op: run_subprocess(op, work))
    else:
        runner = run_library
    if args.trace:
        main_phase, plain, layer_metrics = traced(ops, args.seconds, runner)
        phases = [main_phase, plain]
    else:
        main_phase = loop(ops, args.seconds, runner)
        phases = [main_phase]
        rss_kb = (main_phase["peak_kb"] if args.workload == "cli"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    failures, oracle_bad = judge(ops, phases, args.workload, args.seed, known)

    samples = main_phase["samples"]
    attempted = len(samples)
    failed = sum(1 for i, _ in samples if i in failures)
    latencies = [lat for _, lat in samples]
    busy = sum(latencies)
    tail_value, tail_q, beyond = tail(latencies)
    explained = all(f["explained"] for f in failures.values())
    correct = explained and not oracle_bad
    by_cause = {}
    for i, _ in samples:
        if i in failures:
            cause = failures[i]["cause"] or "unexplained"
            by_cause[cause] = by_cause.get(cause, 0) + 1
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": main_phase["rounds"],
        "ops_per_round": len(ops), "samples": attempted,
        "tail_percentile": tail_q, "tail_samples_beyond": beyond,
        "setup_samples": len(setup), "fail_frac": failed / attempted,
        "failed_by_cause": by_cause, "oracle_self_check": oracle_bad or "ok",
        "failures": sorted(failures.values(), key=lambda f: f["op"]),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "source_hash": source_hash(),
    }
    if args.trace:
        metrics = layer_metrics
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": ((attempted - failed) / busy, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "latency_tail_ms": (tail_value * 1000, "ms"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
