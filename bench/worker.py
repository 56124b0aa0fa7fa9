"""One workload in one fresh, single-threaded Python process.

Started by run.py, never imported by it. It imports hardysim from the
checkout's src/, refuses to go on if the import resolves anywhere else,
runs whole cycles of the workload's fixed case list for the requested time
(closed loop, one client), checks every operation against oracle.py and
prints one JSON line with the raw figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import check
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SUITES = ("exact_sweep", "float_sweep", "cli_session")
LAYOUT_FLAGS = {"OO": (False, False), "IO": (True, False),
                "OI": (False, True), "II": (True, True)}
# Endpoints plus interior p whose sqrt(p) and sqrt(1-p) both lie in Q(sqrt2).
EXACT_PS = tuple(Fraction(p) for p in (
    "0", "1", "1/2", "9/25", "16/25", "1/9", "8/9", "1/50", "49/50"))
FLOAT_PS_PER_RUN = 8
MIN_OPS = 100           # enough operations for a 90th percentile
CLI_TIMEOUT_S = 60
FAULTY_CONFIG = {"bs2_plus": "false", "bs2_minus": "false", "p": 1}


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    prepare: Callable[[], None] = lambda: None
    known_fault: bool = False


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    launch_ns: int
    trace_file: Optional[Path] = None


def import_program():
    """Import hardysim and refuse to measure any copy but this checkout's."""
    sys.path.insert(0, str(SRC))
    import hardysim
    import hardysim.hardy
    resolved = Path(hardysim.__file__).resolve()
    if resolved.parent != (SRC / "hardysim").resolve():
        raise SystemExit(f"hardysim resolves to {resolved}, not {SRC}; refusing to run")
    return hardysim


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# Workload cases.
# ---------------------------------------------------------------------------

def scenario_cases(workload, seed):
    hardy = sys.modules["hardysim.hardy"]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact_sweep":
        backend, ps = "exact", EXACT_PS
    else:
        backend = "float"
        ps = [Fraction(rng.randrange(1, 10 ** 6), 10 ** 6)
              for _ in range(FLOAT_PS_PER_RUN)]
    grid = [(lay, p) for p in ps for lay in oracle.LAYOUTS]
    rng.shuffle(grid)
    cases = []
    for layout, p in grid:
        plus, minus = LAYOUT_FLAGS[layout]

        def run(plus=plus, minus=minus, p=p):
            return hardy.run_scenario(hardy.ScenarioConfig(plus, minus, p, backend))

        def verdict(out, layout=layout, p=p):
            return check.check_table(out[1], layout, p, backend == "exact")

        cases.append(Case(f"{layout} p={p} {backend}", run, verdict))
    return cases


def _p_spelling(rng, p):
    """One of the documented ways to write p = 0 or 1 in a config file."""
    return rng.choice([p, str(p), f"{p}/1", float(p)])


def cli_cases(seed, tmp: Path, traced: bool):
    rng = random.Random(f"cli_session:{seed}")
    env = child_env()

    def invoke(args):
        def run():
            trace_file = None
            if traced:
                trace_file = tmp / "spans.json"
                argv = [sys.executable, str(BENCH / "traced_cli.py"),
                        str(trace_file), "--", *args]
            else:
                argv = [sys.executable, "-m", "hardysim.cli", *args]
            launch = time.monotonic_ns()
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            return CliResult(proc.returncode, proc.stdout, proc.stderr,
                             launch, trace_file)
        return run

    def plain(verdict):
        def checked(res):
            if res.code != 0:
                return f"exit code {res.code}: {res.stderr.strip()[-200:]}"
            return verdict(res.stdout)
        return checked

    cases = [Case("table", invoke(["table"]), plain(check.check_cli_table)),
             Case("lhv-audit", invoke(["lhv-audit"]), plain(check.check_cli_lhv)),
             Case("hom", invoke(["hom"]), plain(check.check_cli_hom))]
    runs = [(rng.choice(oracle.LAYOUTS), p) for p in (0, 1)] + [("faulty", 1)]
    for n, (name, p) in enumerate(runs):
        base = tmp / f"run{n}"
        if name == "faulty":
            config, layout = dict(FAULTY_CONFIG), "OO"
        else:
            plus, minus = LAYOUT_FLAGS[name]
            config, layout = {"bs2_plus": plus, "bs2_minus": minus}, name
            config[rng.choice(["p", "reaction_probability"])] = _p_spelling(rng, p)
            if rng.random() < 0.5:
                config["backend"] = "exact"
        cfg_path = base.with_suffix(".cfg.json")
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        csv_path, json_path = base.with_suffix(".csv"), base.with_suffix(".out.json")
        args = ["run", "--config", str(cfg_path), "--csv", str(csv_path),
                "--json", str(json_path)]

        def prepare(csv_path=csv_path, json_path=json_path):
            csv_path.unlink(missing_ok=True)
            json_path.unlink(missing_ok=True)

        def verdict(res, layout=layout, p=p, csv_path=csv_path,
                    json_path=json_path, faulty=name == "faulty"):
            if faulty and res.code == 2 and res.stderr.startswith("error:"):
                return None     # a clean refusal of the string booleans
            if res.code != 0:
                return f"exit code {res.code}: {res.stderr.strip()[-200:]}"
            return check.check_cli_run(res.stdout, layout, p, csv_path, json_path)

        cases.append(Case(f"run {name} p={p}", invoke(args), verdict, prepare,
                          known_fault=name == "faulty"))
    rng.shuffle(cases)
    return cases


def make_cases(workload, seed, tmp, traced=False):
    if workload == "cli_session":
        return cli_cases(seed, tmp, traced)
    return scenario_cases(workload, seed)


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    latencies_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    last_outputs: list = field(default_factory=list)

    def absorb(self, other: "Phase"):
        self.latencies_ns += other.latencies_ns
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.last_outputs = other.last_outputs


def run_cycles(cases, seconds, min_ops, tracer=None, suite=""):
    """Whole cycles of `cases` until `seconds` have passed and at least
    `min_ops` operations ran. Checks happen outside the timed region."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        outputs = []
        for case in cases:
            case.prepare()
            if tracer is not None:
                tracer.begin_op(suite)
            t0 = time.perf_counter_ns()
            try:
                out = case.run()
            except Exception as exc:  # any raise is a failed operation
                out = exc
            elapsed = time.perf_counter_ns() - t0
            if tracer is not None:
                absorb_child_trace(tracer, out)
                tracer.end_op()
            phase.latencies_ns.append(elapsed)
            phase.attempted += 1
            problem = (f"raised {out!r}" if isinstance(out, Exception)
                       else case.check(out))
            if problem:
                phase.failed += 1
                if not case.known_fault:
                    phase.unexpected.append(f"{case.label}: {problem}")
            outputs.append(out)
        phase.last_outputs = outputs
        if time.perf_counter() >= deadline and phase.attempted >= min_ops:
            return phase


def best_per_case(phase, n_cases):
    """Each case's fastest latency over the run's cycles (cases run once per
    cycle, in a fixed order, so op i is case i mod n_cases)."""
    lat = phase.latencies_ns
    return [min(lat[i::n_cases]) for i in range(n_cases)]


def absorb_child_trace(tracer, out):
    trace_file = getattr(out, "trace_file", None)
    if trace_file is None or not trace_file.exists():
        return
    child = json.loads(trace_file.read_text(encoding="utf-8"))
    trace_file.unlink()
    if Path(child["hardysim_file"]).resolve().parent != (SRC / "hardysim").resolve():
        raise SystemExit(f"CLI children import hardysim from {child['hardysim_file']}")
    tracer.merge(child)
    tracer.add_sample("cli.interpreter_start_ns", child["start_ns"] - out.launch_ns)
    tracer.add_sample("cli.import_ns", child["import_ns"])


# ---------------------------------------------------------------------------
# Traced run: per-layer figures.
# ---------------------------------------------------------------------------

SELF_NS = {
    "state.sv_apply_ket_map_ns": "state.sv_apply_ket_map",
    "state.dm_apply_ket_map_ns": "state.dm_apply_ket_map",
    "state.pure_to_density_ns": "state.pure_to_density",
    "state.probability_ns": "state.probability",
    "optics.bs1_ns": "optics.bs1",
    "optics.bs2_ns": "optics.bs2",
    "measurement.project_knowledge_ns": "measurement.project_knowledge",
    "measurement.channel_build_ns": "measurement.channel_build",
    "measurement.apply_channel_ns": "measurement.apply_channel",
    "hardy.run_scenario_exact_endpoint_ns": "hardy.run_scenario_exact_endpoint",
    "hardy.run_scenario_exact_interior_ns": "hardy.run_scenario_exact_interior",
    "hardy.run_scenario_float_ns": "hardy.run_scenario_float",
    "hardy.full_table_ns": "hardy.full_table",
    "lhv.quantum_constraints_ns": "lhv.quantum_constraints",
    "lhv.audit_ns": "lhv.audit",
    "bosonic.hom_ns": "bosonic.hom",
}
TOTAL_NS = {
    "optics.bs1_total_ns": "optics.bs1",
    "optics.bs2_total_ns": "optics.bs2",
    "hardy.run_scenario_exact_endpoint_total_ns": "hardy.run_scenario_exact_endpoint",
    "hardy.run_scenario_exact_interior_total_ns": "hardy.run_scenario_exact_interior",
    "hardy.run_scenario_float_total_ns": "hardy.run_scenario_float",
    "hardy.full_table_total_ns": "hardy.full_table",
}


def layer_metrics(tracer, workload):
    """Per-layer figures, each from the first suite that reaches the layer:
    the traced workload itself, then exact_sweep, float_sweep, cli_session.
    Returns ({metric: (value, unit)}, {metric: suite})."""
    spans = tracer.span_table()
    order = [workload] + [s for s in SUITES if s != workload]
    groups = {}                 # (suite, span name) -> [span index]
    for i, (name, op, *_rest) in enumerate(spans):
        groups.setdefault((tracer.op_suite[op], name), []).append(i)
    metrics, sources = {}, {}

    def put(metric, unit, suite, value):
        metrics[metric] = (value, unit)
        sources[metric] = suite

    def first(name):
        for suite in order:
            if groups.get((suite, name)):
                return suite, groups[(suite, name)]
        return None, []

    for metric, name in SELF_NS.items():
        suite, idx = first(name)
        if idx:
            put(metric, "ns", suite, statistics.median(spans[i][3] for i in idx))
    for metric, name in TOTAL_NS.items():
        suite, idx = first(name)
        if idx:
            put(metric, "ns", suite, statistics.median(spans[i][2] for i in idx))

    scenario_names = {n for n in tracer.names if n.startswith("hardy.run_scenario")}
    for suite in order:
        per_scenario = {}
        for i in groups.get((suite, "state.probability"), []):
            parent = spans[i][4]
            if parent >= 0 and spans[parent][0] in scenario_names:
                per_scenario[parent] = per_scenario.get(parent, 0) + spans[i][2]
        if per_scenario:
            put("hardy.table_extract_ns", "ns", suite,
                statistics.median(per_scenario.values()))
            break

    suite, idx = first("cli.export")
    if idx:
        per_op = {}
        for i in idx:
            per_op[spans[i][1]] = per_op.get(spans[i][1], 0) + spans[i][3]
        put("cli.export_ms", "ms", suite, statistics.median(per_op.values()) / 1e6)
    for metric, sample in (("cli.interpreter_start_ms", "cli.interpreter_start_ns"),
                           ("cli.import_ms", "cli.import_ns")):
        values = [v for name, _, v in tracer.samples if name == sample]
        if values:
            put(metric, "ms", "cli_session", statistics.median(values) / 1e6)

    def per_scenario_count(counter, suites):
        for suite in suites:
            ops = [op for op, s in enumerate(tracer.op_suite) if s == suite]
            scenarios = sum(len(groups.get((suite, n), [])) for n in scenario_names)
            if ops and scenarios and counter in tracer.counts:
                total = sum(tracer.op_counts[op].get(counter, 0) for op in ops)
                return suite, total / scenarios
        return None, None

    suite, value = per_scenario_count("amplitude.exact_mul", ["exact_sweep"])
    if value is not None:
        put("amplitude.exact_mul_count", "count", suite, value)
    suite, value = per_scenario_count("state.ket_map_call", order)
    if value is not None:
        put("state.ket_map_call_count", "count", suite, value)
    for suite in order:
        values = [v for name, op, v in tracer.samples
                  if name.endswith(".live_entries") and tracer.op_suite[op] == suite]
        if values:
            put("state.live_entries_count", "count", suite, statistics.mean(values))
            break
    return metrics, sources


def _time_per_call(fn, reps, rounds=3):
    """Best of `rounds` timings of `reps` calls, per call."""
    best = None
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best / reps


def amplitude_microbench(exact_outputs, seed):
    """Scalar op timings on operands sampled from exact_sweep's live
    amplitudes; `complex` multiplication on the same values is the floor."""
    amplitude = sys.modules["hardysim.amplitude"]
    values = []
    for out in exact_outputs:
        if not isinstance(out, tuple):
            continue
        store = getattr(out[0], "amps", None) or getattr(out[0], "entries", {})
        values += [v for v in store.values() if hasattr(v, "q0") and
                   (v.q0 or v.q1 or v.q2 or v.q3)]
    rng = random.Random(f"amplitude:{seed}")
    ops = rng.sample(values, min(32, len(values)))
    pairs = list(zip(ops, ops[1:] + ops[:1]))
    r2 = 2 ** 0.5
    cpairs = [(complex(float(x.q0) + float(x.q2) * r2, float(x.q1) + float(x.q3) * r2),
               complex(float(y.q0) + float(y.q2) * r2, float(y.q1) + float(y.q3) * r2))
              for x, y in pairs]
    out = {
        "amplitude.exact_mul_ns": statistics.median(
            _time_per_call(lambda: x * y, 20) for x, y in pairs),
        "amplitude.exact_add_ns": statistics.median(
            _time_per_call(lambda: x + y, 20) for x, y in pairs),
        "amplitude.exact_inverse_ns": statistics.median(
            _time_per_call(x.inverse, 10) for x, _ in pairs),
        "amplitude.complex_mul_ns": statistics.median(
            _time_per_call(lambda: x * y, 2000) for x, y in cpairs),
    }
    exact_sqrt = getattr(amplitude, "exact_sqrt", None)
    if exact_sqrt is not None:
        qs = sorted({q for p in EXACT_PS for q in (p, 1 - p)})
        out["amplitude.exact_sqrt_ns"] = statistics.median(
            _time_per_call(lambda: exact_sqrt(q), 50) for q in qs)
    return {k: (v, "ns") for k, v in out.items()}


def traced_run(workload, seed, seconds, tmp):
    """Cycles of the workload alternate untraced and traced, so that drift in
    the machine's speed falls on both; then one traced cycle of each other
    suite, and the scalar microbenchmarks with the wrappers removed."""
    from tracer import Tracer
    tracer = Tracer()
    plain = make_cases(workload, seed, tmp)
    traced_cases = make_cases(workload, seed, tmp, traced=True)
    untraced, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced.absorb(run_cycles(plain, 0, 1))
        tracer.install()
        traced.absorb(run_cycles(traced_cases, 0, 1, tracer, workload))
        tracer.uninstall()
    phases = {workload: traced}
    tracer.install()
    for other in SUITES:
        if other != workload:
            phases[other] = run_cycles(make_cases(other, seed, tmp, traced=True),
                                       0, 1, tracer, other)
    tracer.uninstall()
    metrics, sources = layer_metrics(tracer, workload)
    metrics.update(amplitude_microbench(phases["exact_sweep"].last_outputs, seed))
    n = len(plain)
    overhead = (sum(best_per_case(traced, n)) / sum(best_per_case(untraced, n)) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload}.json"
    tracer.dump(spans_path, {"workload": workload, "seed": seed})
    unexpected = untraced.unexpected + [u for p in phases.values() for u in p.unexpected]
    return {
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "unexpected": unexpected,
        "metrics": metrics,
        "sources": sources,
        "absent": tracer.absent,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def verify_cli_resolution():
    """The CLI children resolve hardysim the same way this process did."""
    proc = subprocess.run(
        [sys.executable, "-c", "import hardysim.cli; print(hardysim.cli.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S)
    resolved = Path(proc.stdout.strip()).resolve()
    if resolved.parent != (SRC / "hardysim").resolve():
        raise SystemExit(f"CLI children import hardysim from {resolved}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=SUITES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launch-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    hardysim = import_program()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds, tmp)
        else:
            cases = make_cases(args.workload, args.seed, tmp)
            setup_ns = time.monotonic_ns() - args.launch_ns
            if args.setup_only:
                print(json.dumps({"setup_ns": setup_ns}))
                return
            phase = run_cycles(cases, args.seconds, MIN_OPS)
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli_session"
                   else resource.RUSAGE_SELF)
            result = {
                "attempted": phase.attempted,
                "failed": phase.failed,
                "unexpected": phase.unexpected,
                "setup_ns": setup_ns,
                "best_ns": best_per_case(phase, len(cases)),
                "peak_rss_kb": resource.getrusage(who).ru_maxrss,
            }
        if args.workload == "cli_session":
            verify_cli_resolution()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["hardysim_file"] = str(Path(hardysim.__file__).resolve())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
