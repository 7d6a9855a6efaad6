"""End-to-end and per-layer benchmark of the banachsum CLI.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The package is taken from the src/ next to this directory.  With
--trace 0, one client runs a closed loop: it spawns one
`python -m banachsum ...` at a time, waits for it with os.wait4, checks its
exit code and output, and only then spawns the next.  Known-defect probes
run after the loop and are reported apart from it.  With --trace 1 the
same operations run in-process, each once untraced and once under
`tracing.Tracer`; the per-layer figures come from the traced calls.

Human-readable lines come first: the environment (commit or source hash,
Python and numpy versions, CPUs, load average at start and end), then
every metric with its unit.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and the metrics BENCHMARK.json
declares; `error_rate` is printed but not declared there, since it is 0
on a healthy run and `failed` / `attempted` carry it.  The record of the
run (per-operation samples and output hashes, spans) is written under
.bench_out/.  The workloads are described in workloads.py, the layer
metrics in tracing.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checks import CheckFailed
from workloads import WORKLOADS, Op, Plan, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
# Cycle wall time of each workload on a 2-core x86-64 host at the commit
# that introduced the benchmark.  --seconds / cycle fixes the number of
# cycles, so a run does the same operations on every commit and the tail
# percentile is taken at the same rank.
NOMINAL_CYCLE_S = {"sweep": 7.5, "window": 10.0, "cli-short": 16.0}
# A run that is still in its timed loop this long after it started stops
# with an error rather than with a smaller sample; a run must end within
# 180 s.
DEADLINE_S = 150.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
def child_env() -> dict[str, str]:
    """The caller's environment with src/ first on the path; nothing else set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "banachsum").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


@dataclass
class Sample:
    op: str
    wall: float
    ok: bool
    reason: str
    rss_kb: int
    sha256: str
    stdout_bytes: int


class Judge:
    """Decides whether an operation's result is correct.

    The first output of an operation gets the full check; a repeat must be
    byte-identical to it, so later calls cost one hash.
    """

    def __init__(self):
        self.seen: dict[str, tuple[str, bool, str]] = {}

    def __call__(self, op: Op, code: int, out: bytes) -> tuple[bool, str, str]:
        sha = hashlib.sha256(out).hexdigest()
        if code != op.expect_exit:
            return False, f"exit {code}, expected {op.expect_exit}", sha
        if op.name in self.seen:
            first_sha, ok, reason = self.seen[op.name]
            if sha != first_sha:
                return False, "output differs from the first call", sha
            return ok, reason, sha
        try:
            op.check(out)
            ok, reason = True, ""
        except (CheckFailed, AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            ok, reason = False, f"check failed: {type(exc).__name__}: {exc}"
        self.seen[op.name] = (sha, ok, reason)
        if ok and op.save_as is not None:
            op.save_as.write_bytes(out)
        return ok, reason, sha


def spawn(op: Op, judge: Judge, env: dict, work: Path, err) -> Sample:
    err.seek(0)
    err.truncate()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "banachsum", *op.argv],
                            stdout=subprocess.PIPE, stderr=err, cwd=work, env=env)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    ok, reason, sha = judge(op, code, out)
    if not ok:
        err.seek(0)
        tail = err.read()[-300:].decode(errors="replace").strip()
        reason += f" [{tail}]" if tail else ""
    return Sample(op.name, wall, ok, reason, usage.ru_maxrss, sha, len(out))


def write_files(plan: Plan) -> None:
    for path, text in plan.files.items():
        path.write_text(text)


def tail_rank(n: int) -> int:
    """0-based rank of the highest percentile with 10 samples beyond it."""
    return max(n - 11, 0)


def summarize(samples: list[Sample], setup_times: list[float], children: list[Sample]) -> dict:
    walls = sorted(s.wall if s.ok else math.inf for s in samples)
    n = len(walls)
    completed = sum(s.ok for s in samples)
    rank = tail_rank(n)
    return {
        "ops_per_s": completed / sum(s.wall for s in samples),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": walls[rank],
        "setup_s": statistics.median(setup_times),
        "error_rate": (n - completed) / n,
        "peak_rss_mb": max(s.rss_kb for s in children) / 1024,
        "_n": n,
        "_tail_pct": 100 * (rank + 1) / n,
    }


def timed_run(workload: str, seed: int, seconds: int, work: Path, scale="full") -> dict:
    started = time.perf_counter()
    plan = build(workload, seed, work, scale)
    env, judge = child_env(), Judge()
    setup_samples: list[Sample] = []
    setup_times = []
    with tempfile.TemporaryFile(dir=work) as err:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            write_files(plan)
            for op in plan.setup:
                setup_samples.append(spawn(op, judge, env, work, err))
            setup_times.append(time.perf_counter() - t0)
        bad = [s for s in setup_samples if not s.ok]
        if bad:
            raise SystemExit(f"setup failed: {bad[0].op}: {bad[0].reason}")

        cycles = max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
        order = random.Random(f"{workload}:{seed}:order")
        samples: list[Sample] = []
        for _ in range(cycles):
            for op in order.sample(plan.ops, len(plan.ops)):
                if time.perf_counter() - started > DEADLINE_S:
                    raise SystemExit(f"{workload}: timed loop past {DEADLINE_S:.0f} s "
                                     f"after {len(samples)} of {cycles * len(plan.ops)} "
                                     "operations; no result")
                samples.append(spawn(op, judge, env, work, err))

        probes = []
        for name, chain in plan.probes.items():
            for op in chain:
                probe = spawn(op, judge, env, work, err)
                if not probe.ok:
                    break
            probes.append({"name": name, "passed": probe.ok, "at": probe.op,
                           "reason": probe.reason})
    metrics = summarize(samples, setup_times, samples + setup_samples)
    return {"samples": samples, "metrics": metrics, "probes": probes,
            "setup_times": setup_times, "cycles": cycles, "ops_per_cycle": len(plan.ops)}


def _median_child(argv: list[str], env: dict, reps: int = 5) -> tuple[float, float]:
    walls, rss = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        walls.append(time.perf_counter() - t0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        rss.append(usage.ru_maxrss / 1024)
    return statistics.median(walls), statistics.median(rss)


def traced_run(workload: str, seed: int, work: Path, scale="full") -> dict:
    from tracing import Tracer, layer_metrics

    plan = build(workload, seed, work, scale)
    write_files(plan)
    env = child_env()
    interp_s, _ = _median_child([sys.executable, "-c", "pass"], env)
    import_s, import_rss = _median_child([sys.executable, "-c", "import banachsum.cli"], env)

    sys.path.insert(0, str(SRC))
    import banachsum.cli as cli

    ops = plan.setup + plan.ops + plan.touch
    cwd = os.getcwd()

    def call(op: Op, judge: Judge) -> Sample:
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        wall = time.perf_counter() - t0
        out = buf.getvalue().encode()
        ok, reason, sha = judge(op, code, out)
        if not ok:
            reason += f" [{err.getvalue()[-300:].strip()}]"
        return Sample(op.name, wall, ok, reason, 0, sha, len(out))

    def traced_call(op: Op) -> Sample:
        tracer.op = op.name
        tracer.install()
        try:
            return call(op, judge)
        finally:
            tracer.uninstall()

    # Each operation runs untraced and traced back to back, in alternating
    # order, so both calls see the same warm state.
    tracer, plain_judge, judge = Tracer(), Judge(), Judge()
    plain_s = traced_s = 0.0
    samples = []
    os.chdir(work)
    try:
        for i, op in enumerate(ops):
            if i % 2:
                traced = traced_call(op)
                plain = call(op, plain_judge)
            else:
                plain = call(op, plain_judge)
                traced = traced_call(op)
            if plain.sha256 != traced.sha256 and traced.ok:
                traced.ok, traced.reason = False, "output differs from the untraced call"
            plain_s += plain.wall
            traced_s += traced.wall
            samples.append(traced)
    finally:
        os.chdir(cwd)
    metrics = {
        "cli.interp_s": interp_s,
        "cli.import_s": import_s - interp_s,
        "cli.import_rss_mb": import_rss,
        "cli.stdout_bytes": sum(s.stdout_bytes for s in samples),
        **layer_metrics(tracer),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    return {"samples": samples, "metrics": metrics, "spans": tracer.spans,
            "untraced_s": plain_s, "traced_s": traced_s}


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report_lines(workload, seed, res, trace, units: dict[str, str]) -> list[str]:
    m = res["metrics"]
    lines = []
    if trace:
        lines.append(f"traced {workload} seed {seed}: {len(res['samples'])} ops in-process, "
                     f"untraced {res['untraced_s']:.3f} s, traced {res['traced_s']:.3f} s")
        for name, value in m.items():
            lines.append(f"  {name:40s} {value:.6g} {units[name]}")
        return lines
    n = m["_n"]
    lines.append(f"{workload} seed {seed}: closed loop, 1 client, {res['cycles']} cycles "
                 f"x {res['ops_per_cycle']} ops, {n} samples")
    for name, unit in END_TO_END.items():
        note = {"op_p50_s": f"n={n}",
                "op_tail_s": f"p{m['_tail_pct']:.1f}, n={n}",
                "setup_s": f"median of {SETUP_REPEATS}",
                "error_rate": f"{sum(not s.ok for s in res['samples'])}/{n}"}.get(name, "")
        lines.append(f"  {name:12s} {m[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    for p in res["probes"]:
        state = "now passes" if p["passed"] else f"still failing at {p['at']}: {p['reason']}"
        lines.append(f"known defect {p['name']} (expected exit 0): {state}")
    return lines


def outputs_digest(samples: list[Sample]) -> str:
    pairs = sorted({(s.op, s.sha256) for s in samples})
    return hashlib.sha256("\n".join(f"{a} {b}" for a, b in pairs).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "banachsum" / "__main__.py").is_file():
        print(f"error: no banachsum sources under {SRC}", file=sys.stderr)
        return 2
    declared = load_declared()
    env_record = environment()
    env_record["loadavg_start"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        if args.trace:
            res = traced_run(args.workload, args.seed, work)
            keys = [m["name"] for m in declared["per_layer"]]
        else:
            res = timed_run(args.workload, args.seed, args.seconds, work)
            keys = [m["name"] for m in declared["end_to_end"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env_record["loadavg_end"] = os.getloadavg()
    samples = res["samples"]
    failed = sum(not s.ok for s in samples)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    lines = [f"env {json.dumps(env_record, sort_keys=True)}"]
    lines += report_lines(args.workload, args.seed, res, args.trace, units)
    lines += [f"failed {s.op}: {s.reason}" for s in samples if not s.ok][:20]
    lines.append(f"outputs sha256 {outputs_digest(samples)}")
    kind = "trace" if args.trace else "run"
    record_path = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
    record = {"env": env_record, "workload": args.workload, "seed": args.seed,
              "metrics": {k: v for k, v in res["metrics"].items() if not k.startswith("_")},
              "samples": [s.__dict__ for s in samples],
              "setup_times": res.get("setup_times", []),
              "probes": res.get("probes", []), "spans": res.get("spans", [])}
    record_path.write_text(json.dumps(record, default=str))
    lines.append(f"record {record_path.relative_to(ROOT)}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": res["metrics"][k], "unit": units[k]} for k in keys},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
