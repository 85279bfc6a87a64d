"""Benchmark of the spincycles CLI and group engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload polygon-scale --seed 1 --seconds 10 --trace 0

Workloads (reasons in ``workloads.WHY``):

* ``polygon-scale``: cold CLI jobs, ``python -m spincycles.cli ... --json
  --out FILE`` in a fresh interpreter each, on seeded polygons.
* ``group-warm``: one interpreter runs the cold ``verify generation
  --genus 3`` verdict as its set-up, then seeded warm calls.

Load is one closed-loop client: one job at a time, one process.  Every
job runs under a wall-time limit and, in the child only, CPU and
address-space rlimits, so a hang or a memory blow-up is a failed job; no
polygon job starts after ``RUN_LIMIT_S``, so a run ends within 180 s.
Every transcript is checked against ``oracles``, which share no code with
the program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
jobs once untraced and once traced and prints the per-layer metrics of
``tracing.PER_LAYER`` with the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Inputs and transcripts live under ``.bench_work/`` and
are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

JOB_LIMIT_S = 30  # one polygon job; the slowest takes about 2 s
RUN_LIMIT_S = 120  # no polygon job starts later; a run must end within 180 s
SESSION_LIMIT_S = 170  # the whole group session
MEMORY_LIMIT = 4 << 30  # address space of one child
SETUP_SAMPLES_PER_PASS = 3
# a run repeats its pass at least this often, so each job has a median
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


# what a transcript of the wrong shape raises inside an oracle
MALFORMED = (ValueError, KeyError, IndexError, TypeError, AttributeError)


class SetupError(RuntimeError):
    """The program cannot be started, so there is nothing to measure."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPINCYCLES_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, limit_s: float) -> dict:
    """Run one child to exit; wall time from spawn to exit, and its max RSS.

    The CPU and address-space limits are set in the child before exec.
    A wall-clock timer in this process kills the child when ``limit_s``
    runs out.
    """
    cpu = max(1, int(limit_s))

    def limits():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    timed_out = []
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT, preexec_fn=limits)

        def on_alarm(_signum, _frame):
            timed_out.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t0": t0, "wall": wall, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024, "timed_out": bool(timed_out)}


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


# ---------------------------------------------------------------------------
# set-up and import timing


def import_samples(work: Path, count: int) -> list[float]:
    """Walls of fresh interpreters that import ``spincycles.cli`` and exit."""
    argv = [sys.executable, "-c", "import spincycles.cli"]
    walls = []
    for _ in range(count):
        r = spawn(argv, work / "import.out", work / "import.err", JOB_LIMIT_S)
        if r["code"] != 0:
            raise SetupError("cannot import spincycles.cli: "
                             + (work / "import.err").read_text(errors="replace")[-500:])
        walls.append(r["wall"])
    return walls


def import_breakdown(work: Path, count: int = 3) -> dict[str, float]:
    """numpy's cumulative import time and spincycles' own, from -X importtime."""
    numpy_s, own_s = [], []
    for _ in range(count):
        spawn([sys.executable, "-X", "importtime", "-c", "import spincycles.cli"],
              work / "importtime.out", work / "importtime.err", JOB_LIMIT_S)
        numpy_us = own_us = 0
        for line in (work / "importtime.err").read_text().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            name = m.group(4)
            if name == "numpy":
                numpy_us = int(m.group(2))
            if name == "spincycles" or name.startswith("spincycles."):
                own_us += int(m.group(1))
        numpy_s.append(numpy_us / 1e6)
        own_s.append(own_us / 1e6)
    return {"cli.import.numpy_s": statistics.median(numpy_s),
            "cli.import.spincycles_s": statistics.median(own_s)}


# ---------------------------------------------------------------------------
# polygon-scale


def load_corpus() -> dict[str, str]:
    corpus = SRC / "spincycles" / "corpus"
    names = list(workloads.CORPUS) + [workloads.CORPUS_BAD]
    return {n: (corpus / f"{n}.json").read_text(encoding="utf-8") for n in names}


class PolygonRun:
    def __init__(self, seed: int, work: Path):
        self.deck = workloads.polygon_deck(seed, load_corpus())
        self.work = work
        self.facts = {}
        for name, text in self.deck.files.items():
            (work / f"{name}.json").write_text(text, encoding="utf-8")
        self.records: list[dict] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def inputs_digest(self) -> str:
        doc = [[j.job_id, j.command, self.deck.files[j.polygon]] for j in self.deck.jobs]
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()

    def run_job(self, job, tag: str, traced: bool = False) -> bool:
        """Run one job; its transcript is checked later, outside the window.

        Returns False, and runs nothing, once the run's time is up.
        """
        if time.monotonic() > self.deadline:
            if self.records:
                self.records[-1]["cut"] = True
            return False
        files = {k: self.work / f"{job.job_id}.{tag}.{k}" for k in ("out", "stdout", "stderr", "spans")}
        cli_args = job.argv(str(self.work / f"{job.polygon}.json"), str(files["out"]))
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(files["spans"]),
                    job.job_id, "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "spincycles.cli", *cli_args]
        r = spawn(argv, files["stdout"], files["stderr"], JOB_LIMIT_S)
        label = f"{job.job_id} {' '.join(job.command)} {job.polygon}" + (" traced" if traced else "")
        r.update(job=job, key=job.job_id, label=label, traced=traced, files=files)
        self.records.append(r)
        return True

    def check_all(self) -> None:
        for r in self.records:
            files = r["files"]
            r["problems"] = self.check(r)
            if r.get("cut"):
                r["problems"].append(f"later jobs not run: the {RUN_LIMIT_S} s run limit")
            r["out_sha256"] = sha256(files["out"])
            r["stdout_bytes"] = files["stdout"].stat().st_size
            if r["traced"]:
                spans = files["spans"]
                r["spans"] = json.loads(spans.read_text()) if spans.exists() else []

    def check(self, r: dict) -> list[str]:
        job, files = r["job"], r["files"]
        if r["timed_out"]:
            return [f"killed after the {JOB_LIMIT_S} s limit"]
        if job.spec.get("name") == workloads.CORPUS_BAD:
            facts = None
        else:
            if job.polygon not in self.facts:
                self.facts[job.polygon] = oracles.polygon_facts(
                    job.spec, self.deck.files[job.polygon])
            facts = self.facts[job.polygon]
        stdout = files["stdout"].read_bytes()
        stderr = files["stderr"].read_text(errors="replace")
        doc = None
        if r["code"] == 0:
            if not files["out"].exists() or files["out"].read_bytes() != stdout:
                return ["--out transcript missing or different from stdout"]
        try:
            if r["code"] == 0:
                doc = json.loads(stdout)
            return oracles.check_cli(job.command, facts, r["code"], doc, stderr)
        except MALFORMED as exc:
            return [f"malformed transcript: {exc!r}"]


def polygon_scale(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    run = PolygonRun(seed, work)
    info = {"inputs_sha256": run.inputs_digest()}
    if trace:
        for job in run.deck.jobs:
            if not (run.run_job(job, "untraced") and run.run_job(job, "traced", traced=True)):
                break
        run.check_all()
        return {"records": run.records, "info": info, "layers": import_breakdown(work)}
    import_samples(work, 1)  # the first start may compile bytecode
    setup: list[float] = []
    passes = 0
    window_end = time.monotonic() + seconds
    last = 0.0
    while (passes < MIN_PASSES or time.monotonic() + last <= window_end) and (
            time.monotonic() < run.deadline):
        # set-up samples are spread over the run, like the jobs
        setup += import_samples(work, SETUP_SAMPLES_PER_PASS)
        start = time.monotonic()
        for job in run.deck.jobs:
            if not run.run_job(job, f"pass{passes}"):
                break
        last = time.monotonic() - start
        passes += 1
    run.check_all()
    info.update(passes=passes, setup_samples=len(setup))
    return {"records": run.records, "info": info, "setup": setup}


# ---------------------------------------------------------------------------
# group-warm

CHECK_CALL = {
    "verify_transvection_generation": oracles.check_generation,
    "q_orbit_partition": oracles.check_orbit_partition,
    "verify_arf_classification": lambda doc, genus, _arf: oracles.check_arf_classification(doc, genus),
}


def group_warm(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    plan = workloads.group_plan(seed, passes=max(8, 4 * int(seconds)))
    plan["min_passes"] = MIN_PASSES
    plan["verdict_out"] = str(work / "verdict.out.json")
    plan["verdict_argv"] = ["verify", "generation", "--genus", "3", "--arf",
                            str(plan["cold_arf"]), "--json", "--out", plan["verdict_out"]]
    plan["verdict_stdout"] = str(work / "verdict.stdout")
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    result_path, spans_path = work / "session.json", work / "session.spans.json"
    argv = [sys.executable, str(BENCH / "session.py"), str(work / "plan.json"),
            str(result_path), str(seconds)] + ([str(spans_path)] if trace else [])
    r = spawn(argv, work / "session.stdout", work / "session.stderr", SESSION_LIMIT_S)
    info = {"inputs_sha256": hashlib.sha256(json.dumps(plan["passes"]).encode()).hexdigest(),
            "cold_arf": plan["cold_arf"]}
    if r["code"] != 0 or not result_path.exists():
        why = "killed at the session limit" if r["timed_out"] else (
            work / "session.stderr").read_text(errors="replace")[-500:]
        failed = {"key": "session", "label": "session", "code": r["code"], "wall": r["wall"],
                  "problems": [f"session exit {r['code']}: {why}"]}
        return {"records": [failed], "info": info, "session": r, "calls": []}
    res = json.loads(result_path.read_text())

    verdict = {"key": "verdict", "label": "verdict " + " ".join(plan["verdict_argv"][:6]),
               "wall": res["t_ready"] - r["t0"], "code": res["verdict_code"],
               "out_sha256": sha256(Path(plan["verdict_out"])), "problems": []}
    out_bytes = Path(plan["verdict_stdout"]).read_bytes()
    if res["verdict_code"] != 0 or sha256(Path(plan["verdict_out"])) != hashlib.sha256(
            out_bytes).hexdigest():
        verdict["problems"].append(f"verdict exit {res['verdict_code']} or stdout != --out")
    else:
        try:
            doc = json.loads(out_bytes)
            verdict["problems"] += oracles.check_generation(doc, 3, plan["cold_arf"])
            for key, want in (("asserted", True), ("pass", True), ("suite", "generation")):
                if doc.get(key) != want:
                    verdict["problems"].append(f"{key}: got {doc.get(key)!r}")
        except MALFORMED as exc:
            verdict["problems"].append(f"malformed transcript: {exc!r}")
    records = [verdict]
    for i, call in enumerate(res["calls"]):
        fn_name, genus, arf = call["call"]
        try:
            problems = CHECK_CALL[fn_name](call["result"], genus, arf)
        except MALFORMED as exc:
            problems = [f"malformed transcript: {exc!r}"]
        if trace and call["traced_result"] != call["result"]:
            problems.append("traced call returned a different transcript")
        digest = hashlib.sha256(json.dumps(call["result"], sort_keys=True).encode()).hexdigest()
        records.append({"key": f"w{i}", "label": f"w{i} {fn_name} g={genus} arf={arf}",
                        "wall": call["wall"], "out_sha256": digest, "problems": problems})
    info["import_s"] = res["t_import"] - res["t_start"]
    out = {"records": records, "info": info, "session": r, "result": res,
           "calls": res["calls"], "verdict_stdout_bytes": len(out_bytes)}
    if trace:
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        out["layers"] = import_breakdown(work)
        out["spans"] = spans
    return out


# ---------------------------------------------------------------------------
# metrics and report


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def typical_pass_s(slots: dict) -> float:
    """A pass's time with every job at its median wall over the run's passes.

    ``slots`` maps a job's place in the pass to its walls.  Taking medians
    per job keeps one slow or fast stretch of the machine from moving the
    whole figure.
    """
    return sum(statistics.median(walls) for walls in slots.values())


def end_to_end(workload: str, res: dict) -> dict[str, float]:
    slots: dict = {}
    if workload == "polygon-scale":
        jobs = res["records"]
        for r in jobs:
            slots.setdefault(r["job"].job_id, []).append(r["wall"])
        setup = statistics.median(res["setup"])
        rss = max(r["rss_mb"] for r in jobs)
    else:
        jobs = res["calls"]
        seen: dict = {}
        for c in jobs:
            key = (c["pass"], *c["call"])
            seen[key] = seen.get(key, 0) + 1
            slots.setdefault((*c["call"], seen[key]), []).append(c["wall"])
        setup = res["result"]["t_ready"] - res["session"]["t0"]
        rss = res["session"]["rss_mb"]
    walls = [r["wall"] for r in jobs]
    return {
        "setup_s": setup,
        "job_s.p50": statistics.median(walls),
        "jobs_per_s": len(slots) / typical_pass_s(slots),
        "peak_rss_mb": rss,
        "job_s.p90": percentile(walls, 90) if len(walls) >= 100 else None,
        "jobs": len(walls),
    }


def cross_check_trace(r: dict) -> None:
    """Compare one traced q-consistency job with what profiling showed.

    cProfile of ``verify q-consistency`` counts two ``interior_data``
    calls (via ``is_even_point``) per segment the parity rule checks, and
    q evaluations for three forests per segment; the trace should count at
    least as many.  Printed for the reader; it does not gate correctness,
    because a faster program may rightly make fewer calls.
    """
    doc = json.loads(r["files"]["out"].read_text())
    m = tracing.layer_metrics([r["spans"]])
    calls = m["polygon.interior_data.calls"]
    evals = m["spin.eval.calls"]
    want_calls = 2 * doc["parity_rule_segments"]
    want_evals = 3 * doc["segments_checked"]
    print(f"trace check {r['job'].job_id} q-consistency genus {doc['genus']}: "
          f"interior_data.calls={calls} (>= {want_calls}: {calls >= want_calls}), "
          f"spin.eval.calls={evals} (>= {want_evals}: {evals >= want_evals})")


def per_layer(workload: str, res: dict) -> dict[str, float]:
    if workload == "polygon-scale":
        traced = [r for r in res["records"] if r["traced"]]
        untraced = [r for r in res["records"] if not r["traced"]]
        metrics = tracing.layer_metrics([r["spans"] for r in traced])
        metrics["cli.output_bytes"] = sum(r["stdout_bytes"] for r in traced)
        for r in traced:
            if r["job"].command == ("verify", "q-consistency") and r["code"] == 0:
                cross_check_trace(r)
        plain = sum(r["wall"] for r in untraced)
        overhead = sum(r["wall"] for r in traced) - plain
    else:
        metrics = tracing.layer_metrics([res["spans"]])
        metrics["cli.output_bytes"] = res["verdict_stdout_bytes"]
        plain = sum(c["wall"] for c in res["calls"])
        overhead = sum(c["traced_wall"] for c in res["calls"]) - plain
    metrics.update(res["layers"])
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / plain if plain else 0.0
    return metrics


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spincycles").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_metadata(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WHY[args.workload],
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy_version, "git_commit": git_commit(), "src_sha256": source_digest(),
        "load": "one closed-loop client, one job at a time",
    }


def report(args, res: dict) -> dict:
    meta = run_metadata(args)
    meta.update(res["info"])
    print("meta: " + json.dumps(meta))
    digests: dict[str, str | None] = {}
    failed = 0
    for r in res["records"]:
        key, digest = r["key"], r.get("out_sha256")
        if key in digests and digests[key] != digest:
            r["problems"].append("transcript differs from an earlier run of the same job")
        digests.setdefault(key, digest)
        failed += bool(r["problems"])
        verdict = "FAIL " + "; ".join(r["problems"]) if r["problems"] else "ok"
        print(f"job {r['label']} exit={r.get('code')} wall={r['wall']:.4f}s "
              f"out_sha256={digest} {verdict}")
    attempted = len(res["records"])
    print(f"error_rate: {failed / attempted} ratio ({failed} of {attempted} jobs failed)")
    metrics: dict[str, dict] = {}
    if not res.get("calls") and args.workload == "group-warm":
        names = []  # the session died: nothing was measured
    elif args.trace:
        values = per_layer(args.workload, res)
        names = tracing.PER_LAYER
    else:
        values = end_to_end(args.workload, res)
        names = END_TO_END
        n = values["jobs"]
        p90 = values["job_s.p90"]
        print(f"job_s.p90: {p90} s (n={n})" if p90 is not None else
              f"job_s.p90: not reported, n={n} leaves fewer than 10 samples above it")
        print(f"job_s.p50 and jobs_per_s: over n={n} jobs")
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name}: {values[name]} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spincycles" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'spincycles'} is missing", file=sys.stderr)
        return 2
    # a termination request unwinds like an error, so the child and the
    # work directory are cleaned up
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = polygon_scale if args.workload == "polygon-scale" else group_warm
        res = runner(args.seed, args.seconds, bool(args.trace), work)
        result = report(args, res)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
