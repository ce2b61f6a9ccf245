#!/usr/bin/env python3
"""The btpan benchmark.

Run from the root of a btpan checkout:

    python3 perfbench/run.py --workload campaign-half --seed 1 --seconds 30 --trace 0

It builds `btpan` and the helper `btpan-perfbench` (release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`), sets up the workload's
inputs from `--seed`, then runs ops in a closed loop (one client; the next
op starts when the previous one has ended) for `--seconds` seconds. Every
op is a fresh process, as a user's command is, so the process-wide loss
calibration memo starts cold each time. Every op's output is checked.
A fixed reference job runs before every op and every set-up; the gated
times are scaled by it (see REFERENCE_S).

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
runs the op once untraced and then in-process with spans around each
layer's public calls (see `src/main.rs`), and prints per-layer metrics.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. Workloads, metrics and
the CLI defects the harness works around are described in
`perfbench/NOTES.md`.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path.cwd()
OP_TIMEOUT_S = 60
SETUP_REPEATS = 3
# Half a year of the default testbed: an op takes about 2.6 s, so that a
# 30 s run holds eight or more; a one-year op (5.4 s) leaves five, too
# few for a steady median.
CAMPAIGN_HOURS = 4380
# The read-path trace covers a quarter of a year, so that an op takes
# about 2.4 s and a 30 s run holds eight or more of them; a one-year op
# takes 10 s.
TRACE_HOURS = 2190
# The shared host's speed drifts by 20% or more over minutes, and the
# CPU time of an op drifts with it; it also switches between a fast and
# a slow mode every few seconds. The reference job (`btpan-perfbench
# reference`, std only, no btpan code) runs before every op and every
# set-up and after the last op. Each op's time is divided by the mean
# of the reference times just before and after it, and the gated times
# are REFERENCE_S times the median of these ratios: seconds on a host
# where the reference job takes REFERENCE_S, its median on the 2-core
# host the benchmark was defined on. The job takes about 0.8 s there (at
# 0.3 s its own times spread too much to scale by) and has a parsing half
# and a simulation half, since the campaign op tracked the parsing half
# alone poorly.
REFERENCE_S = 0.8
REFERENCE_CHECKSUM = "8a163d389770c72b"
TABLE4_SEEDS = 8
TABLE4_HOURS = 24
TABLE4_POLICIES = 4
TABLE4_TESTBEDS = 2  # the paper-both topology behind experiment::table4
STREAM_SHARDS = 2

# Metric names and units: BENCHMARK.json at the root of the checkout is
# the one list of both.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Span names of each layer, as `src/main.rs` records them.
LAYERS = {
    "campaign.calibrate": ["campaign.calibrate"],
    "campaign.simulate": ["campaign.simulate"],
    "collect.ship": ["collect.ship"],
    "collect.repository": ["collect.repository.records", "collect.repository.views"],
    "collect.trace": ["collect.trace.export", "collect.trace.import"],
    "collect.rebuild": ["collect.rebuild"],
    "collect.relate": ["collect.relate"],
    "stream.parse": ["stream.parse"],
    "stream.engine": ["stream.engine", "stream.ingest", "stream.finish"],
    "core.supervisor": ["core.supervisor"],
    "analysis": ["analysis"],
}


class CheckFailed(Exception):
    """An op's output is wrong."""


def fail(message):
    raise CheckFailed(message)


def log(message):
    print(message, flush=True)


class Proc:
    """One finished child process with its resource usage."""

    def __init__(self, argv, code, wall_s, cpu_s, rss_mb, stdout, stderr):
        self.argv = argv
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr

    def expect_ok(self):
        if self.code != 0:
            fail(f"`{' '.join(self.argv[:2])}` exited {self.code}: {self.stderr.strip()[-300:]}")
        return self


def run_proc(argv, work):
    """Runs `argv` to completion and returns its wall time, user+sys CPU
    time over all its threads, and peak resident memory (from `wait4`)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        [str(a) for a in argv],
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports KiB
        out_path.read_text(),
        err_path.read_text(),
    )


def grab(pattern, text, what):
    match = re.search(pattern, text, re.MULTILINE)
    if not match:
        fail(f"no {what} in output")
    return match.group(1)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def count_lines(path):
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))


class Op:
    """What one op measured and produced."""

    def __init__(self, procs, sim_hours, records, output):
        self.wall_s = sum(p.wall_s for p in procs)
        self.cpu_s = sum(p.cpu_s for p in procs)
        self.rss_mb = max(p.rss_mb for p in procs)
        self.sim_hours = sim_hours
        self.records = records
        self.output = output  # deterministic output, compared between ops


def parse_campaign(text):
    """The counts `btpan campaign` prints in text mode."""
    return {
        "cycles": int(grab(r"^cycles:\s+(\d+)", text, "cycles")),
        "failures": int(grab(r"^failures:\s+(\d+)", text, "failures")),
        "masked": int(grab(r"^masked:\s+(\d+)", text, "masked")),
        "records": int(grab(r"^log items:\s+(\d+)", text, "log items")),
        "mttf": grab(r"MTTF: ([\d.inf]+) s", text, "MTTF"),
        "mttr": grab(r"MTTR: ([\d.]+) s", text, "MTTR"),
        "availability": grab(r"^availability: ([\d.]+)", text, "availability"),
    }


class Workload:
    """Base: a workload sets up inputs, runs ops and traced ops."""

    name = ""

    def __init__(self, bins, work, seed):
        self.btpan, self.helper = bins
        self.work = work
        self.seed = seed
        self.first_output = None
        self.fingerprint = {}
        self.trace_bytes = 0

    def check_deterministic(self, op):
        if self.first_output is None:
            self.first_output = op.output
        elif op.output != self.first_output:
            fail("op output differs from the first op with the same seed")

    def env(self):
        return {}


class CampaignHalf(Workload):
    """`btpan campaign --hours 4380` on the default topology, exporting."""

    name = "campaign-half"

    def setup(self):
        # Pre-flight: one short campaign checks the binary and its text
        # output before anything is timed.
        text = run_proc(self.campaign_argv(24), self.work).expect_ok().stdout
        if parse_campaign(text)["records"] <= 0:
            fail("pre-flight campaign produced no records")
        return text

    def campaign_argv(self, hours, export=None):
        argv = [self.btpan, "campaign", "--hours", hours, "--seed", self.seed]
        return argv + (["--export", export] if export else [])

    def op(self):
        trace = self.work / "campaign.jsonl"
        proc = run_proc(self.campaign_argv(CAMPAIGN_HOURS, trace), self.work).expect_ok()
        counts = parse_campaign(proc.stdout)
        exported = int(grab(r"^exported (\d+) records", proc.stdout, "export line"))
        lines = count_lines(trace)
        if not counts["records"] == exported == lines:
            fail(f"log items {counts['records']}, exported {exported}, trace lines {lines}")
        digest = sha256(trace)
        if self.first_output is None:
            imported = run_proc([self.helper, "import-check", trace], self.work).expect_ok()
            if int(grab(r"^records (\d+)", imported.stdout, "record count")) != lines:
                fail("the exported trace does not import to the same record count")
            self.fingerprint = dict(counts, trace_sha256=digest)
            self.trace_bytes = trace.stat().st_size
        op = Op([proc], CAMPAIGN_HOURS, counts["records"], proc.stdout + digest)
        self.check_deterministic(op)
        return op

    def traced(self):
        trace = self.work / "traced.jsonl"
        spans = self.work / "spans.json"
        argv = [self.helper, "trace", self.name, "--seed", self.seed, "--hours", CAMPAIGN_HOURS,
                "--export", trace, "--out", spans]
        proc = run_proc(argv, self.work).expect_ok()
        data = json.loads(spans.read_text())
        fp = data["fingerprint"]
        for key in ("cycles", "failures", "masked", "records"):
            if int(fp[key]) != self.fingerprint[key]:
                fail(f"traced run {key} {fp[key]} != untraced {self.fingerprint[key]}")
        for key in ("mttf", "mttr", "availability"):
            if fp[key] != self.fingerprint[key]:
                fail(f"traced run {key} {fp[key]} != untraced {self.fingerprint[key]}")
        if int(fp["ship_records"]) != self.fingerprint["records"]:
            fail("replayed shipping stored a different number of records")
        if sha256(trace) != self.fingerprint["trace_sha256"]:
            fail("traced export differs from the CLI's export")
        return proc.wall_s, data

    def env(self):
        return {"seed": self.seed, "hours": CAMPAIGN_HOURS, "trace_bytes": self.trace_bytes}


class Table4Day(Workload):
    """`experiment::table4` at 8 seeds x 24 h, through the helper binary."""

    name = "table4-day"

    def __init__(self, bins, work, seed):
        super().__init__(bins, work, seed)
        self.seeds = ",".join(str(seed * TABLE4_SEEDS + i) for i in range(TABLE4_SEEDS))
        self.records = None

    def scale_args(self):
        return ["--seeds", self.seeds, "--hours", TABLE4_HOURS]

    def setup(self):
        # `experiment::table4` returns only the table, so set-up counts
        # what its campaigns produce, for records_per_s and the
        # fingerprint.
        proc = run_proc([self.helper, "table4-records", *self.scale_args()], self.work).expect_ok()
        counts = {k: int(v) for k, v in re.findall(r"(\w+) (\d+)", proc.stdout)}
        if counts.get("records", 0) <= 0:
            fail("table4 campaigns produced no records")
        self.records = counts["records"]
        self.fingerprint = counts
        return proc.stdout

    def op(self):
        proc = run_proc([self.helper, "table4", *self.scale_args()], self.work).expect_ok()
        scenarios = re.findall(
            r'^scenario "([^"]+)" mttf_s=(\S+) mttr_s=(\S+) availability=(\S+) ', proc.stdout, re.M
        )
        if len(scenarios) != TABLE4_POLICIES:
            fail(f"{len(scenarios)} Table 4 scenarios, expected {TABLE4_POLICIES}")
        for label, mttf, mttr, avail in scenarios:
            mttf, mttr, avail = float(mttf), float(mttr), float(avail)
            if not (math.isfinite(mttf) and math.isfinite(mttr) and 0 < avail <= 1):
                fail(f"{label}: MTTF {mttf}, MTTR {mttr}, availability {avail}")
        if self.first_output is None:
            for label, mttf, mttr, avail in scenarios:
                self.fingerprint[label] = f"MTTF {mttf} MTTR {mttr} A {avail}"
        hours = TABLE4_POLICIES * TABLE4_SEEDS * TABLE4_TESTBEDS * TABLE4_HOURS
        op = Op([proc], hours, self.records, proc.stdout)
        self.check_deterministic(op)
        return op

    def traced(self):
        spans = self.work / "spans.json"
        argv = [self.helper, "trace", self.name, *self.scale_args(), "--out", spans]
        proc = run_proc(argv, self.work).expect_ok()
        data = json.loads(spans.read_text())
        if data["fingerprint"]["table4"] != self.first_output:
            fail("traced Table 4 differs from the untraced op")
        return proc.wall_s, data

    def env(self):
        return {"seeds": self.seeds, "hours": TABLE4_HOURS}


# `btpan stream` reports a peak residency that depends on thread timing;
# it is masked before outputs are compared.
PEAK = re.compile(r"\(peak \d+\)")


def table2_rows(text):
    return re.findall(r"^\s*(\S.*?)\s+n=(\d+)\s+dominant: (.*)$", text, re.M)


class TraceQuarter(Workload):
    """`btpan analyze` and `btpan stream --shards 2` on a quarter-year trace."""

    name = "trace-quarter"

    def __init__(self, bins, work, seed):
        super().__init__(bins, work, seed)
        self.trace = work / "quarter.jsonl"
        self.campaign = None

    def setup(self):
        argv = [self.btpan, "campaign", "--hours", TRACE_HOURS, "--seed", self.seed,
                "--export", self.trace]
        proc = run_proc(argv, self.work).expect_ok()
        self.campaign = parse_campaign(proc.stdout)
        if count_lines(self.trace) != self.campaign["records"]:
            fail("generated trace does not hold the records the campaign reported")
        self.trace_bytes = self.trace.stat().st_size
        return proc.stdout + sha256(self.trace)

    def op(self):
        analyze = run_proc([self.btpan, "analyze", self.trace], self.work).expect_ok()
        stream = run_proc(
            [self.btpan, "stream", self.trace, "--shards", STREAM_SHARDS], self.work
        ).expect_ok()
        m = re.search(r"^(\d+) records, (\d+) related failures", analyze.stdout, re.M)
        if not m:
            fail("no record count in analyze output")
        records, related = int(m.group(1)), int(m.group(2))
        emitted = int(grab(r"(\d+) records emitted", stream.stdout, "emitted count"))
        episodes = int(grab(r"episodes (\d+)", stream.stdout, "episodes"))
        stream_rows = table2_rows(stream.stdout.split("table2:", 1)[-1])
        stream_related = sum(int(n) for _, n, _ in stream_rows)
        if not records == emitted == self.campaign["records"]:
            fail(f"analyze {records} / stream {emitted} / trace {self.campaign['records']} records")
        if related != stream_related:
            fail(f"analyze relates {related} failures, stream {stream_related}")
        if table2_rows(analyze.stdout) != stream_rows:
            fail("analyze and stream disagree on the Table 2 rows")
        if self.first_output is None:
            self.fingerprint = dict(self.campaign, related=related, episodes=episodes)
        output = analyze.stdout + PEAK.sub("(peak -)", stream.stdout)
        op = Op([analyze, stream], TRACE_HOURS, records, output)
        self.check_deterministic(op)
        return op

    def traced(self):
        spans = self.work / "spans.json"
        argv = [self.helper, "trace", self.name, "--trace", self.trace,
                "--shards", STREAM_SHARDS, "--out", spans]
        proc = run_proc(argv, self.work).expect_ok()
        data = json.loads(spans.read_text())
        fp = data["fingerprint"]
        want = {"records": self.fingerprint["records"], "emitted": self.fingerprint["records"],
                "related": self.fingerprint["related"], "stream_related": self.fingerprint["related"],
                "episodes": self.fingerprint["episodes"]}
        for key, value in want.items():
            if int(fp[key]) != value:
                fail(f"traced run {key} {fp[key]} != untraced {value}")
        return proc.wall_s, data

    def env(self):
        return {"seed": self.seed, "hours": TRACE_HOURS, "trace_bytes": self.trace_bytes,
                "shards": STREAM_SHARDS}


WORKLOADS = {w.name: w for w in (CampaignHalf, Table4Day, TraceQuarter)}


def layer_metrics(data, traced_wall_s, untraced_wall_s):
    """Per-layer metrics of one traced op, from its spans and counters."""
    spans, counters = data["spans"], data["counters"]
    selfs = stats.self_times(spans)

    def busy(*names):
        return float(sum(s for span, s in zip(spans, selfs) if span["name"] in names))

    def count(name):
        return float(counters.get(name, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    root = next(i for i, s in enumerate(spans) if s["name"] == "op")
    inside = stats.descendants(spans, root)
    ship = busy("collect.ship")
    # Shipping runs inside Campaign::run; the harness replays it after the
    # op and subtracts the replay from the simulate span.
    simulate = max(0.0, busy("campaign.simulate") - ship) if count_spans(spans, "campaign.simulate") else 0.0
    layer_self = {layer: busy(*names) for layer, names in LAYERS.items()}
    layer_self["campaign.simulate"] = simulate
    op_wall = spans[root]["end"] - spans[root]["start"]
    attributed = sum(selfs[i] for i in inside)  # includes the simulate span whole
    pool_wall = float(sum(span["end"] - span["start"] for span in spans if span["name"] == "core.supervisor"))
    calibrate = busy("campaign.calibrate")
    m = {
        "calibrate.busy_s": calibrate,
        "calibrate.calls": float(count_spans(spans, "campaign.calibrate")),
        "baseband.payloads": count("baseband.payloads"),
        "baseband.retransmits": count("baseband.retransmits"),
        "baseband.payloads_per_s": ratio(count("baseband.payloads"), calibrate),
        "simulate.self_s": simulate,
        "campaign.cycles": count("campaign.cycles"),
        "campaign.failures": count("campaign.failures"),
        "campaign.masked": count("campaign.masked"),
        "recovery.attempts": count("recovery.attempts"),
        "simulate.ns_per_cycle": ratio(simulate * 1e9, count("campaign.cycles")) if simulate else 0.0,
        "ship.busy_s": ship,
        "ship.shipped": count("ship.shipped"),
        "ship.filtered": count("ship.filtered"),
        "ship.keep_ratio": ratio(count("ship.shipped"), count("ship.shipped") + count("ship.filtered")),
        "repository.records_s": busy("collect.repository.records"),
        "repository.views_s": busy("collect.repository.views"),
        "repository.records": count("repository.records"),
        "export.busy_s": busy("collect.trace.export"),
        "export.bytes": count("export.bytes"),
        "import.busy_s": busy("collect.trace.import"),
        "import.records_per_s": ratio(count("import.records"), busy("collect.trace.import")),
        "rebuild.busy_s": busy("collect.rebuild"),
        "rebuild.duplicates": count("rebuild.duplicates"),
        "relate.busy_s": busy("collect.relate"),
        "relate.related": count("relate.related"),
        "relate.related_ratio": ratio(count("relate.with_cause"), count("relate.user_records")),
        "stream_parse.busy_s": busy("stream.parse"),
        "stream_parse.lines": count("stream_parse.lines"),
        "stream.ingest_s": busy("stream.ingest"),
        "stream.finish_s": busy("stream.finish"),
        "stream.emitted": count("stream.emitted"),
        "stream.late": count("stream.late"),
        "stream.duplicates": count("stream.duplicates"),
        "stream.peak_resident": count("stream.peak_resident"),
        "pool.wall_s": pool_wall,
        "pool.busy_s": count("pool.busy_s"),
        "pool.utilisation": ratio(count("pool.busy_s"), count("pool.workers") * pool_wall),
        "pool.attempts": count("pool.attempts"),
        "pool.retries": count("pool.retries"),
        "analysis.busy_s": busy("analysis"),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.unattributed_s": op_wall - attributed,
    }
    return m, layer_self, op_wall


def count_spans(spans, name):
    return sum(1 for span in spans if span["name"] == name)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Builds both binaries; cargo's output goes to stderr."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = ROOT / env["CARGO_TARGET_DIR"]
    for extra in (["--bin", "btpan"], ["--manifest-path", "perfbench/Cargo.toml"]):
        done = subprocess.run(["cargo", "build", "--release", "--offline", *extra], cwd=ROOT,
                              env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: cargo build failed ({' '.join(extra)})")
    return target / "release" / "btpan", target / "release" / "btpan-perfbench"


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "core").is_dir():
        print("perfbench: run from the root of a btpan checkout (no Cargo.toml or crates/ here)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    bins = build()

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, bins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def reference(bins, work):
    """Runs the reference job once and checks its checksum."""
    proc = run_proc([bins[1], "reference"], work).expect_ok()
    if proc.stdout.strip() != REFERENCE_CHECKSUM:
        fail(f"reference job printed {proc.stdout.strip()!r}, expected {REFERENCE_CHECKSUM}")
    return proc


def measure(args, bins, work):
    workload = WORKLOADS[args.workload](bins, work, args.seed)
    attempted = failed = 0
    ops, setups, traced = [], [], []
    setup_refs, refs = [], []
    errors = []
    try:
        # Set-up, repeated so its median is steady; every repeat must
        # produce the same inputs.
        outputs = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            setup_refs.append(reference(bins, work))
            start = time.perf_counter()
            outputs.append(workload.setup())
            setups.append(time.perf_counter() - start)
        if len(set(outputs)) != 1:
            fail("set-up is not deterministic")

        begin = time.perf_counter()
        while not ops or (not args.trace and time.perf_counter() - begin < args.seconds):
            refs.append(reference(bins, work))
            attempted += 1
            try:
                ops.append(workload.op())
            except CheckFailed as e:
                failed += 1
                errors.append(str(e))
                if failed >= 3:
                    break
        refs.append(reference(bins, work))
        if args.trace and not failed:
            while not traced or time.perf_counter() - begin < args.seconds:
                traced.append(workload.traced())
    except CheckFailed as e:
        errors.append(str(e))
        failed = max(failed, 1)
        attempted = max(attempted, 1)

    env = {
        "workload": args.workload,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "build_profile": "release",
        "python": platform.python_version(),
        "trace": args.trace,
        "reference_s_nominal": REFERENCE_S,
        **workload.env(),
    }
    log("environment: " + json.dumps(env))
    log("fingerprint: " + json.dumps(workload.fingerprint, sort_keys=True))
    for e in errors:
        log(f"check failed: {e}")
    log(f"error_rate: {failed / attempted:.4f} ({failed} failed / {attempted} attempted ops)")
    if errors or not ops:
        print(result_line(False, attempted, failed, {}, []))
        return 1

    if args.trace:
        return report_traced(ops, traced, attempted, failed)
    return report_end_to_end(ops, setups, refs, setup_refs, attempted, failed)


def report_end_to_end(ops, setups, refs, setup_refs, attempted, failed):
    # Measured as they are; printed, not gated: on a shared host they
    # drift with its speed.
    measured = {
        "wall_s": ([op.wall_s for op in ops], "s"),
        "cpu_s": ([op.cpu_s for op in ops], "s"),
        "sim_hours_per_s": ([op.sim_hours / op.wall_s for op in ops], "h/s"),
        "records_per_s": ([op.records / op.wall_s for op in ops], "1/s"),
        "setup_wall_s": (setups, "s"),
        "reference_s": ([p.wall_s for p in refs], "s"),
        "reference_cpu_s": ([p.cpu_s for p in refs], "s"),
        "setup_reference_s": ([p.wall_s for p in setup_refs], "s"),
    }
    med = {name: stats.median(values) for name, (values, _) in measured.items()}
    # The gated metrics (BENCHMARK.json): times in reference seconds. The
    # reference run before the first op closes the last set-up.
    wall = stats.paired_ratios([op.wall_s for op in ops], [p.wall_s for p in refs])
    cpu = stats.paired_ratios([op.cpu_s for op in ops], [p.cpu_s for p in refs])
    setup = stats.paired_ratios(setups, [p.wall_s for p in setup_refs + refs[:1]])
    metrics = {
        "wall_ref_s": REFERENCE_S * stats.median(wall),
        "cpu_ref_s": REFERENCE_S * stats.median(cpu),
        "records_per_ref_s": stats.median(
            [op.records / (REFERENCE_S * ratio) for op, ratio in zip(ops, wall)]
        ),
        "peak_rss_mb": stats.median([op.rss_mb for op in ops]),
        "setup_s": REFERENCE_S * stats.median(setup),
    }
    samples = {"setup_s": len(setups), "wall_ref_s": len(ops), "cpu_ref_s": len(ops),
               "records_per_ref_s": len(ops), "peak_rss_mb": len(ops)}
    for name, (values, unit) in measured.items():
        spread = f", quartile spread {stats.quartile_spread(values):.3f}" if len(values) > 1 else ""
        log(f"measured {name:<18} {med[name]:>14.6g} {unit:<4} median of n={len(values)}{spread}")
    log(f"op / reference: median {stats.median(wall):.4f} (wall), {stats.median(cpu):.4f} (cpu), "
        f"quartile spread {stats.quartile_spread(wall) if len(wall) > 1 else 0:.3f} (wall); "
        f"REFERENCE_S {REFERENCE_S} s")
    for name, unit in END_TO_END:
        log(f"{name:<18} {metrics[name]:>14.6g} {unit:<4} n={samples[name]}")
    log("wall_s per op: " + " ".join(f"{op.wall_s:.4f}" for op in ops))
    log("reference_s per op: " + " ".join(f"{p.wall_s:.4f}" for p in refs))
    tail = stats.tail_percentile(measured["wall_s"][0])
    if tail:
        log(f"wall_s p{tail[0]}: {tail[1]:.6g} s (n={len(ops)}, 10 samples beyond it)")
    else:
        log(f"wall_s tail: n={len(ops)}, too few samples for a percentile with 10 beyond it")
    print(result_line(True, attempted, failed, metrics, END_TO_END))
    return 0


def report_traced(ops, traced, attempted, failed):
    untraced_wall = stats.median([op.wall_s for op in ops])
    runs = [layer_metrics(data, wall, untraced_wall) for wall, data in traced]
    metrics = {name: stats.median([m[name] for m, _, _ in runs]) for name, _ in PER_LAYER}
    layer_self = {layer: stats.median([s[layer] for _, s, _ in runs]) for layer in LAYERS}
    op_wall = stats.median([w for _, _, w in runs])
    log(f"traced op: {op_wall:.4f} s in-process over n={len(runs)} traced ops; "
        f"untraced op {untraced_wall:.4f} s (n={len(ops)})")
    for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        if seconds > 0:
            log(f"  layer {layer:<20} self {seconds:9.4f} s  {100 * seconds / op_wall:5.1f}% of op")
    absent = [layer for layer, seconds in layer_self.items() if seconds == 0]
    log(f"  absent layers: {', '.join(absent) or 'none'}")
    for name, unit in PER_LAYER:
        log(f"{name:<26} {metrics[name]:>16.6g} {unit}")
    print(result_line(True, attempted, failed, metrics, PER_LAYER))
    return 0


if __name__ == "__main__":
    sys.exit(main())
