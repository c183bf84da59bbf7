#!/usr/bin/env python3
"""FASTQ -> SAM benchmark of the gkgpu read mapper.

    python3 perfbench/run.py --workload se_4m --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout.  It builds the CLI and the
benchmark's helper programs (perfbench/CMakeLists.txt) into .bench_build/,
generates the workload's inputs from --seed into .bench_data/ (cached by
their parameters and the generating binary, never timed), runs the
workload and checks its SAM output.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics through the CLI and the daemon
with tracing off.  --trace 1 replays the same inputs through each layer's
public call (pb_replay, pb_load) with spans on and reports the per-layer
metrics; it also prints the layer table.  perfbench/README.md lists every
metric and the end-to-end metric each layer metric should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
DATA = ROOT / ".bench_data"
GKGPU = BUILD / "repo" / "gkgpu"
TOOLS = ["gkgpu_cli", "pb_gen", "pb_load", "pb_replay"]

E = 5
READ_LENGTH = 100
THREADS = 4
INSERT_MEAN, INSERT_SD, MAX_INSERT = 350, 30, 800
GENOMES = {
    "g4m": {"length": 4_000_000, "chromosomes": 4, "seed": 11},
    "g64m": {"length": 64_000_000, "chromosomes": 8, "seed": 13},
}
WORKLOADS = {
    "se_4m": {"kind": "se", "genome": "g4m", "reads": 200_000},
    "pe_64m": {"kind": "pe", "genome": "g64m", "pairs": 100_000},
    "served_4m": {"kind": "served", "genome": "g4m", "reads": 200_000},
}
MIN_PAIRS = 2           # alternated --threads 4 / --threads 1 runs; the
                        # batch job_latency_tail_ms is the slower of the
                        # first MIN_PAIRS --threads 4 runs
SETUP_MIN_REPS = 3      # set-up runs per benchmark run (median reported):
SETUP_MAX_REPS = 25     # at least 3, more while they add up to under 1 s
SETUP_BUDGET_S = 1.0
PROBE_PAIRS = 2_000     # paired-layer probe of single-end workloads (trace)
PROBE_JOBS = 8          # serve-layer probe of batch workloads (trace)
# Served workload: open loop at about half the measured 4-thread capacity
# (~40 jobs/s on a 4-core x86 host), then a scan over a fixed ladder of
# rates 4% apart for the highest one meeting the latency limit.
JOB_READS = 2_000
CONNECTIONS = 4
OPEN_RATE = 20.0        # jobs/s
BURST_JOBS = 80         # closed-loop capacity bursts
BURSTS = 3
LADDER = [round(8 * 1.04 ** i, 2) for i in range(60)]
LADDER_JOBS = 100       # p90 has ten jobs beyond it
LATENCY_LIMIT_MS = 200.0
LATE_P50_LIMIT_MS = 2.0  # generator lateness beyond which a run is invalid
LATE_MAX_LIMIT_MS = 50.0
# Relative path: sun_path holds 108 bytes and a checkout may sit deeper.
SOCKET = ".bench_data/serve.sock"

LIVE = []  # processes to stop if the run aborts


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    raise RuntimeError(msg)


# ----------------------------------------------------------- processes --

class Proc:
    """One child process, reaped with wait4 so its own CPU time and peak
    RSS are known."""

    def __init__(self, cmd, out):
        self.out = open(out, "w")
        self.start = time.monotonic()
        self.p = subprocess.Popen([str(c) for c in cmd], cwd=ROOT,
                                  stdout=self.out)
        LIVE.append(self)

    def wait(self, timeout):
        # A blocking wait4 keeps the wall time exact; the timer only
        # guards against a hung child.
        timer = threading.Timer(timeout, self.p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self.wall = time.monotonic() - self.start
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.rc = self.p.returncode
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.out.close()
        LIVE.remove(self)
        return self

    def stop(self):
        if self.p.returncode is None:
            self.p.send_signal(signal.SIGTERM)
            return self.wait(timeout=60)
        return self


def run(cmd, out=os.devnull, timeout=170):
    return Proc(cmd, out).wait(timeout)


def run_ok(cmd, out=os.devnull):
    p = run(cmd, out)
    if p.rc != 0:
        fail("%s exited with %d" % (" ".join(map(str, cmd)), p.rc))
    return p


def stop_all():
    for p in list(LIVE):
        p.p.kill()
        p.wait(timeout=60)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


_IDS = {}


def tool_id(path):
    """Short digest of a built binary: cached files it produced are keyed
    on it, so a rebuilt program never reuses another build's outputs."""
    if path not in _IDS:
        _IDS[path] = sha256(path)[:16]
    return _IDS[path]


def read_through(paths):
    for path in paths:
        with open(path, "rb") as f:
            while f.read(1 << 23):
                pass


# --------------------------------------------------------------- build --

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no gkgpu sources next to perfbench/; run from a checkout root")
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), *gen, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                    *TOOLS], check=True, stdout=sys.stderr)


# -------------------------------------------------------------- inputs --

def genome(name):
    """The genome directory (FASTA and reads), keyed on pb_gen."""
    g = GENOMES[name]
    d = DATA / ("%s_%d_%d_%d_%s" % (name, g["length"], g["chromosomes"],
                                    g["seed"], tool_id(BUILD / "pb_gen")))
    if not (d / "done").exists():
        log("generating genome %s" % d.name)
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        run_ok([BUILD / "pb_gen", "genome", "--length", g["length"],
                "--chromosomes", g["chromosomes"], "--seed", g["seed"],
                "--out", d / "ref.fa"])
        (d / "lengths.json").write_text(
            json.dumps(checks.read_fasta_lengths(d / "ref.fa")))
        (d / "done").touch()
    return d


def index(name):
    """The genome's .gki, keyed on the gkgpu binary that built it."""
    g = genome(name)
    gki = g / ("ref_%s.gki" % tool_id(GKGPU))
    if not gki.exists():
        log("indexing %s" % g.name)
        tmp = g / "ref.gki.tmp"
        run_ok([GKGPU, "index", "--ref", g / "ref.fa", "--out", tmp])
        tmp.rename(gki)
    return gki


def head_fastq(src, dst, records):
    with open(src) as f, open(dst, "w") as out:
        for _ in range(4 * records):
            out.write(f.readline())


def inputs(wl, seed):
    """Generates (once per seed) the reads of workload `wl`; returns the
    input directory.  Other seeds' reads of the same genome are removed."""
    g = genome(wl["genome"])
    kind = "pe" if wl["kind"] == "pe" else "se"
    count = wl["pairs"] if kind == "pe" else wl["reads"]
    prefix = "%s_%d_seed" % (kind, count)
    d = g / ("%s%d" % (prefix, seed))
    for old in g.glob(prefix + "*"):
        if old != d:
            shutil.rmtree(old, ignore_errors=True)
    if (d / "done").exists():
        return d
    log("generating %s reads, seed %d" % (kind, seed))
    shutil.rmtree(d, ignore_errors=True)
    (d / "out").mkdir(parents=True)
    gen = BUILD / "pb_gen"
    if kind == "se":
        run_ok([gen, "reads", "--ref", g / "ref.fa", "--count", count,
                "--length", READ_LENGTH, "--seed", seed, "--out",
                d / "reads.fq"])
        head_fastq(d / "reads.fq", d / "one.fq", 1)
        run_ok([gen, "pairs", "--ref", g / "ref.fa", "--count", PROBE_PAIRS,
                "--length", READ_LENGTH, "--insert-mean", INSERT_MEAN,
                "--insert-sd", INSERT_SD, "--seed", seed + 1_000_003,
                "--out1", d / "probe_1.fq", "--out2", d / "probe_2.fq"])
    else:
        run_ok([gen, "pairs", "--ref", g / "ref.fa", "--count", count,
                "--length", READ_LENGTH, "--insert-mean", INSERT_MEAN,
                "--insert-sd", INSERT_SD, "--seed", seed, "--out1",
                d / "r1.fq", "--out2", d / "r2.fq"])
        head_fastq(d / "r1.fq", d / "one_1.fq", 1)
        head_fastq(d / "r2.fq", d / "one_2.fq", 1)
        head_fastq(d / "r1.fq", d / "probe.fq", PROBE_JOBS * JOB_READS)
    (d / "done").touch()
    return d


# ---------------------------------------------------------- batch CLI --

def map_cmd(wl, d, threads, one=False, sam=None):
    cmd = [GKGPU, "map", "--index", index(wl["genome"])]
    if wl["kind"] == "pe":
        r = ("one_1.fq", "one_2.fq") if one else ("r1.fq", "r2.fq")
        cmd += ["--paired", d / r[0], d / r[1], "--e", E, "--max-insert",
                MAX_INSERT]
    else:
        cmd += ["--reads", d / ("one.fq" if one else "reads.fq"), "--e", E]
    return cmd + ["--threads", threads, "--sam",
                  sam or d / "out" / "setup.sam"]


def more_setup(times):
    return len(times) < SETUP_MIN_REPS or (
        len(times) < SETUP_MAX_REPS and sum(times) < SETUP_BUDGET_S)


def reads_of(wl):
    return 2 * wl["pairs"] if wl["kind"] == "pe" else wl["reads"]


def reference(wl, d):
    """The untimed reference run of this input by the program under test,
    made on every invocation (it is also the warm-up): its SAM checked in
    full against the simulated truth, its digest and the CLI's own
    funnel."""
    sam, out = d / "out" / "ref.sam", d / "out" / "ref.txt"
    p = run(map_cmd(wl, d, THREADS, sam=sam), out)
    funnel = checks.parse_cli_tables(out.read_text())
    lengths = json.loads((genome(wl["genome"]) / "lengths.json").read_text())
    paired = wl["kind"] == "pe"
    result = checks.check_sam(sam, lengths, reads_of(wl), E, paired,
                              None if paired else funnel.get("reads unmapped"))
    if p.rc != 0:
        result["violations"].append("reference run exited with %d" % p.rc)
    result.update(digest=sha256(sam), funnel=funnel)
    return result


def thread_runs(wl, d, digest, seconds):
    """Alternated --threads 4 / --threads 1 runs over the whole input, at
    least MIN_PAIRS of each and as many as fit in `seconds`.  Each must
    reproduce the reference bytes.  Returns (t4, t1, failed, notes)."""
    t4, t1, failed, notes = [], [], 0, []
    start = time.monotonic()
    while len(t4) < MIN_PAIRS or time.monotonic() - start < seconds:
        for threads, procs in ((THREADS, t4), (1, t1)):
            sam = d / "out" / ("t%d.sam" % threads)
            p = run(map_cmd(wl, d, threads, sam=sam))
            if p.rc != 0 or sha256(sam) != digest:
                failed += 1
                notes.append("threads=%d run differs from the reference "
                             "(exit %d)" % (threads, p.rc))
            procs.append(p)
    return t4, t1, failed, notes


def batch_e2e(wl, d, seconds):
    reads = reads_of(wl)
    read_through([index(wl["genome"])] + sorted(d.glob("*.fq")))
    ref = reference(wl, d)
    attempted, failed, notes = 1, len(ref["violations"]), ref["violations"]

    setup = []
    while more_setup(setup):
        p = run(map_cmd(wl, d, THREADS, one=True))
        attempted += 1
        if p.rc != 0:
            failed += 1
            notes.append("set-up run exited with %d" % p.rc)
        setup.append(p.wall)

    t4, t1, run_failed, run_notes = thread_runs(wl, d, ref["digest"],
                                                seconds)
    attempted += len(t4) + len(t1)
    failed += run_failed
    notes += run_notes
    wall4 = [p.wall for p in t4]
    return attempted, failed, notes, {
        "reads_per_s": reads / statistics.median(wall4),
        "setup_s": statistics.median(setup),
        "cpu_s_per_mread": statistics.median([p.cpu for p in t4]) * 1e6 / reads,
        "peak_rss_mb": statistics.median([p.rss_mb for p in t4]),
        "thread_speedup":
            statistics.median([p.wall for p in t1]) / statistics.median(wall4),
        "mapped_frac": ref["mapped_frac"],
        "correct_frac": ref["correct_frac"],
        # A batch job is one CLI run over the whole input, so these three
        # restate reads_per_s; the tail is taken over a fixed number of
        # runs so that a faster program, which fits more runs into
        # --seconds, does not draw a larger maximum.
        "job_latency_p50_ms": 1e3 * statistics.median(wall4),
        "job_latency_tail_ms": 1e3 * max(wall4[:MIN_PAIRS]),
        "max_jobs_per_s": 1.0 / statistics.median(wall4),
    }, {"runs": len(t4), "wall_s": checks.quartiles(wall4),
        "setup_s": checks.quartiles(setup)}


# -------------------------------------------------------------- served --

class Daemon:
    """`gkgpu serve` on the workload's index.  setup_s runs from the spawn
    to the first answered connection (a stats frame)."""

    def __init__(self, gki, out):
        if (ROOT / SOCKET).exists():
            (ROOT / SOCKET).unlink()
        t0 = time.monotonic()
        self.proc = Proc([GKGPU, "serve", "--index", gki, "--socket",
                          SOCKET, "--e", E, "--threads", THREADS], out)
        if run([BUILD / "pb_load", "wait", "--socket", SOCKET]).rc != 0:
            self.proc.stop()
            fail("daemon did not start")
        self.setup_s = time.monotonic() - t0

    def scrape(self):
        out = DATA / "scrape.txt"
        run_ok([BUILD / "pb_load", "stats", "--socket", SOCKET], out)
        return checks.parse_prometheus(out.read_text())

    def stop(self):
        p = self.proc.stop()
        if p.rc != 0:
            fail("daemon exited with %d" % p.rc)
        return p


def load(reads, expect, phases, spans=None):
    """Runs pb_load's phases against the daemon on SOCKET."""
    out = DATA / "load.json"
    cmd = [BUILD / "pb_load", "run", "--socket", SOCKET,
           "--reads", reads, "--expect", expect, "--job-reads", JOB_READS,
           "--connections", CONNECTIONS, "--phase", ",".join(phases)]
    if spans:
        cmd += ["--spans", spans]
    run_ok(cmd, out)
    return json.loads(out.read_text().strip().splitlines()[-1])


def open_jobs(seconds):
    return max(20, int(round(OPEN_RATE * seconds)))


def served_e2e(wl, d, seconds):
    gki = index(wl["genome"])
    read_through([gki, d / "reads.fq"])
    ref = reference(wl, d)
    attempted, failed, notes = 1, len(ref["violations"]), ref["violations"]
    logs = d / "out"

    # The daemon has no thread count of its own to compare, so
    # thread_speedup is the CLI's on the same input, as on the batch
    # workloads (MIN_PAIRS pairs of runs).
    t4, t1, run_failed, run_notes = thread_runs(wl, d, ref["digest"], 0)
    attempted += len(t4) + len(t1)
    failed += run_failed
    notes += run_notes

    setup = []
    while more_setup(setup):
        daemon = Daemon(gki, logs / "serve_setup.txt")
        setup.append(daemon.setup_s)
        daemon.stop()

    daemon = Daemon(gki, logs / "serve.txt")
    res = load(d / "reads.fq", logs / "ref.sam",
               ["closed:%d" % BURST_JOBS] * BURSTS +
               ["open:%g:%d" % (OPEN_RATE, open_jobs(seconds)),
                "ladder:%g:%d:%s" % (LATENCY_LIMIT_MS, LADDER_JOBS,
                                     "/".join(str(r) for r in LADDER))])
    proc = daemon.stop()

    phases = res["phases"]
    closed = [p for p in phases if p["kind"] == "closed"]
    open_loop = next(p for p in phases if p["kind"] == "open")
    attempted += sum(p["jobs"] for p in phases)
    failed += sum(p["failed"] for p in phases)
    if open_loop["late_p50_ms"] > LATE_P50_LIMIT_MS or \
            open_loop["late_max_ms"] > LATE_MAX_LIMIT_MS:
        failed += 1
        notes.append("load generator ran late (p50 %.2f ms, max %.2f ms): "
                     "run invalid" % (open_loop["late_p50_ms"],
                                      open_loop["late_max_ms"]))
    if res["max_rate"] <= 0:
        failed += 1
        notes.append("no ladder rate met the latency limit")
    served_reads = JOB_READS * sum(p["jobs"] for p in phases)
    # The bursts together are the measured window.
    bursts = [p["window_s"] for p in closed]
    return attempted, failed, notes, {
        "reads_per_s": sum(p["reads_per_s"] * p["window_s"]
                           for p in closed) / sum(bursts),
        "setup_s": statistics.median(setup),
        "cpu_s_per_mread": proc.cpu * 1e6 / served_reads,
        "peak_rss_mb": proc.rss_mb,
        "thread_speedup": statistics.median([p.wall for p in t1]) /
        statistics.median([p.wall for p in t4]),
        "mapped_frac": ref["mapped_frac"],
        "correct_frac": ref["correct_frac"],
        "job_latency_p50_ms": open_loop["p50_ms"],
        "job_latency_tail_ms": open_loop["tail_ms"],
        "max_jobs_per_s": res["max_rate"],
    }, {"burst_s": bursts, "open_loop": open_loop,
        "ladder": [(p["rate"], p["tail_ms"], p["backlog"]) for p in phases
                   if p["kind"] == "ladder"],
        "setup_s": checks.quartiles(setup)}


# --------------------------------------------------------------- trace --

def serve_probe(wl, d, seconds, spans):
    """The serve and pipeline layers under the workload's reads: the full
    open loop for served_4m, a fixed closed-loop probe for batch
    workloads.  Returns (jobs, failed jobs, the daemon's scrape)."""
    gki = index(wl["genome"])
    if wl["kind"] == "pe":
        reads, expect = d / "probe.fq", d / "out" / "probe_ref.sam"
        run_ok([GKGPU, "map", "--index", gki, "--reads", reads, "--e", E,
                "--threads", THREADS, "--sam", expect])
    else:
        reads, expect = d / "reads.fq", d / "out" / "ref.sam"
    if wl["kind"] == "served":
        phases = ["open:%g:%d" % (OPEN_RATE, open_jobs(seconds))]
    else:
        phases = ["closed:%d" % PROBE_JOBS]
    daemon = Daemon(gki, d / "out" / "serve_trace.txt")
    try:
        res = load(reads, expect, phases, spans)
        scrape = daemon.scrape()
    finally:
        daemon.stop()
    jobs = sum(p["jobs"] for p in res["phases"])
    failed = sum(p["failed"] for p in res["phases"])
    return jobs, failed, scrape


def trace(wl, d, seconds, workload_name, seed):
    gki = index(wl["genome"])
    ref = reference(wl, d)
    attempted, failed, notes = 1, len(ref["violations"]), ref["violations"]
    tdir = DATA / "trace"
    tdir.mkdir(parents=True, exist_ok=True)
    stem = tdir / ("%s_seed%d" % (workload_name, seed))
    replay_spans = Path(str(stem) + "_replay.jsonl")
    counts_path = Path(str(stem) + "_counts.json")
    cmd = [BUILD / "pb_replay", "--index", gki, "--e", E,
           "--max-insert", MAX_INSERT, "--spans", replay_spans,
           "--json", counts_path, "--sam", d / "out" / "replay_se.sam",
           "--paired-sam", d / "out" / "replay_pe.sam"]
    if wl["kind"] == "pe":
        cmd += ["--r1", d / "r1.fq", "--r2", d / "r2.fq"]
    else:
        cmd += ["--reads", d / "reads.fq", "--probe-r1", d / "probe_1.fq",
                "--probe-r2", d / "probe_2.fq"]
    attempted += 1
    read_through([gki] + sorted(d.glob("*.fq")))
    run_ok(cmd)
    c = json.loads(counts_path.read_text())
    pc = c["paired"]

    # The replay must reproduce the CLI: its SAM bytes and its funnel.
    funnel = ref["funnel"]
    replay_sam = d / "out" / ("replay_pe.sam" if wl["kind"] == "pe"
                              else "replay_se.sam")
    if sha256(replay_sam) != ref["digest"]:
        failed += 1
        notes.append("replayed SAM differs from the CLI's")
    if wl["kind"] == "pe":
        agree = (funnel.get("after pairing") == pc["candidates_paired"] and
                 funnel.get("verification pairs") == pc["verification_pairs"])
    else:
        agree = (funnel.get("verification pairs") == c["verify_pairs"] and
                 funnel.get("rejected pairs") == c["filter_rejected"])
    if not agree:
        failed += 1
        notes.append("replayed funnel differs from the CLI's")

    load_spans = Path(str(stem) + "_serve.jsonl")
    jobs, jobs_failed, scrape = serve_probe(wl, d, seconds, load_spans)
    attempted += jobs
    failed += jobs_failed

    spans = checks.load_spans(replay_spans)
    self_s = checks.self_times(spans)
    serve_spans = checks.load_spans(load_spans)
    merged = spans + [dict(s, id=s["id"] + len(spans),
                           parent=s["parent"] + len(spans)
                           if s["parent"] >= 0 else -1)
                      for s in serve_spans]
    with open(str(stem) + "_spans.jsonl", "w") as f:
        for s in merged:
            f.write(json.dumps(s) + "\n")

    def t(name):
        return self_s.get(name, 0.0)

    reads = c["reads"]
    stage = {s: checks.prom(scrape, "gkgpu_stage_service_seconds_sum",
                            stage=s)
             for s in ("source", "encode", "filter", "verify", "sink")}
    queue_wait = sum(checks.prom(scrape, "gkgpu_stage_queue_wait_seconds_sum",
                                 stage=s)
                     for s in ("encode", "filter", "verify", "sink"))
    batches = checks.prom(scrape, "gkgpu_serve_batches_total")
    coalesced = checks.prom(scrape, "gkgpu_serve_coalesced_batches_total")
    layer_names = [n for n in self_s if n not in ("replay", "batch")]
    attributed = sum(self_s[n] for n in layer_names)
    seed_ns = 1e9 * t("mapper.seed") / reads
    m = {
        "io.index_open_s": t("io.index_open"),
        "io.fastq_parse_s": t("io.fastq_parse"),
        "io.fastq_mb_per_s": c["fastq_bytes"] / 1e6 / t("io.fastq_parse"),
        "core.engine_init_s": t("core.engine_init"),
        "mapper.index_build_s": t("mapper.index_build"),
        "mapper.seed_s": t("mapper.seed"),
        "mapper.seed_ns_per_read": seed_ns,
        "mapper.candidates_per_read": c["candidates"] / reads,
        "encode.read_table_s": t("encode.read_table"),
        "encode.ns_per_read": 1e9 * t("encode.read_table") / reads,
        "simd.kernel_s": t("simd.kernel"),
        "simd.ns_per_pair": 1e9 * t("simd.kernel") / c["simd_pairs"],
        "simd.pairs": c["simd_pairs"],
        "simd.computed_bytes": c["simd_bytes"],
        "core.filter_s": t("core.filter"),
        # CPU seconds: the engine filters on two threads, the replayed
        # kernel and encoder on one.
        "core.filter_overhead_s":
            c["filter_cpu_s"] - t("simd.kernel") - t("encode.read_table"),
        "filters.reject_frac": c["filter_rejected"] / c["filter_input"],
        "filters.bypass_frac": c["filter_bypassed"] / c["filter_input"],
        "filters.false_accept_frac":
            c["false_accepts"] / max(1, c["filter_accepted_defined"]),
        "align.verify_s": t("align.verify"),
        "align.verify_ns_per_pair":
            1e9 * t("align.verify") / max(1, c["verify_pairs"]),
        "align.verify_pairs": c["verify_pairs"],
        "align.verify_pass_frac": c["verify_pass"] / max(1, c["verify_pairs"]),
        "mapper.sam_format_s": t("mapper.sam_format"),
        "mapper.sam_ns_per_record": 1e9 * t("mapper.sam_format") / reads,
        "mapper.sam_bytes": c["sam_bytes"],
        "paired.map_pairs_s": t("paired.map_pairs"),
        "paired.candidates_seeded": pc["candidates_seeded"],
        "paired.candidates_paired": pc["candidates_paired"],
        "paired.prune_ratio":
            pc["candidates_seeded"] / max(1, pc["candidates_paired"]),
        "paired.filter_reject_frac":
            pc["rejected_pairs"] / max(1, pc["candidates_paired"]),
        "paired.verification_pairs": pc["verification_pairs"],
        "paired.rescue_invocations": pc["rescue_invocations"],
        "paired.rescued_mates": pc["rescued_mates"],
        # Derived: MapPairs minus the seeding its reads cost in the replay.
        "paired.internal_s":
            t("paired.map_pairs") - 2 * pc["pairs"] * seed_ns * 1e-9,
        "pipeline.source_busy_s": stage["source"],
        "pipeline.encode_busy_s": stage["encode"],
        "pipeline.filter_busy_s": stage["filter"],
        "pipeline.verify_busy_s": stage["verify"],
        "pipeline.sink_busy_s": stage["sink"],
        "pipeline.queue_wait_s": queue_wait,
        "pipeline.batches": batches,
        "serve.connect_ms": 1e3 * statistics.median(
            checks.durations(serve_spans, "serve.connect")),
        "serve.coalesced_batch_frac": coalesced / max(1.0, batches),
        "serve.sessions_failed":
            checks.prom(scrape, "gkgpu_serve_sessions_total", state="failed"),
        "trace.unattributed_frac": (c["cpu_s"] - attributed) / c["cpu_s"],
    }
    if c["kernel_mismatch"]:
        failed += 1
        notes.append("replayed kernel disagrees with the engine")
    if m["serve.sessions_failed"]:
        failed += 1
        notes.append("daemon reports failed sessions")
    print_layer_table(workload_name, m, self_s, c)
    return attempted, failed, notes, m, {"spans": str(stem) + "_spans.jsonl"}


def print_layer_table(name, m, self_s, c):
    print("per-layer table, workload %s (replay cpu %.3f s, wall %.3f s, "
          "simd tier %s):" % (name, c["cpu_s"], c["wall_s"], c["simd_tier"]))
    print("| span | self time (s) |")
    print("|---|---|")
    for span, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print("| %s | %.4f |" % (span, s))
    print("| metric | value |")
    print("|---|---|")
    for k, v in m.items():
        print("| %s | %.6g |" % (k, v))


# ---------------------------------------------------------------- main --

def metric_units(trace):
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    build()
    units = metric_units(args.trace)
    d = inputs(wl, args.seed)
    if args.trace:
        attempted, failed, notes, metrics, extra = trace(
            wl, d, args.seconds, args.workload, args.seed)
    elif wl["kind"] == "served":
        attempted, failed, notes, metrics, extra = served_e2e(
            wl, d, args.seconds)
    else:
        attempted, failed, notes, metrics, extra = batch_e2e(
            wl, d, args.seconds)
    if set(metrics) != set(units):
        fail("metrics %s do not match BENCHMARK.json"
             % sorted(set(metrics) ^ set(units)))
    for n in notes:
        log("violation: " + n)
    log("details: " + json.dumps(extra))
    if failed == 0:
        log("failed_frac: 0 (%d operations)" % attempted)
    else:
        log("failed_frac: %.6g (%d of %d operations)"
            % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # A SIGTERM unwinds through the finally below, which stops the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        code = main()
    except Exception as exc:  # noqa: BLE001 - report and exit non-zero
        log("error: %s" % exc)
        code = 1
    finally:
        stop_all()
    sys.exit(code)
