#!/usr/bin/env python3
"""End-to-end and traced benchmark for the nvlitmus checker.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds nvlitmus
(Release, into .bench_build/) from the checkout's own sources; later
runs reuse the build. Workloads (docs in perfbench/README.md):

  check-gen       daemon, seeded generated programs, every lookup misses
  corpus-replay   daemon, the 96 built-in tests plus renamed variants,
                  skewed repeats, nearly every lookup hits
  synth-n4        CLI, one `nvlitmus --synth=4 --jobs 1` per op
  conform-stream  daemon `conform` op on seeded trace files

One client, one outstanding request (a closed loop), nvlitmus at
--jobs 1. Inputs are generated from --seed before any timing starts.
Every op is checked against an oracle; failed ops are listed on stderr
with their input. --trace 0 measures the end-to-end metrics; --trace 1
is the separate traced run that reports per-layer metrics. A table with
units and sample counts goes to stdout, and the last stdout line is the
JSON result.
"""

import argparse
import contextlib
import json
import multiprocessing
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
NVLITMUS = BUILD / "nvlitmus" / "tools" / "nvlitmus"
TRACER = BUILD / "tracer" / "tracer"

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402

OP_TIMEOUT_S = 60
SETUP_SAMPLES = 21
VERIFY_WORKERS = 3
PING = b'{"cmd":"ping"}\n'

# Generated programs per second of run time (a pool the run cannot
# exhaust at today's speed; a faster checker ends the run early).
CHECK_GEN_POOL_PER_S = 2000
CORPUS_VARIANTS = 3
# 80% of requests go to every fifth built-in test. The hot set is fixed
# rather than seeded: a seeded hot set of ~20 tests moved the mean op
# cost by +-8% between seeds.
CORPUS_HOT_STRIDE = 5
CORPUS_HOT_SHARE = 0.8
CORPUS_REQUESTS_PER_S = 12000

# The conform-stream mix, cycled in this order: three clean private
# traces, three clean fence-heavy traces, one faulted private trace and
# one faulted fence-heavy trace (fault kinds rotate).
PRIVATE_EVENTS = 40000
FENCED_EVENTS = 9600
PRIVATE_FAULTS = ("drop", "corrupt", "reorder")
FENCED_FAULTS = ("drop", "corrupt")

# `nvlitmus --synth=4` report counts recorded at re-anchor.
SYNTH_N = 4
SYNTH_EXPECTED = {"enumerated": 314928, "after_pruning": 209664,
                  "unique": 133488, "weak": 42192, "proxy_sensitive": 34978}
SYNTH_RE = re.compile(
    r"enumerated (\d+), pruned to (\d+), unique (\d+), checked \d+ "
    r"\(skipped \d+\): weak (\d+), proxy-sensitive (\d+)")

# Span names of the traced run whose self time is reported per op.
PER_LAYER_MS = ("litmus.parse", "engine.json", "engine.canonical",
                "engine.cache", "engine.reconstruct", "model.check",
                "model.assertions", "engine.render", "service.encode",
                "synth.run", "conform.parse", "conform.check")
MODEL_COUNTERS = (("model.candidates", "checker.candidates"),
                  ("model.rf_assignments", "checker.rf_assignments"),
                  ("model.rf_prefix_reject", "checker.layer.rf_prefix_reject"),
                  ("model.co_prefix_reject", "checker.layer.co_prefix_reject"))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def _cmake(args, logfile):
    with open(logfile, "ab") as out:
        code = subprocess.call(["cmake"] + [str(a) for a in args],
                               stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        tail = Path(logfile).read_text(errors="replace")[-4000:]
        raise BenchError("build failed (%s):\n%s" % (logfile, tail))


def build(with_tracer):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no nvlitmus source tree next to perfbench/ "
                         "(run from the root of a checkout)")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    tree = BUILD / "nvlitmus"
    if not (tree / "CMakeCache.txt").exists():
        _cmake(["-S", ROOT, "-B", tree, *generator,
                "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF",
                "-DMIXEDPROXY_WERROR=OFF"], logfile)
    _cmake(["--build", tree, "--target", "nvlitmus", "-j", "4"], logfile)
    if with_tracer:
        ttree = BUILD / "tracer"
        if not (ttree / "CMakeCache.txt").exists():
            _cmake(["-S", HERE / "tracer", "-B", ttree, *generator,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DMIXEDPROXY_SOURCE_DIR=%s" % ROOT,
                    "-DMIXEDPROXY_BUILD_DIR=%s" % tree], logfile)
        _cmake(["--build", ttree, "-j", "4"], logfile)


# --------------------------------------------------------------------------
# The nvlitmus daemon, driven as a closed loop
# --------------------------------------------------------------------------

class Daemon:
    def __init__(self):
        self.proc = subprocess.Popen(
            [str(NVLITMUS), "--serve", "--jobs", "1"], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self.out = self.proc.stdout.fileno()
        self.inp = self.proc.stdin.fileno()
        self.buf = b""

    def request(self, line, timeout=OP_TIMEOUT_S):
        view = memoryview(line)
        while view:
            view = view[os.write(self.inp, view):]
        deadline = time.monotonic() + timeout
        while True:
            end = self.buf.find(b"\n")
            if end >= 0:
                reply, self.buf = self.buf[:end], self.buf[end + 1:]
                return reply
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("no response within %d s" % timeout)
            ready, _, _ = select.select([self.out], [], [], left)
            if ready:
                chunk = os.read(self.out, 1 << 20)
                if not chunk:
                    raise BenchError("daemon exited (code %s)"
                                     % self.proc.poll())
                self.buf += chunk

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def close(self):
        """Shut down, then close stdin: the daemon only notices the
        shutdown once its read of the next line returns."""
        try:
            self.request(b'{"cmd":"shutdown"}\n', timeout=10)
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (BenchError, OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


@contextlib.contextmanager
def one_cpu():
    """Run the client, and every process it starts, on one CPU. The
    closed-loop client and the --jobs 1 daemon never run at the same
    time; on one CPU their hand-offs are context switches instead of
    cross-CPU wake-ups, whose cost on a shared VM host varied up to 2x
    from run to run."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_cli(args, timeout=OP_TIMEOUT_S):
    """Run nvlitmus with `args` to completion. Returns (stdout, stderr,
    exit code, peak RSS in MB). The wait blocks in wait4 (Popen.wait
    with a timeout polls with sleeps, which quantized a 3.5 ms run to
    7.7 ms); a watchdog kills a run that outlives `timeout`."""
    proc = subprocess.Popen([str(NVLITMUS)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    out, err = proc.stdout.read(), proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (out.decode(errors="replace"), err.decode(errors="replace"),
            proc.returncode, usage.ru_maxrss / 1024.0)


def setup_samples(kind):
    """Launch-to-ready times of SETUP_SAMPLES fresh processes: for the
    daemon, spawn until the first ping is answered; for the CLI, a no-op
    invocation (`--list`) run to completion."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        if kind == "daemon":
            daemon = Daemon()
            reply = daemon.request(PING, timeout=30)
            samples.append(time.perf_counter() - start)
            daemon.close()
            if b'"pong":true' not in reply:
                raise BenchError("bad ping reply %r" % reply[:200])
        else:
            _, err, code, _ = run_cli(["--list"], timeout=30)
            samples.append(time.perf_counter() - start)
            if code != 0:
                raise BenchError("nvlitmus --list failed: %s" % err)
    return samples


def closed_loop(daemon, lines, seconds):
    """Send lines one at a time until `seconds` pass or the lines run
    out. Returns (replies, latencies in ms, wall seconds)."""
    replies, lat = [], []
    start = time.perf_counter()
    deadline = start + seconds
    now = start
    for line in lines:
        if now >= deadline:
            break
        t0 = time.perf_counter()
        try:
            reply = daemon.request(line)
        except BenchError as e:
            reply = ("transport error: %s" % e).encode()
            replies.append(reply)
            lat.append((time.perf_counter() - t0) * 1e3)
            break
        now = time.perf_counter()
        replies.append(reply)
        lat.append((now - t0) * 1e3)
    return replies, lat, time.perf_counter() - start


# --------------------------------------------------------------------------
# Workload inputs and oracles
# --------------------------------------------------------------------------

class Workload:
    """Inputs for one run plus the oracle for each op's reply."""

    kind = "daemon"

    def __init__(self, seed, seconds, rundir):
        self.seed, self.seconds, self.rundir = seed, seconds, rundir

    def items(self, index):
        return 1

    def prepare(self, ops):
        """Oracle work that must not run inside the timed loop."""

    def describe(self, replies, lat):
        """Measured input properties of the ops that ran."""
        return []


def _reply_json(reply):
    try:
        return json.loads(reply)
    except ValueError:
        return None


class CheckGen(Workload):
    name = "check-gen"

    def __init__(self, seed, seconds, rundir):
        super().__init__(seed, seconds, rundir)
        self.programs = inputs.generate_programs(
            seed, CHECK_GEN_POOL_PER_S * seconds)
        self.texts = [p.render("gen_%d_%d" % (seed, i))
                      for i, p in enumerate(self.programs)]
        self.lines = [(json.dumps({"id": i, "litmus": t}) + "\n").encode()
                      for i, t in enumerate(self.texts)]
        self.sc = []

    def input_of(self, index):
        return self.texts[index]

    def prepare(self, ops):
        """SC outcome sets of the first `ops` programs, computed on
        VERIFY_WORKERS processes once the timed loop is over."""
        if len(self.sc) >= ops:
            return
        ctx = multiprocessing.get_context("fork")
        pool = ctx.Pool(VERIFY_WORKERS)
        try:
            self.sc = pool.map(inputs.Program.sc_outcomes,
                               self.programs[:ops], chunksize=256)
        finally:
            pool.close()
            pool.join()

    def check(self, index, reply):
        doc = _reply_json(reply)
        if not doc or doc.get("ok") is not True or doc.get("id") != index:
            return "not ok: %s" % reply[:300]
        allowed = parse_allowed(doc.get("report", ""))
        if allowed is None:
            return "report lists no allowed outcome set"
        missing = [o for o in self.sc[index] if o not in allowed]
        if missing:
            return "SC outcomes missing from the allowed set: %s" % (
                "; ".join(" ".join(sorted(o)) for o in missing[:4]))
        return None

    def describe(self, replies, lat):
        instrs = [i for p in self.programs[:len(replies)]
                  for th in p.threads for i in th]
        fences = sum(i["kind"] == "fence" for i in instrs)
        hits = sum(b'"cache_hit":true' in r for r in replies)
        lines = ["%d distinct programs, %.1f instructions each, fence share "
                 "%.3f, repeat share 0, cache hits %d"
                 % (len(replies), len(instrs) / max(len(replies), 1),
                    fences / max(len(instrs), 1), hits)]
        by_size = defaultdict(list)
        for p, ms in zip(self.programs, lat):
            by_size[sum(map(len, p.threads))].append(ms)
        for size in sorted(by_size):
            ms = by_size[size]
            lines.append("%2d instructions: %5d ops, p50 %.3f ms, p90 %.3f "
                         "ms, max %.1f ms" % (size, len(ms),
                                              statistics.median(ms),
                                              percentile(ms, 0.9), max(ms)))
        return lines


def parse_allowed(report):
    """The allowed outcomes of a check report as frozensets of their
    "name=value" tokens, or None when the listed outcomes disagree with
    the report's outcome count."""
    m = re.search(r"\]: (\d+) outcome\(s\)", report)
    outcomes = {frozenset(line.split()[1:]) for line in report.splitlines()
                if line.lstrip().startswith("allowed:")}
    if not m or int(m.group(1)) != len(outcomes):
        return None
    return outcomes


class CorpusReplay(Workload):
    name = "corpus-replay"

    def __init__(self, seed, seconds, rundir):
        super().__init__(seed, seconds, rundir)
        rng = random.Random("corpus-replay:%d" % seed)
        listings = corpus_listings()
        # forms[c] = the original listing plus its renamed variants.
        self.forms = [[text] + [inputs.make_variant(text, rng, "%s%d" % (
            chr(ord("a") + v), c)) for v in range(CORPUS_VARIANTS)]
            for c, text in enumerate(listings)]
        classes = list(range(len(listings)))
        hot = classes[::CORPUS_HOT_STRIDE]
        cold = [c for c in classes if c % CORPUS_HOT_STRIDE]
        self.sequence = []
        for _ in range(CORPUS_REQUESTS_PER_S * seconds):
            pool = hot if rng.random() < CORPUS_HOT_SHARE else cold
            self.sequence.append((rng.choice(pool),
                                  rng.randrange(CORPUS_VARIANTS + 1)))
        encoded = [[(json.dumps({"litmus": f}) + "\n").encode() for f in fs]
                   for fs in self.forms]
        self.lines = [encoded[c][v] for c, v in self.sequence]

    def input_of(self, index):
        c, v = self.sequence[index]
        return self.forms[c][v]

    def describe(self, replies, lat):
        ops = len(replies)
        seen = {c for c, _ in self.sequence[:ops]}
        return ["%d requests over %d of %d programs, repeat share %.4f, "
                "%d%% of requests on every %dth program"
                % (ops, len(seen), len(self.forms), 1 - len(seen) / max(ops, 1),
                   CORPUS_HOT_SHARE * 100, CORPUS_HOT_STRIDE)]

    def check(self, index, reply):
        doc = _reply_json(reply)
        if not doc or doc.get("ok") is not True:
            return "not ok: %s" % reply[:300]
        if doc.get("passed") is not True:
            return "assertions failed:\n%s" % doc.get("report", "")
        return None


def corpus_listings():
    """The litmus text of every built-in test, as nvlitmus renders it."""
    names = subprocess.run([str(NVLITMUS), "--list"], check=True,
                           capture_output=True, text=True,
                           timeout=60).stdout.split()
    daemon = Daemon()
    try:
        listings = []
        for name in names:
            doc = json.loads(daemon.request(
                (json.dumps({"test": name}) + "\n").encode()))
            lines = doc["report"].split("\n")[1:]
            end = next(i for i, l in enumerate(lines)
                       if l.startswith("test %s [" % name))
            listings.append("\n".join(lines[:end]).strip() + "\n")
    finally:
        daemon.close()
    return listings


class ConformStream(Workload):
    name = "conform-stream"

    def __init__(self, seed, seconds, rundir):
        super().__init__(seed, seconds, rundir)
        rng = random.Random("conform-stream:%d" % seed)
        self.files = []  # (path, events, expected violation or None)
        self.fences = []

        def write(tag, text, expect):
            path = rundir / ("%s.trace" % tag)
            path.write_text(text)
            self.files.append((str(path.relative_to(ROOT)),
                               text.count('{"seq":'), expect))
            self.fences.append(text.count('"ev":"fence"'))

        private, fenced = [], []
        for i in range(3):
            text = inputs.private_trace(rng, "private%d" % i, PRIVATE_EVENTS)
            write("private%d" % i, text, None)
            private.append(text)
            text = inputs.fenced_trace(rng, "fenced%d" % i, FENCED_EVENTS)
            write("fenced%d" % i, text, None)
            fenced.append(text)
        faulted_p, faulted_f = [], []
        for kinds, clean, out in ((PRIVATE_FAULTS, private, faulted_p),
                                  (FENCED_FAULTS, fenced, faulted_f)):
            for k, kind in enumerate(kinds):
                bad, expect = inputs.inject_fault(clean[k % len(clean)],
                                                  kind, rng)
                tag = "%s_%s" % ("private" if kinds is PRIVATE_FAULTS
                                 else "fenced", kind)
                write(tag, bad, expect)
                out.append(len(self.files) - 1)
        cycle_len = 8
        self.sequence = []
        for r in range(int(seconds * 40) // cycle_len + 1):
            self.sequence += [0, 1, 2, 3, 4, 5,
                              faulted_p[r % len(faulted_p)],
                              faulted_f[r % len(faulted_f)]]
        self.lines = [(json.dumps({"cmd": "conform",
                                   "path": self.files[f][0]}) + "\n").encode()
                      for f in self.sequence]

    def items(self, index):
        return self.files[self.sequence[index]][1]

    def describe(self, replies, lat):
        ran = self.sequence[:len(replies)]
        events = sum(self.files[f][1] for f in ran)
        lines = ["%d traces, %d events, faulted share of traces %.3f, SC "
                 "fence share of events %.4f"
                 % (len(ran), events,
                    sum(self.files[f][2] is not None for f in ran)
                    / max(len(ran), 1),
                    sum(self.fences[f] for f in ran) / max(events, 1))]
        for kind in ("private", "fenced"):
            ops = [(self.files[f][1], ms) for f, ms in zip(ran, lat)
                   if Path(self.files[f][0]).name.startswith(kind)]
            if ops:
                lines.append("%s traffic: %d traces, %.0f events/s"
                             % (kind, len(ops), sum(e for e, _ in ops) * 1e3
                                / sum(ms for _, ms in ops)))
        return lines

    def input_of(self, index):
        return self.files[self.sequence[index]][0]

    def check(self, index, reply):
        doc = _reply_json(reply)
        if not doc or doc.get("ok") is not True:
            return "not ok: %s" % reply[:300]
        return self.check_report(index, doc)

    def check_report(self, index, doc):
        _, events, expect = self.files[self.sequence[index]]
        if doc.get("events") != events:
            return "checked %s events, trace has %d" % (doc.get("events"),
                                                        events)
        kinds = doc.get("violations_by_kind", {})
        if expect is None and (doc.get("conformant") is not True or kinds):
            return "clean trace not CONFORMANT: %s" % kinds
        if expect is not None and (doc.get("conformant") is not False
                                   or not kinds.get(expect)):
            return "planted %s fault not convicted: %s" % (expect, kinds)
        return None


class SynthN4(Workload):
    name = "synth-n4"
    kind = "cli"

    def items(self, index):
        return SYNTH_EXPECTED["unique"]

    def input_of(self, index):
        return "nvlitmus --synth=%d --jobs 1" % SYNTH_N

    @staticmethod
    def check_counts(counts):
        bad = {k: v for k, v in counts.items() if SYNTH_EXPECTED[k] != v}
        return "report counts differ: %s" % bad if bad else None

    def check(self, index, output):
        m = SYNTH_RE.search(output)
        if not m:
            return "no synthesis report line in: %s" % output[:300]
        return self.check_counts(dict(zip(
            ("enumerated", "after_pruning", "unique", "weak",
             "proxy_sensitive"), map(int, m.groups()))))

    def run_ops(self, seconds):
        """One `nvlitmus --synth=4 --jobs 1` process per op, until
        `seconds` pass. Returns (outputs, latencies ms, wall s, peak
        RSS MB over all ops)."""
        outputs, lat, rss = [], [], 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            out, err, code, peak = run_cli(
                ["--synth=%d" % SYNTH_N, "--jobs", "1"])
            lat.append((time.perf_counter() - t0) * 1e3)
            rss = max(rss, peak)
            outputs.append(out if code == 0 else
                           "exit %d: %s%s" % (code, out, err))
        return outputs, lat, time.perf_counter() - start, rss


WORKLOAD_CLASSES = {w.name: w for w in
                    (CheckGen, CorpusReplay, SynthN4, ConformStream)}


# --------------------------------------------------------------------------
# End-to-end run
# --------------------------------------------------------------------------

def verify(work, replies):
    work.prepare(len(replies))
    failures = []
    for i, reply in enumerate(replies):
        why = work.check(i, reply)
        if why:
            failures.append((i, why))
    for i, why in failures:
        log("FAILED op %d (%s): %s\n--- input ---\n%s\n-------------"
            % (i, work.name, why, work.input_of(i)))
    return len(failures)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_end_to_end(work, seconds):
    with one_cpu():
        setup = setup_samples(work.kind)
        if work.kind == "cli":
            replies, lat, wall, rss = work.run_ops(seconds)
        else:
            daemon = Daemon()
            try:
                daemon.request(PING)
                replies, lat, wall = closed_loop(daemon, work.lines, seconds)
                rss = daemon.peak_rss_mb()
            finally:
                daemon.close()
    ops = len(replies)
    failed = verify(work, replies)
    items = sum(work.items(i) for i in range(ops))

    rows = [("setup_s", statistics.median(setup), "s",
             "median of %d start-ups" % len(setup)),
            ("items_per_s", items / wall, "1/s",
             "%d items in %d ops over %.2f s" % (items, ops, wall)),
            ("op_p50_ms", statistics.median(lat), "ms", "%d ops" % ops)]
    p90_rank = int(0.9 * ops)
    if ops - p90_rank - 1 >= 10:
        rows.append(("op_p90_ms", percentile(lat, 0.9), "ms",
                     "%d ops, %d above" % (ops, ops - p90_rank - 1)))
    rows += [("peak_rss_mb", rss, "MB", "nvlitmus VmHWM" if
              work.kind == "daemon" else "max over %d processes" % ops),
             ("error_rate", failed / max(ops, 1), "ratio",
              "%d failed of %d" % (failed, ops))]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows
               if name in ("setup_s", "items_per_s", "op_p50_ms",
                           "peak_rss_mb")}
    return rows + work.describe(replies, lat), metrics, ops, failed


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------

def span_self_ms(path):
    """Total self time per span name (duration minus the time covered
    by direct children), and the number of distinct ops."""
    spans = [json.loads(line) for line in open(path)]
    child = defaultdict(int)
    for s in spans:
        if s["parent"]:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    total = defaultdict(float)
    for s in spans:
        total[s["name"]] += (s["end_ns"] - s["start_ns"] - child[s["id"]]) / 1e6
    return total, len({s["op"] for s in spans})


def run_tracer(args):
    with one_cpu():
        proc = subprocess.run([str(TRACER)] + [str(a) for a in args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
    if proc.returncode != 0:
        raise BenchError("tracer failed: %s" % proc.stderr[-2000:])


def run_traced(work, seconds, rundir):
    layer = {name: 0.0 for name in (
        [n + "_ms" for n in PER_LAYER_MS] +
        ["engine.cache_hit_ratio", "service.handle_ms", "service.ipc_ms",
         "service.ping_rtt_ms"] + [m for m, _ in MODEL_COUNTERS] +
        ["synth.enumerated", "synth.after_pruning", "synth.unique",
         "synth.presolve.pruned_ptx60", "synth.unique_ratio",
         "conform.events", "conform.fences", "conform.window_peak",
         "conform.retired", "conform.rf_unknown",
         "unattributed_ms", "trace_overhead"])}
    failed = daemon_ops = 0
    if isinstance(work, (CheckGen, CorpusReplay)):
        # Daemon pass: round trips and the daemon's own counters.
        with one_cpu():
            daemon = Daemon()
            try:
                pings = []
                for _ in range(300):
                    t0 = time.perf_counter()
                    daemon.request(PING)
                    pings.append((time.perf_counter() - t0) * 1e3)
                replies, rtt, _ = closed_loop(daemon, work.lines,
                                              seconds / 3)
                metrics = json.loads(daemon.request(b'{"cmd":"metrics"}\n'))
            finally:
                daemon.close()
        ops = daemon_ops = len(replies)
        failed += verify(work, replies)
        reqs = rundir / "requests.jsonl"
        reqs.write_bytes(b"".join(work.lines[:ops]))
        run_tracer(["check", "--requests", reqs, "--count", ops,
                    "--out", rundir])
        result = json.loads((rundir / "result.json").read_text())
        # The daemon's own timer around engine::handleRequestLine
        # (service.op.check), taken over the same requests as the
        # round trips.
        counters = metrics.get("counters", {})
        handle = metrics.get("ops", {}).get("check", {}).get("mean_ms")
        if handle is None:
            raise BenchError("daemon metrics carry no check timer")
        hit = counters.get("engine.cache.hit", 0)
        miss = counters.get("engine.cache.miss", 0)
        layer.update({
            "service.handle_ms": handle,
            "service.ipc_ms": statistics.mean(rtt) - handle,
            "service.ping_rtt_ms": statistics.median(pings),
            "engine.cache_hit_ratio": hit / max(hit + miss, 1)})
        for metric, counter in MODEL_COUNTERS:
            layer[metric] = counters.get(counter, 0) / ops
    elif isinstance(work, SynthN4):
        run_tracer(["synth", "--n", SYNTH_N, "--seconds", seconds,
                    "--out", rundir])
        result = json.loads((rundir / "result.json").read_text())
        synth = result["synth"]
        counters = result["counters"]
        ops = result["ops"]
        for metric, counter in MODEL_COUNTERS:
            layer[metric] = counters.get(counter, 0) / ops
        layer.update({
            "synth.enumerated": synth["enumerated"],
            "synth.after_pruning": synth["after_pruning"],
            "synth.unique": synth["unique"],
            "synth.presolve.pruned_ptx60": synth["pruned_ptx60"],
            "synth.unique_ratio": synth["unique"] / synth["enumerated"]})
    else:
        paths = rundir / "paths.txt"
        paths.write_text("".join(work.files[f][0] + "\n"
                                 for f in work.sequence))
        run_tracer(["conform", "--requests", paths, "--seconds", seconds,
                    "--out", rundir])
        result = json.loads((rundir / "result.json").read_text())
        ops = result["ops"]

    # Pass A's replies go through the same oracles as the end-to-end run.
    replies = (rundir / "responses.jsonl").read_bytes().splitlines()
    if isinstance(work, SynthN4):
        for i, reply in enumerate(replies):
            why = work.check_counts({k: v for k, v in json.loads(reply).items()
                                     if k in SYNTH_EXPECTED})
            if why:
                failed += 1
                log("FAILED traced synth op %d: %s" % (i, why))
    elif isinstance(work, ConformStream):
        docs = [json.loads(r) for r in replies]
        for i, doc in enumerate(docs):
            why = work.check_report(i, doc)
            if why:
                failed += 1
                log("FAILED traced op %d: %s\n--- input ---\n%s"
                    % (i, why, work.input_of(i)))
        layer.update({
            "conform.events": statistics.mean(d["events"] for d in docs),
            "conform.fences": statistics.mean(d["fences"] for d in docs),
            "conform.window_peak": max(d["window_peak"] for d in docs),
            "conform.retired": statistics.mean(d["retired"] for d in docs),
            "conform.rf_unknown": statistics.mean(d["rf_unknown"]
                                                  for d in docs)})
    else:
        failed += verify(work, replies)
    if result["mismatches"]:
        failed += result["mismatches"]
        log("FAILED: %d traced ops disagree with the untraced replay"
            % result["mismatches"])

    self_ms, span_ops = span_self_ms(rundir / "spans.jsonl")
    for name in PER_LAYER_MS:
        layer[name + "_ms"] = self_ms.get(name, 0.0) / span_ops
    layer["unattributed_ms"] = self_ms.get("op", 0.0) / span_ops
    layer["trace_overhead"] = result["untraced_ms"] / result["traced_ms"]

    rows = []
    for name, value in layer.items():
        unit = ("ms" if name.endswith("_ms") else "ratio"
                if name.endswith(("_ratio", "_overhead")) else "count")
        rows.append((name, value, unit, "%d traced ops" % ops))
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows}
    return rows, metrics, daemon_ops + ops, failed


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build(with_tracer=bool(args.trace))
        rundir = BUILD / "runs" / ("%s-%d-%d" % (args.workload, args.seed,
                                                 args.trace))
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        gen_start = time.perf_counter()
        work = WORKLOAD_CLASSES[args.workload](args.seed, args.seconds,
                                               rundir)
        log("%s: inputs for seed %d generated in %.1f s"
            % (args.workload, args.seed, time.perf_counter() - gen_start))
        if args.trace:
            rows, metrics, attempted, failed = run_traced(
                work, args.seconds, rundir)
        else:
            rows, metrics, attempted, failed = run_end_to_end(
                work, args.seconds)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    print("workload %s  seed %d  seconds %d  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("%-30s %14s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for row in rows:
        if isinstance(row, str):
            print("# inputs: " + row)
        else:
            print("%-30s %14.6g  %-6s %s" % row)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
