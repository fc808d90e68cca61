"""Seeded input generation for the nvlitmus benchmark.

Everything here is plain Python and independent of the checker under
test: the benchmark writes litmus text and trace files once, before any
timing starts, and nvlitmus only ever sees those files and strings.

* Generated litmus programs (check-gen) come with the outcome set of
  this module's own sequentially consistent executor; every SC outcome
  must appear in the allowed set nvlitmus reports.
* Corpus variants (corpus-replay) reorder threads and rename registers,
  thread names and virtual addresses of the built-in tests.
* Traces (conform-stream) are `mixedproxy.trace.v1` JSONL executions
  that are conformant by construction, plus copies with one planted
  fault whose violation kind is known.
"""

import math
import random
import re

# --------------------------------------------------------------------------
# Generated litmus programs
# --------------------------------------------------------------------------

PHYS = ("x", "y", "z")

# (mnemonic template, kind, access path). `{r}` is the destination
# register, `{a}` the address, `{v}` an immediate. kind drives the SC
# executor; path picks the virtual address (generic name or alias).
LOADS = [
    ("ld.global.u32 {r}, [{a}]", "ld", "plain"),
    ("ld.relaxed.gpu.u32 {r}, [{a}]", "ld", "plain"),
    ("ld.acquire.gpu.u32 {r}, [{a}]", "ld", "plain"),
    ("ld.global.u32 {r}, [{a}]", "ld", "alias"),
    ("ld.const.u32 {r}, [{a}]", "ld", "alias"),
    ("tex.1d.u32 {r}, [{a}]", "ld", "alias"),
    ("ld.global.nc.u32 {r}, [{a}]", "ld", "plain"),
]
STORES = [
    ("st.global.u32 [{a}], {v}", "st", "plain"),
    ("st.relaxed.gpu.u32 [{a}], {v}", "st", "plain"),
    ("st.release.gpu.u32 [{a}], {v}", "st", "plain"),
    ("st.global.u32 [{a}], {v}", "st", "alias"),
]
ATOMICS = [
    ("atom.add.u32 {r}, [{a}], {v}", "add", "plain"),
    ("atom.acq_rel.gpu.exch.u32 {r}, [{a}], {v}", "exch", "plain"),
]
FENCES = [
    "fence.sc.gpu",
    "fence.acq_rel.gpu",
    "fence.proxy.alias",
    "fence.proxy.constant",
    "fence.proxy.texture",
]
# Share of each instruction class in generated programs.
CLASS_WEIGHTS = (("load", 36), ("store", 34), ("atomic", 8), ("fence", 22))

# Program shapes: every (threads, instructions) pair appears once per
# round, so each run sees the same size distribution whatever the seed.
SHAPES = [(t, n) for n in range(6, 13) for t in (2, 3, 4)]

# Cap on Program.enumeration_bound() for generated programs.
MAX_ENUMERATION_BOUND = 4096


class Program:
    """One generated litmus program in structured form."""

    def __init__(self, threads, ctas, nlocs):
        self.threads = threads  # per thread: list of instruction dicts
        self.ctas = ctas        # per thread: CTA id (all on GPU 0)
        self.nlocs = nlocs

    def uses_alias(self, loc):
        return any(i.get("loc") == loc and i.get("path") == "alias"
                   for th in self.threads for i in th)

    def dedup_key(self):
        """A key equal for any two programs that are the same modulo
        thread order, thread/register/address names and CTA numbering.
        It is coarser than that equivalence (each thread names its
        locations on its own), so distinct keys are always distinct
        programs; a few distinct programs share a key and are redrawn."""
        group = {c: self.ctas.count(c) for c in self.ctas}
        sigs = []
        for t, th in enumerate(self.threads):
            local, ops = {}, []
            for ins in th:
                if "loc" in ins:
                    ops.append((ins["tmpl"], ins["path"], ins.get("val"),
                                local.setdefault(ins["loc"], len(local))))
                else:
                    ops.append((ins["tmpl"],))
            sigs.append((group[self.ctas[t]], tuple(ops)))
        return tuple(sorted(sigs))

    def sc_outcomes(self):
        """Every final state of every SC interleaving, as frozensets of
        "t0.r1=V" and "[x]=V" strings, the tokens of a check report's
        `allowed:` lines. Fences are no-ops and aliases resolve to their
        location, as on a sequentially consistent machine."""
        regs = [(t, i["reg"]) for t, th in enumerate(self.threads)
                for i in th if "reg" in i]
        slot = {r: n for n, r in enumerate(regs)}
        code = [[(i["kind"], i["loc"], i.get("val", 0),
                  slot.get((t, i.get("reg")), -1))
                 for i in th if i["kind"] != "fence"]
                for t, th in enumerate(self.threads)]
        memo = {}

        def futures(pcs, mem):
            # {(final memory, values of the registers written from here)}
            # -- keyed without the registers already written, which no
            # later step reads.
            key = (pcs, mem)
            if key in memo:
                return memo[key]
            out = set()
            for t, th in enumerate(code):
                pc = pcs[t]
                if pc == len(th):
                    continue
                kind, loc, val, reg = th[pc]
                old, nxt = mem[loc], mem
                if kind != "ld":
                    nxt = list(mem)
                    nxt[loc] = old + val if kind == "add" else val
                    nxt = tuple(nxt)
                sub = futures(pcs[:t] + (pc + 1,) + pcs[t + 1:], nxt)
                if reg < 0:
                    out |= sub
                else:
                    out.update((m, r[:reg] + (old,) + r[reg + 1:])
                               for m, r in sub)
            if not out:
                out = {(mem, (0,) * len(regs))}
            memo[key] = out
            return out

        names = (["t%d.%s" % r for r in regs] +
                 ["[%s]" % PHYS[l] for l in range(self.nlocs)])
        return [frozenset("%s=%d" % nv for nv in zip(names, r + m))
                for m, r in futures((0,) * len(code), (0,) * self.nlocs)]

    def enumeration_bound(self):
        """Structural upper bound on the candidate executions: every
        coherence order of each location's writes times every rf choice
        (a write or the initial value) of each read."""
        writes, reads = [0] * self.nlocs, [0] * self.nlocs
        for th in self.threads:
            for i in th:
                if i["kind"] in ("st", "add", "exch"):
                    writes[i["loc"]] += 1
                if i["kind"] in ("ld", "add", "exch"):
                    reads[i["loc"]] += 1
        bound = 1
        for w, r in zip(writes, reads):
            bound *= math.factorial(w) * (w + 1) ** r
        return bound

    def render(self, name):
        """Litmus text (no assertions: the oracle reads the report's
        allowed set)."""
        lines = ["name: %s" % name]
        for loc in range(self.nlocs):
            if self.uses_alias(loc):
                lines.append("alias a%s %s" % (PHYS[loc], PHYS[loc]))
        for t, th in enumerate(self.threads):
            lines.append("")
            lines.append("thread t%d cta %d gpu 0:" % (t, self.ctas[t]))
            for ins in th:
                if "loc" not in ins:
                    lines.append("  " + ins["tmpl"])
                    continue
                addr = PHYS[ins["loc"]]
                if ins["path"] == "alias":
                    addr = "a" + addr
                lines.append("  " + ins["tmpl"].format(
                    r=ins.get("reg", ""), a=addr, v=ins.get("val", 0)))
        return "\n".join(lines) + "\n"


def _random_program(rng, nthreads, ninstr):
    # Split ninstr over nthreads, at least one instruction each.
    cuts = sorted(rng.sample(range(1, ninstr), nthreads - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [ninstr])]
    nlocs = 2 if ninstr <= 8 else rng.choice((2, 3))
    next_val = [1] * nlocs
    classes = [c for c, _ in CLASS_WEIGHTS]
    weights = [w for _, w in CLASS_WEIGHTS]
    threads = []
    for size in sizes:
        th, nreg = [], 0
        for _ in range(size):
            cls = rng.choices(classes, weights)[0]
            if cls == "fence":
                th.append({"tmpl": rng.choice(FENCES), "kind": "fence"})
                continue
            tmpl, kind, path = rng.choice(
                {"load": LOADS, "store": STORES, "atomic": ATOMICS}[cls])
            loc = rng.randrange(nlocs)
            ins = {"tmpl": tmpl, "kind": kind, "path": path, "loc": loc}
            if kind != "ld":
                ins["val"] = next_val[loc]
                next_val[loc] += 1
            if kind != "st":
                ins["reg"] = "r%d" % nreg
                nreg += 1
            th.append(ins)
        threads.append(th)
    # CTA placement: each thread in its own CTA, or pairs sharing one.
    if rng.random() < 0.5:
        ctas = list(range(nthreads))
    else:
        ctas = [t // 2 for t in range(nthreads)]
    # Number locations in first-use order so every declared location
    # is accessed (an outcome names only locations the program uses).
    order = {}
    for th in threads:
        for ins in th:
            if "loc" in ins:
                ins["loc"] = order.setdefault(ins["loc"], len(order))
    return Program(threads, ctas, len(order))


def _is_interesting(prog):
    """Some location is both written and read: a program without one
    has a single outcome and exercises little beyond the parser."""
    written = {i["loc"] for th in prog.threads for i in th
               if i["kind"] in ("st", "add", "exch")}
    read = {i["loc"] for th in prog.threads for i in th
            if i["kind"] in ("ld", "add", "exch")}
    return bool(written & read)


def generate_programs(seed, count):
    """count programs, distinct modulo renaming, in shape-round order.
    Programs whose enumeration bound exceeds MAX_ENUMERATION_BOUND are
    redrawn, which keeps one run's cost from resting on a handful of
    exponential outliers."""
    rng = random.Random("check-gen:%d" % seed)
    seen, out = set(), []
    while len(out) < count:
        for shape in SHAPES[:count - len(out)]:
            while True:
                prog = _random_program(rng, *shape)
                if (not _is_interesting(prog) or
                        prog.enumeration_bound() > MAX_ENUMERATION_BOUND):
                    continue
                key = prog.dedup_key()
                if key not in seen:
                    seen.add(key)
                    break
            out.append(prog)
    return out


# --------------------------------------------------------------------------
# Corpus variants
# --------------------------------------------------------------------------

_THREAD_RE = re.compile(r"^thread (\S+)(.*):$")
_REGREF_RE = re.compile(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)\b")
_LOCREF_RE = re.compile(r"\[([^\]]+)\]")
_REG_RE = re.compile(r"rd?\d+")


def _split_operands(ops):
    """Split an operand list at commas outside brackets."""
    parts, depth, cur = [], 0, ""
    for ch in ops:
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur.strip())
    return parts


def split_listing(text):
    """Split a litmus listing into (preamble lines, threads, assertion
    lines); threads are (name, placement suffix, instruction lines)."""
    pre, threads, asserts = [], [], []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        m = _THREAD_RE.match(stripped)
        if m:
            threads.append((m.group(1), m.group(2), []))
        elif stripped.split(":")[0] in ("require", "permit", "forbid"):
            asserts.append(stripped)
        elif threads:
            threads[-1][2].append(stripped)
        else:
            pre.append(stripped)
    return pre, threads, asserts


def make_variant(text, rng, tag):
    """A renamed, thread-reordered copy of a litmus listing: same
    program modulo renaming, same assertions in the new names."""
    pre, threads, asserts = split_listing(text)
    va_map = {}

    def va(name):
        return va_map.setdefault(name, "v%s_%d" % (tag, len(va_map)))

    out_pre = []
    for line in pre:
        words = line.split()
        if words[0] == "name:":
            out_pre.append("name: %s_%s" % (words[1], tag))
        elif words[0] == "alias":
            out_pre.append("alias %s %s" % (va(words[1]), va(words[2])))
        elif words[0] == "init":
            out_pre.append("init %s %s" % (va(words[1]), words[2]))
        else:
            out_pre.append(line)

    thread_map, reg_maps, bodies = {}, {}, []
    for n, (name, place, body) in enumerate(threads):
        tname = "p%s_%d" % (tag, n)
        thread_map[name] = tname
        regs = reg_maps[name] = {}

        def reg(r):
            return regs.setdefault(r, "r%d" % (50 + len(regs)))

        new_body = []
        for ins in body:
            head, _, ops = ins.partition(" ")
            renamed = []
            for op in _split_operands(ops):
                if op.startswith("["):
                    parts = [p.strip() for p in op[1:-1].split(",")]
                    op = "[%s]" % ", ".join([va(parts[0])] +
                                            [reg(p) for p in parts[1:]])
                elif _REG_RE.fullmatch(op):
                    op = reg(op)
                renamed.append(op)
            new_body.append(head + (" " + ", ".join(renamed)
                                    if renamed else ""))
        bodies.append((tname, place, new_body))
    rng.shuffle(bodies)

    def regref(match):
        thread, reg = match.group(1), match.group(2)
        if thread not in thread_map:
            return match.group(0)
        return "%s.%s" % (thread_map[thread], reg_maps[thread][reg])

    out_asserts = []
    for line in asserts:
        kind, _, cond = line.partition(":")
        cond = _LOCREF_RE.sub(lambda m: "[%s]" % va(m.group(1).strip()),
                              cond)
        out_asserts.append("%s:%s" % (kind, _REGREF_RE.sub(regref, cond)))

    lines = out_pre[:]
    for tname, place, body in bodies:
        lines.append("")
        lines.append("thread %s%s:" % (tname, place))
        lines.extend("  " + b for b in body)
    lines.append("")
    lines.extend(out_asserts)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Traces
# --------------------------------------------------------------------------

SCHEMA = "mixedproxy.trace.v1"


class TraceBuilder:
    """Writes one trace in global execution order; every load reads the
    latest committed write, so the execution is sequentially consistent
    and therefore conformant."""

    def __init__(self, name, nthreads, locs):
        self.lines = [
            '{"schema":"%s","test":"%s","threads":[%s],"locations":[%s]}'
            % (SCHEMA, name,
               ",".join('{"name":"t%d","cta":%d,"gpu":0}' % (t, t)
                        for t in range(nthreads)),
               ",".join('{"name":"%s","init":0}' % l for l in locs))]
        self.locs = locs
        self.seq = 0
        self.next_uid = len(locs)
        self.latest = list(range(len(locs)))  # uid of latest commit
        self.value = [0] * len(locs)
        self.uid_value = {}
        self.events = 0

    def _ev(self, body):
        self.lines.append('{"seq":%d,%s}' % (self.seq, body))
        self.seq += 1
        self.events += 1

    def store(self, t, loc, val, sem=""):
        uid = self.next_uid
        self.next_uid += 1
        self.uid_value[uid] = val
        self._ev('"ev":"st","t":%d,"loc":%d,"val":%d%s,"uid":%d'
                 % (t, loc, val, sem, uid))
        return uid

    def commit(self, uid, loc):
        self._ev('"ev":"commit","uid":%d' % uid)
        self.latest[loc] = uid
        self.value[loc] = self.uid_value.pop(uid)

    def load(self, t, loc, sem=""):
        self._ev('"ev":"ld","t":%d,"loc":%d,"val":%d%s,"rf":%d'
                 % (t, loc, self.value[loc], sem, self.latest[loc]))

    def fence_sc(self, t):
        self._ev('"ev":"fence","t":%d,"sem":"sc","scope":"gpu"' % t)

    def finish(self):
        self.lines.append('{"ev":"finish","registers":{},"memory":{%s}}'
                          % ",".join('"%s":%d' % (l, v) for l, v
                                     in zip(self.locs, self.value)))
        return "\n".join(self.lines) + "\n"


def private_trace(rng, name, events, nthreads=4, locs_per_thread=2):
    """Each thread stores to, commits and reads back its own locations;
    every fourth turn issues two stores before committing them. No
    cross-thread edges, so the load is all window retirement."""
    locs = ["x%d" % i for i in range(nthreads * locs_per_thread)]
    tb = TraceBuilder(name, nthreads, locs)
    while tb.events + 6 <= events:
        t = rng.randrange(nthreads)
        loc = t * locs_per_thread + rng.randrange(locs_per_thread)
        if rng.random() < 0.25:
            a = tb.store(t, loc, tb.value[loc] + 1)
            b = tb.store(t, loc, tb.value[loc] + 2)
            tb.commit(a, loc)
            tb.commit(b, loc)
        else:
            tb.commit(tb.store(t, loc, tb.value[loc] + 1), loc)
        tb.load(t, loc)
    return tb.finish()


def fenced_trace(rng, name, events, nthreads=4, pairs=4):
    """Message passing between random thread pairs: data store, SC
    fence, release flag store; acquire flag load, SC fence, data load.
    One SC fence per four events."""
    locs = []
    for p in range(pairs):
        locs += ["d%d" % p, "f%d" % p]
    tb = TraceBuilder(name, nthreads, locs)
    rel = ',"sem":"release","scope":"gpu"'
    acq = ',"sem":"acquire","scope":"gpu"'
    while tb.events + 8 <= events:
        w, r = rng.sample(range(nthreads), 2)
        p = rng.randrange(pairs)
        data, flag = 2 * p, 2 * p + 1
        tb.commit(tb.store(w, data, tb.value[data] + 1), data)
        tb.fence_sc(w)
        tb.commit(tb.store(w, flag, tb.value[flag] + 1, rel), flag)
        tb.load(r, flag, acq)
        tb.fence_sc(r)
        tb.load(r, data)
    return tb.finish()


def _rewrite(lines, index, fn):
    lines = list(lines)
    lines[index] = fn(lines[index])
    return lines


def inject_fault(trace, kind, rng):
    """Plant one fault of `kind` in a clean trace; returns the text and
    the violation kind the checker must report.

    drop    -- delete an "st" line (its commit names an unknown uid):
               malformed
    corrupt -- change a load's observed value: rf_value
    reorder -- swap the uids of two back-to-back same-location commits
               of one thread, against program order: coherence
    """
    lines = trace.rstrip("\n").split("\n")
    body = range(len(lines) // 4, 3 * len(lines) // 4)
    if kind == "drop":
        i = next(j for j in rng.sample(body, len(body))
                 if '"ev":"st"' in lines[j])
        del lines[i]
        expect = "malformed"
    elif kind == "corrupt":
        i = next(j for j in rng.sample(body, len(body))
                 if '"ev":"ld"' in lines[j])
        lines = _rewrite(lines, i, lambda s: re.sub(
            r'"val":(\d+)', lambda m: '"val":%d' % (int(m.group(1)) + 7777),
            s, count=1))
        expect = "rf_value"
    elif kind == "reorder":
        def commit_uid(s):
            m = re.search(r'"ev":"commit","uid":(\d+)', s)
            return m and m.group(1)
        i = next(j for j in rng.sample(body, len(body))
                 if commit_uid(lines[j]) and commit_uid(lines[j + 1]))
        a, b = commit_uid(lines[i]), commit_uid(lines[i + 1])
        lines = _rewrite(lines, i, lambda s: s.replace(
            '"uid":%s' % a, '"uid":%s' % b))
        lines = _rewrite(lines, i + 1, lambda s: s.replace(
            '"uid":%s' % b, '"uid":%s' % a))
        expect = "coherence"
    else:
        raise ValueError(kind)
    return "\n".join(lines) + "\n", expect
