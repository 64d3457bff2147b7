#!/usr/bin/env python3
"""The sjava benchmark: four workloads of real `sjava` processes.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check_cold --seed 1 --seconds 15 --trace 0

The benchmark builds `sjava` and its own tracer (`perfbench/tracer`) in
release mode, generates the workload's inputs from `--seed`, and drives
one closed-loop client with one `sjava` command in flight. Every output
is checked against a reference that does not come from the code path
being timed. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics; `--trace 1` replays the workload's pipeline
in-process with per-layer spans and reports the per-layer metrics.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(ROOT, "crates", "bench", "tests", "golden")
CAMPAIGN_REF = os.path.join(BENCH_DIR, "ref", "mp3dec_trials.csv")

WORKLOADS = ("check_cold", "check_edit", "infer", "campaign_mp3dec")
# Set-up is repeated from scratch at least SETUP_MIN times and until
# SETUP_SECONDS have gone into it (at most SETUP_MAX times); setup_s is
# the median, so cheap set-ups get enough samples to be steady.
SETUP_MIN = 3
SETUP_MAX = 50
SETUP_SECONDS = 0.1
# Large stress programs per corpus. Both corpora stay more than two
# thirds large programs, so the latency median lies inside the
# large-program mode instead of between the small and large modes.
CHECK_LARGE = 36
INFER_LARGE = 12
# Edit steps replayed by the traced check_edit run.
TRACE_EDIT_STEPS = 24
# In-process repetitions per traced run and spawned commands per
# reconciliation.
TRACE_REPS = 15
# A run whose steal ticks exceed this share of all ticks is flagged.
NOISY_STEAL_FRAC = 0.05

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "trials_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.startup_ms": "ms",
    "cli.command_p50_ms": "ms",
    "cli.io_ms": "ms",
    "cli.unaccounted_ms": "ms",
    "syntax.parse_ms": "ms",
    "syntax.lex_ms": "ms",
    "syntax.tokens": "count",
    "syntax.render_ms": "ms",
    "syntax.strip_ms": "ms",
    "syntax.print_ms": "ms",
    "core.lattice_build_ms": "ms",
    "core.flow_ms": "ms",
    "core.aliasing_ms": "ms",
    "core.shared_ms": "ms",
    "core.sort_ms": "ms",
    "core.diagnostics": "count",
    "analysis.callgraph_ms": "ms",
    "analysis.eviction_ms": "ms",
    "analysis.termination_ms": "ms",
    "analysis.methods": "count",
    "cache.open_ms": "ms",
    "cache.check_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.green": "count",
    "cache.red": "count",
    "cache.rechecked": "count",
    "cache.hit_rate": "ratio",
    "cache.store_objects": "count",
    "cache.store_mb": "MB",
    "infer.vfg_ms": "ms",
    "infer.decompose_ms": "ms",
    "infer.lattgen_ms": "ms",
    "infer.emit_ms": "ms",
    "infer.locations": "count",
    "infer.paths": "count",
    "runtime.compile_ms": "ms",
    "runtime.golden_ms": "ms",
    "runtime.vm_steps_per_s": "1/s",
    "runtime.prepare_ms": "ms",
    "runtime.trial_ms_p50": "ms",
    "runtime.campaign_ms": "ms",
    "runtime.cost_model_err": "ratio",
    "runtime.heap_cells": "count",
    "runtime.diverged_frac": "ratio",
    "par.threads": "count",
    "par.busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# --------------------------------------------------------------- build


def build():
    """Builds `sjava` and the tracer; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise SystemExit("run.py: no sjava source tree in the current directory")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "sjava"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "tracer", "Cargo.toml")],
    ):
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "sjava"),
            os.path.join(target, "release", "perfbench"))


# ------------------------------------------------------------ processes


def child_env(cache_dir=None):
    """The parent environment without any SJAVA_* knob, so every command
    runs at the defaults users get; only SJAVA_CACHE_DIR is set back, and
    only where the workload uses a store."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SJAVA_")}
    if cache_dir is not None:
        env["SJAVA_CACHE_DIR"] = cache_dir
    return env


REMOVED_ENV = sorted(k for k in os.environ if k.startswith("SJAVA_"))


class Result:
    __slots__ = ("wall_ms", "cpu_ms", "rss_mb", "code", "out", "err")


def spawn(args, cwd, env):
    """Runs one process to completion. Wall time runs from spawn to exit;
    CPU time and peak RSS come from the kernel's rusage for that child."""
    out_path = os.path.join(WORK, "stdout.tmp")
    err_path = os.path.join(WORK, "stderr.tmp")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                             stdout=fo, stderr=fe)
        _, status, ru = os.wait4(p.pid, 0)
        t1 = time.perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    r = Result()
    r.wall_ms = (t1 - t0) * 1e3
    r.cpu_ms = (ru.ru_utime + ru.ru_stime) * 1e3
    r.rss_mb = ru.ru_maxrss / 1024.0
    r.code = p.returncode
    with open(out_path, "rb") as f:
        r.out = f.read().decode("utf-8", "replace")
    with open(err_path, "rb") as f:
        r.err = f.read().decode("utf-8", "replace")
    return r


def crashed(r):
    """A panic or a death by signal; never an acceptable outcome."""
    return r.code < 0 or r.code == 101 or "panicked at" in r.err


def cpu_ticks():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal ...
    return {"total": sum(fields[:8]), "idle": fields[3] + fields[4], "steal": fields[7]}


def host_speed_ms():
    """Wall time of a fixed pure-Python loop: a host speed index, so a
    run taken during a slow spell of a shared host can be recognised."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc ^= i * i
    return (time.perf_counter() - t0) * 1e3


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("src", "crates"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(d, f) for f in sorted(files))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or None when the checkout is not itself a git
    work tree (a parent directory's repository does not count)."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


# ------------------------------------------------------------- oracles
#
# Each oracle returns None when the output is right and a short reason
# when it is not. None of them consults the code path being timed.

HEADER = re.compile(r"^(error|warning)\[(SJ\d{4})\]: (.*)$")
LOCATION = re.compile(r"^\s*--> (.*):(\d+):(\d+)-(\d+):(\d+)$")
PARSE_CODES = {"SJ0001", "SJ0002"}
TERMINATION_CODE = "SJ0401"


def line_starts(text):
    data = text.encode()
    starts = [0]
    for i, b in enumerate(data):
        if b == 0x0A:
            starts.append(i + 1)
    return starts


def golden_form(stderr, exit_code, source):
    """Rewrites `sjava check` text output in the form of the committed
    golden fixtures: a verdict header, then one line per diagnostic with
    its byte span (recovered from the rendered line:col range)."""
    starts = line_starts(source)
    lines = stderr.split("\n")
    diags = []
    for i, line in enumerate(lines):
        m = HEADER.match(line)
        if not m:
            continue
        loc = LOCATION.match(lines[i + 1]) if i + 1 < len(lines) else None
        if not loc:
            return None
        l1, c1, l2, c2 = (int(g) for g in loc.groups()[1:])
        start = starts[l1 - 1] + c1 - 1
        end = starts[l2 - 1] + c2 - 1
        diags.append((m.group(1), m.group(2), m.group(3), start, end))
    body = "\n".join(f"{s}[{c}]: {msg} ({a}..{b})" for s, c, msg, a, b in diags)
    if any(c in PARSE_CODES for _, c, _, _, _ in diags):
        return "parse error\n" + body
    ok = "true" if exit_code == 0 else "false"
    failures = sum(1 for _, c, _, _, _ in diags if c == TERMINATION_CODE)
    return f"ok={ok} termination_failures={failures}\n" + body


def oracle_verified(r, name):
    if r.code != 0:
        return f"exit {r.code}"
    if r.out != f"{name}: self-stabilizing ✓\n":
        return "verdict line differs from `self-stabilizing ✓`"
    if r.err:
        return "diagnostics on a program expected clean"
    return None


def oracle_golden(r, expected, source):
    got = golden_form(r.err, r.code, source)
    if got is None:
        return "unparsable diagnostic output"
    if got != expected:
        return "diagnostics differ from the committed golden fixture"
    return None


EXPLAIN_TAIL = re.compile(r"(= explain: run `sjava check --explain SJ\d{4}`)\n")


def oracle_near_miss(r, name, expected):
    if r.code != 1:
        return f"exit {r.code}, expected 1"
    if r.out != f"{name}: NOT verified self-stabilizing ✗\n":
        return "verdict line differs from `NOT verified`"
    # The fixture concatenates each rendering without the newline the
    # CLI prints after it.
    if EXPLAIN_TAIL.sub(r"\1", r.err) != expected:
        return "diagnostics differ from the committed near-miss fixture"
    return None


def oracle_same(r, ref):
    if (r.code, r.out, r.err) != (ref.code, ref.out, ref.err):
        return "cached re-check differs from the cache-less check"
    return None


def histogram_csv(ref_rows, trials):
    """`RecoveryHistogram::new(5, 400)` over the first `trials` reference
    rows, rendered as `sjava campaign --out` writes it."""
    width, buckets = 5, [0] * (400 // 5 + 2)
    for _, diverged, samples in ref_rows[:trials]:
        if diverged:
            buckets[min(samples // width, len(buckets) - 1)] += 1
    return "bucket_lo,count\n" + "".join(f"{i * width},{c}\n" for i, c in enumerate(buckets))


def histogram_moved(expected_csv, got_csv, trials):
    """Fewest trials whose outcome must differ to turn one histogram into
    the other (the silent, never-diverged trials count as one more
    bucket)."""
    def counts(csv):
        rows = csv.strip().split("\n")[1:]
        c = [int(row.split(",")[1]) for row in rows]
        return c + [trials - sum(c)]
    try:
        e, g = counts(expected_csv), counts(got_csv)
    except (ValueError, IndexError):
        return trials
    if len(e) != len(g):
        return trials
    return max(sum(max(0, a - b) for a, b in zip(e, g)), 1 if e != g else 0)


def load_campaign_ref():
    rows = []
    with open(CAMPAIGN_REF) as f:
        for line in f:
            if line.startswith("#") or line.startswith("seed"):
                continue
            seed, diverged, samples = (int(x) for x in line.strip().split(","))
            rows.append((seed, diverged == 1, samples))
    return rows


# ------------------------------------------------------------- corpora


def probe_sources():
    """The golden probe programs, read from the golden-fixture suite so
    source and committed expected output stay one pair."""
    with open(os.path.join(ROOT, "crates", "bench", "tests", "golden.rs")) as f:
        text = f.read()
    pattern = re.compile(r'golden\(\s*"(probe_\w+)",\s*(?:r#"(.*?)"#|"((?:[^"\\]|\\.)*)")\s*,?\s*\)',
                         re.S)
    probes = {}
    for m in pattern.finditer(text):
        probes[m.group(1)] = m.group(2) if m.group(2) is not None else m.group(3)
    if not probes:
        raise SystemExit("run.py: no golden probes found")
    return probes


def read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def gen_corpus(tracer, out, *flags):
    res = subprocess.run([tracer, "corpus", "--out", out, *flags], env=child_env(),
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"run.py: corpus generation failed: {res.stderr}")


def large_seeds(rng, n):
    """The `large` preset's own generator seed, then seeded variants."""
    return [7] + [rng.randrange(1, 1 << 32) for _ in range(n - 1)]


class Workload:
    """One workload: `setup` builds inputs and references in `dir`, `op`
    runs one timed step and returns (result, ops, failures)."""

    def __init__(self, sjava, tracer, seed, dir, trace=False):
        self.sjava, self.tracer, self.seed, self.dir = sjava, tracer, seed, dir
        self.trace = trace
        self.rng = random.Random(f"{self.name}:{seed}")
        self.failures = []

    def fail(self, input_name, why):
        self.failures.append({"input": input_name, "why": why})


class CheckCold(Workload):
    name = "check_cold"

    def setup(self):
        seeds = large_seeds(self.rng, CHECK_LARGE)
        gen_corpus(self.tracer, self.dir, "--large-seeds", ",".join(map(str, seeds)),
                   "--adversarial", "--apps")
        items = [(f"large_{s}.sj", ("verified",)) for s in seeds]
        items.append(("adversarial.sj",
                      ("golden", read_text(os.path.join(GOLDEN, "stress_adversarial.txt")))))
        for app in ("windsensor", "eyetrack", "sumobot", "mp3dec"):
            items.append((f"app_{app}.sj",
                          ("golden", read_text(os.path.join(GOLDEN, f"{app}.txt")))))
        for name, src in sorted(probe_sources().items()):
            write_text(os.path.join(self.dir, f"{name}.sj"), src)
            items.append((f"{name}.sj",
                          ("golden", read_text(os.path.join(GOLDEN, f"{name}.txt")))))
        fuzz = os.path.join(GOLDEN, "fuzz")
        for f in sorted(os.listdir(fuzz)):
            if f.endswith(".sj"):
                # The fixture's expected output renders the minimized
                # witness, which is the .sj file after its header line.
                header, witness = read_text(os.path.join(fuzz, f)).split("\n", 1)
                if not header.startswith("// fuzz near-miss:"):
                    raise SystemExit(f"run.py: {f} lacks its near-miss header")
                write_text(os.path.join(self.dir, f), witness)
                items.append((f, ("near_miss", read_text(os.path.join(fuzz, f[:-3] + ".txt")))))
        self.rng.shuffle(items)
        self.items = [(n, o, read_text(os.path.join(self.dir, n))) for n, o in items]
        self.next = 0
        self.recon = f"large_{seeds[0]}.sj"
        self.trace_args = ["--files", ",".join(n for n, _, _ in self.items),
                           "--recon", self.recon]

    def check(self, r, name, oracle, source):
        if crashed(r):
            return f"crash (exit {r.code})"
        kind = oracle[0]
        if kind == "verified":
            return oracle_verified(r, name)
        if kind == "golden":
            return oracle_golden(r, oracle[1], source)
        return oracle_near_miss(r, name, oracle[1])

    def op(self):
        name, oracle, source = self.items[self.next % len(self.items)]
        self.next += 1
        r = spawn([self.sjava, "check", name], self.dir, child_env())
        why = self.check(r, name, oracle, source)
        if why:
            self.fail(name, why)
        return r, 1, int(why is not None)

    def recon_runs(self, reps):
        name = self.recon
        oracle, source = next((o, s) for n, o, s in self.items if n == name)
        runs = []
        for _ in range(reps):
            r = spawn([self.sjava, "check", name], self.dir, child_env())
            runs.append((r, name, self.check(r, name, oracle, source)))
        return runs


# Byte-length-preserving text edits in the shapes `sjava_cache::edit`
# models on the AST. Keeping every other byte in place keeps every other
# method's spans, as the AST edits do.
METHOD_HEADER = re.compile(r"^    int m\d+\(@LOC\(\"P\"\) int p(\) \{)$", re.M)
INT_LITERAL = re.compile(r"\b\d+\b")
SHAPES = ("literal", "header", "field")
LAST_FIELD = re.compile(r"^    (@LOC\(\"F(\d+)\"\) int) f\2;\n(?!    @LOC\(\"F)", re.M)


class EditSequence:
    """A seeded, endless sequence of single-site edits on one program.

    - literal: the last digit of the method body's first integer literal
      goes up by one (mod 10), as `bump_first_int_literal` does;
    - header: `) {` becomes ` ){`, widening the method's header span by one
      byte without moving its body, as `shift_method_span` does;
    - field: a padding comment after a class's last field becomes a
      never-referenced field with that field's annotation and type, as
      `add_unused_field` does.
    A site edited a second time is put back, which is an edit too.
    """

    def __init__(self, base_text, rng):
        self.rng = rng
        self.text = base_text
        self.steps = 0
        self.order = {shape: [] for shape in SHAPES}
        self.sites = {shape: [] for shape in SHAPES}
        for m in METHOD_HEADER.finditer(base_text):
            close = m.start(1)
            self.sites["header"].append(close)
            body = base_text.index("{", close)
            self.sites["literal"].append(INT_LITERAL.search(base_text, body).end() - 1)
        for m in re.finditer(r"/\*( *)\*/", base_text):
            self.sites["field"].append(m.start() - 4)

    @staticmethod
    def pad(text):
        """Adds the padding comment after each worker class's last field."""
        def add(m):
            field = f"    {m.group(1)} unusedPad{int(m.group(2)) + 1};"
            return m.group(0) + "    /*" + " " * (len(field) - 8) + "*/\n"
        return LAST_FIELD.sub(add, text)

    def step(self):
        # Shapes rotate and each shape visits its sites in a seeded
        # permutation before any repeats, so every run has the same mix
        # of first edits and put-backs; only the sites differ by seed.
        shape = SHAPES[self.steps % len(SHAPES)]
        self.steps += 1
        if not self.order[shape]:
            self.order[shape] = self.rng.sample(self.sites[shape], len(self.sites[shape]))
        at = self.order[shape].pop()
        t = self.text
        if shape == "literal":
            new = str((int(t[at]) + 1) % 10)
            t = t[:at] + new + t[at + 1:]
        elif shape == "header":
            new = " ){" if t[at:at + 3] == ") {" else ") {"
            t = t[:at] + new + t[at + 3:]
        else:
            end = t.index("\n", at)
            line = t[at:end]
            if line.startswith("    /*"):
                prev = t.rindex("\n", 0, at - 1)
                m = re.match(r"\n    (@LOC\(\"F(\d+)\"\) int) f\d+;", t[prev:at])
                new = f"    {m.group(1)} unusedPad{int(m.group(2)) + 1};"
            else:
                new = "    /*" + " " * (len(line) - 8) + "*/"
            t = t[:at] + new + t[end:]
        assert len(t) == len(self.text)
        self.text = t
        return shape, t


class CheckEdit(Workload):
    name = "check_edit"

    def setup(self):
        # Every seed edits the `large` preset itself; the seed picks the
        # edit sites. The cost of a cached check varies between seeded
        # variants of the preset (the cold store warm-up by up to 2x), and
        # that variance would swamp the cache's own.
        seed = large_seeds(self.rng, 1)[0]
        gen_corpus(self.tracer, self.dir, "--large-seeds", str(seed))
        base = EditSequence.pad(read_text(os.path.join(self.dir, f"large_{seed}.sj")))
        write_text(os.path.join(self.dir, "base.sj"), base)
        self.edits = EditSequence(base, random.Random(f"edits:{self.seed}"))
        if not all(self.edits.sites.values()):
            raise SystemExit("run.py: the edit model found no edit sites")
        self.file = "edit.sj"
        write_text(os.path.join(self.dir, self.file), base)
        self.store = os.path.join(self.dir, "store")
        shutil.rmtree(self.store, ignore_errors=True)
        warm = spawn([self.sjava, "check", self.file], self.dir, child_env(self.store))
        if warm.code != 0:
            self.fail("base.sj", f"warm-up check exit {warm.code}")
        # The traced run replays the sequence's first steps from its own
        # copy, so every traced run sees the same edits.
        trace_seq = EditSequence(base, random.Random(f"edits:{self.seed}"))
        steps = []
        for i in range(TRACE_EDIT_STEPS if self.trace else 0):
            _, text = trace_seq.step()
            steps.append(f"step_{i:03}.sj")
            write_text(os.path.join(self.dir, steps[-1]), text)
        self.trace_steps = steps
        self.trace_args = ["--base", "base.sj", "--steps", ",".join(steps)]
        self.steps_done = 0

    def checked(self, name, store):
        """One cached check, then the cache-less check it must equal."""
        r = spawn([self.sjava, "check", name], self.dir, child_env(store))
        ref = spawn([self.sjava, "check", name], self.dir, child_env())
        return r, (f"crash (exit {r.code})" if crashed(r) else oracle_same(r, ref))

    def op(self):
        shape, text = self.edits.step()
        self.steps_done += 1
        write_text(os.path.join(self.dir, self.file), text)
        r, why = self.checked(self.file, self.store)
        if why:
            self.fail(f"edit step {self.steps_done} ({shape})", why)
        return r, 1, int(why is not None)

    def recon_runs(self, reps):
        """The traced run's edit steps, replayed as commands on a store
        warmed the same way."""
        store = os.path.join(self.dir, "recon_store")
        shutil.rmtree(store, ignore_errors=True)
        warm = spawn([self.sjava, "check", "base.sj"], self.dir, child_env(store))
        runs = [(warm, "base.sj", None if warm.code == 0 else f"warm-up exit {warm.code}")]
        for step in self.trace_steps:
            r, why = self.checked(step, store)
            runs.append((r, step, why))
        return runs


class Infer(Workload):
    name = "infer"

    def setup(self):
        seeds = large_seeds(self.rng, INFER_LARGE)
        gen_corpus(self.tracer, self.dir, "--large-seeds", ",".join(map(str, seeds)), "--apps")
        items = [f"large_{s}.sj" for s in seeds]
        items += [f"app_{a}.sj" for a in ("windsensor", "eyetrack", "sumobot", "mp3dec")]
        self.rng.shuffle(items)
        self.items = items
        self.next = 0
        self.recon = f"large_{seeds[0]}.sj"
        self.trace_args = ["--files", ",".join(items), "--recon", self.recon]

    def verify(self, r, name):
        if crashed(r):
            return f"crash (exit {r.code})"
        if r.code != 0:
            return f"exit {r.code}"
        write_text(os.path.join(self.dir, "inferred.sj"), r.out)
        c = spawn([self.sjava, "check", "inferred.sj"], self.dir, child_env())
        if c.code != 0 or not c.out.endswith("self-stabilizing ✓\n"):
            return f"inferred program fails `sjava check` (exit {c.code})"
        return None

    def op(self):
        name = self.items[self.next % len(self.items)]
        self.next += 1
        r = spawn([self.sjava, "infer", name], self.dir, child_env())
        why = self.verify(r, name)
        if why:
            self.fail(name, why)
        return r, 1, int(why is not None)

    def recon_runs(self, reps):
        runs = []
        for _ in range(reps):
            r = spawn([self.sjava, "infer", self.recon], self.dir, child_env())
            runs.append((r, self.recon, self.verify(r, self.recon)))
        return runs


class CampaignMp3dec(Workload):
    name = "campaign_mp3dec"

    def setup(self):
        rows = load_campaign_ref()
        # The default 1000 trials take ~18 s per process on a 2-core
        # host; a seeded 144-156 keeps several campaigns in one run while
        # auto batching still yields under 24 batches, so the campaign
        # runs on one core exactly as the default does.
        self.trials = 144 + 4 * (self.seed % 4)
        if len(rows) < self.trials:
            raise SystemExit("run.py: campaign reference has too few trials")
        self.expected = histogram_csv(rows, self.trials)
        self.trace_args = ["--trials", str(self.trials)]

    def args(self):
        return [self.sjava, "campaign", "--app=mp3dec", f"--trials={self.trials}",
                "--out=hist.csv"]

    def verify(self, r):
        if crashed(r) or r.code != 0:
            return self.trials, f"exit {r.code}"
        if f": {self.trials} trials in " not in r.out:
            return self.trials, "trial count missing from the report"
        got = read_text(os.path.join(self.dir, "hist.csv"))
        moved = histogram_moved(self.expected, got, self.trials)
        if moved:
            return moved, f"histogram differs from the tree-walker reference in {moved} trials"
        return 0, None

    def op(self):
        r = spawn(self.args(), self.dir, child_env())
        failed, why = self.verify(r)
        if why:
            self.fail(f"mp3dec --trials={self.trials}", why)
        return r, self.trials, failed

    def recon_runs(self, reps):
        # Two campaigns, not `reps`: each one takes seconds.
        runs = []
        for _ in range(2):
            r = spawn(self.args(), self.dir, child_env())
            runs.append((r, "mp3dec", self.verify(r)[1]))
        return runs


CLASSES = {w.name: w for w in (CheckCold, CheckEdit, Infer, CampaignMp3dec)}


# ------------------------------------------------------------- running


def set_up(cls, sjava, tracer, seed, trace):
    """Runs set-up repeatedly, each time in a new directory; returns the
    last workload, the median set-up time and the directories made.

    Nothing is deleted until the run ends: on ext4, files created right
    after a burst of deletions near the same directory cost several times
    the system time, which made set-up times drift from run to run."""
    times, dirs = [], []
    wl = None
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        d = os.path.join(WORK, f"{cls.name}-{len(dirs)}")
        os.makedirs(d)
        dirs.append(d)
        t0 = time.perf_counter()
        wl = cls(sjava, tracer, seed, d, trace)
        # Start `sjava` once, so loading the binary is set-up work.
        if spawn([sjava], d, child_env()).code != 2:
            raise SystemExit("run.py: `sjava` without arguments must exit 2 with usage")
        wl.setup()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times), dirs


def measure(wl, seconds):
    """The closed loop: one command in flight until `seconds` have passed.
    Latency samples are per op: a command, or on campaign_mp3dec a
    campaign process's wall time shared out over its trials."""
    walls, lat, cpus, rss = [], [], [], 0.0
    ops = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not walls:
        r, n, bad = wl.op()
        walls.append(r.wall_ms)
        lat.append(r.wall_ms / n)
        cpus.append(r.cpu_ms)
        rss = max(rss, r.rss_mb)
        ops += n
        failed += bad
    return walls, lat, cpus, rss, ops, failed


def trace_run(wl, seed):
    """Per-layer metrics: spawned commands for the CLI's share and the
    in-process traced replay for every layer below it."""
    startup = []
    before = len(wl.failures)
    for _ in range(TRACE_REPS):
        r = spawn([wl.sjava], wl.dir, child_env())
        startup.append(r.wall_ms)
        if r.code != 2:
            wl.fail("sjava (no arguments)", f"exit {r.code}, expected usage exit 2")
    failed = len(wl.failures) - before
    runs = wl.recon_runs(TRACE_REPS)
    attempted = len(startup) + len(runs)
    for r, name, why in runs:
        if why:
            wl.fail(name, why)
            failed += 1
    spans = os.path.join(WORK, f"spans_{wl.name}_{seed}.jsonl")
    res = subprocess.run([wl.tracer, "trace", "--workload", wl.name, "--dir", wl.dir,
                          "--reps", str(TRACE_REPS), "--spans", spans, *wl.trace_args],
                         env=child_env(), capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"run.py: traced run failed: {res.stderr}")
    traced = json.loads(res.stdout.strip().splitlines()[-1])
    mismatches = int(traced.pop("trace.replica_mismatches", 0))
    if mismatches:
        wl.fail("traced replica", f"{mismatches} inputs where the replica differs from the library")
        failed += mismatches
    command = statistics.median(r.wall_ms for r, _, _ in runs)
    startup_ms = statistics.median(startup)
    layers = traced.pop("trace.layers_self_ms")
    traced["cli.startup_ms"] = startup_ms
    traced["cli.command_p50_ms"] = command
    traced["cli.unaccounted_ms"] = command - startup_ms - layers
    trials = traced.pop("runtime.trials", None)
    metrics = {name: {"value": float(traced.get(name) or 0.0), "unit": unit}
               for name, unit in PER_LAYER.items()}
    extra = {"layers_self_ms": layers, "trace_samples": TRACE_REPS, "spans_file":
             os.path.relpath(spans, ROOT), "unreported": sorted(set(traced) - set(PER_LAYER))}
    if trials is not None:
        extra["campaign_trials"] = trials
    return metrics, attempted + mismatches, failed, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    sjava, tracer = build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    info = json.loads(subprocess.run([tracer, "info"], env=child_env(), capture_output=True,
                                     text=True, check=True).stdout)
    wl, setup_s, dirs = set_up(CLASSES[a.workload], sjava, tracer, a.seed, a.trace)
    # A failed set-up step (the store warm-up) counts as one failed op.
    setup_failed = len(wl.failures)

    speed0 = host_speed_ms()
    ticks0 = cpu_ticks()
    if a.trace:
        metrics, attempted, failed, extra = trace_run(wl, a.seed)
        samples = extra
    else:
        walls, lat, cpus, rss, attempted, failed = measure(wl, a.seconds)
        busy_s = sum(walls) / 1e3
        metrics = {
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8]
                               if len(lat) > 1 else lat[0]),
            "trials_per_s": attempted / busy_s,
            "cpu_ms_per_op": sum(cpus) / attempted,
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        samples = {"commands": len(walls), "ops": attempted, "latency_samples": len(lat),
                   "p90_samples_beyond": len(lat) - int(0.9 * len(lat)),
                   "error_rate": failed / attempted}
    attempted += setup_failed
    failed += setup_failed
    ticks1 = cpu_ticks()
    speed1 = host_speed_ms()
    total = max(1, ticks1["total"] - ticks0["total"])
    steal = ticks1["steal"] - ticks0["steal"]
    report = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "setup_s": setup_s, "samples": samples,
        "host": {
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "par_threads": info["par_threads"], "build_profile": "release",
            "commit": commit(), "source_digest": source_digest(),
            "steal_ticks": steal, "idle_ticks": ticks1["idle"] - ticks0["idle"],
            "total_ticks": total, "noisy": steal / total > NOISY_STEAL_FRAC,
            "speed_probe_ms": [speed0, speed1],
            "env_sanitized": True, "env_removed": REMOVED_ENV,
        },
        "failures": wl.failures[:20], "failure_count": len(wl.failures),
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    main()
