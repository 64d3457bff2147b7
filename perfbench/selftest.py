#!/usr/bin/env python3
"""Self-tests of the sjava benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. The same seed generates byte-identical inputs for every workload.
2. The count metrics repeat exactly across two traced runs.
3. No oracle is vacuous: one flipped byte in a reference is a failure.

Exits 0 when every test passes and 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 3
COUNTS = ("analysis.methods", "syntax.tokens", "core.diagnostics", "cache.hits",
          "cache.misses", "cache.rechecked", "cache.green", "cache.red", "infer.locations",
          "infer.paths", "runtime.heap_cells", "runtime.diverged_frac", "par.threads")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def tree(d):
    """Relative path -> bytes for every input file (stores excluded: they
    hold the program's own output, not generated input)."""
    out = {}
    for base, dirs, files in os.walk(d):
        dirs[:] = [x for x in dirs if "store" not in x]
        for f in files:
            p = os.path.join(base, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, d)] = fh.read()
    return out


def set_up_in(cls, sjava, tracer, name):
    d = os.path.join(run.WORK, "selftest", name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    wl = cls(sjava, tracer, SEED, d, trace=True)
    wl.setup()
    return wl


def same_seed_same_inputs(sjava, tracer):
    for cls in run.CLASSES.values():
        a = set_up_in(cls, sjava, tracer, cls.name + "_a")
        b = set_up_in(cls, sjava, tracer, cls.name + "_b")
        same = tree(a.dir) == tree(b.dir) and a.trace_args == b.trace_args
        if cls is run.CheckEdit:
            same = same and [a.edits.step() for _ in range(40)] == [b.edits.step() for _ in range(40)]
        if cls is run.CampaignMp3dec:
            same = same and a.expected == b.expected
        check(same, f"{cls.name}: seed {SEED} generates byte-identical inputs twice")


def traced(workload):
    res = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload",
                          workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True)
    if res.returncode != 0:
        return None
    return json.loads(res.stdout.strip().splitlines()[-1])


def counts_repeat():
    for w in run.WORKLOADS:
        a, b = traced(w), traced(w)
        if a is None or b is None:
            check(False, f"{w}: traced run exits 0")
            continue
        diff = [k for k in COUNTS if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        check(not diff and a["correct"] and b["correct"],
              f"{w}: count metrics repeat exactly across two traced runs {diff or ''}")


def flip(text, at=None):
    """`text` with one byte changed."""
    data = bytearray(text.encode())
    i = len(data) // 2 if at is None else at
    data[i] = data[i] ^ 0x01 if data[i] not in (0x0A, 0x0D) else 0x20
    return data.decode("utf-8", "replace")


def oracles_not_vacuous(sjava, tracer):
    cold = set_up_in(run.CheckCold, sjava, tracer, "oracle_cold")
    for kind in ("verified", "golden", "near_miss"):
        name, oracle, source = next(i for i in cold.items if i[1][0] == kind)
        r = run.spawn([sjava, "check", name], cold.dir, run.child_env())
        good = cold.check(r, name, oracle, source) is None
        if kind == "verified":
            # The reference is the verdict line the oracle expects.
            r.out = flip(r.out, 0)
            bad = cold.check(r, name, oracle, source)
        else:
            bad = cold.check(r, name, (kind, flip(oracle[1])), source)
        check(good and bad is not None, f"check_cold {kind} oracle: a flipped reference byte fails")

    edit = set_up_in(run.CheckEdit, sjava, tracer, "oracle_edit")
    step = edit.trace_steps[0]
    r = run.spawn([sjava, "check", step], edit.dir, run.child_env(edit.store))
    ref = run.spawn([sjava, "check", step], edit.dir, run.child_env())
    good = run.oracle_same(r, ref) is None
    ref.out = flip(ref.out)
    check(good and run.oracle_same(r, ref) is not None,
          "check_edit oracle: a flipped byte of the cache-less output fails")

    inf = set_up_in(run.Infer, sjava, tracer, "oracle_infer")
    name = inf.items[0]
    r = run.spawn([sjava, "infer", name], inf.dir, run.child_env())
    good = inf.verify(r, name) is None
    r.out = flip(r.out, r.out.index("@LOC") + 1)
    check(good and inf.verify(r, name) is not None,
          "infer oracle: a flipped byte of the inferred program fails `sjava check`")

    camp = set_up_in(run.CampaignMp3dec, sjava, tracer, "oracle_campaign")
    r = run.spawn(camp.args(), camp.dir, run.child_env())
    good = camp.verify(r)[0] == 0
    rows = run.load_campaign_ref()
    # Flip trial 0's `diverged` byte: the trial leaves its bucket.
    seed, diverged, samples = rows[0]
    rows[0] = (seed, not diverged, samples)
    camp.expected = run.histogram_csv(rows, camp.trials)
    check(good and camp.verify(r)[0] > 0,
          "campaign oracle: a flipped byte of the tree-walker reference fails")


def main():
    sjava, tracer = run.build()
    os.makedirs(run.WORK, exist_ok=True)
    same_seed_same_inputs(sjava, tracer)
    oracles_not_vacuous(sjava, tracer)
    counts_repeat()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
