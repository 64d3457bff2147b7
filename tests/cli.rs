//! The `sjava` command-line tool, end to end.

use std::process::Command;

fn sjava(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sjava"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sjava-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write");
    path
}

#[test]
fn check_accepts_good_program() {
    let path = write_temp("good.sj", sjava::apps::windsensor::SOURCE);
    let out = sjava(&["check", path.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-stabilizing"), "{stdout}");
}

#[test]
fn check_rejects_bad_program() {
    let path = write_temp(
        "bad.sj",
        r#"@LATTICE("A<B") @METHODDEFAULT("V<IN") @THISLOC("V")
           class C {
               @LOC("A") int a; @LOC("B") int b;
               void main() { SSJAVA: while (true) { @LOC("IN") int x = Device.read(); a = x; b = a; Out.emit(b); } }
           }"#,
    );
    let out = sjava(&["check", path.to_str().expect("utf8")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flow-down"), "{stderr}");
}

#[test]
fn infer_emits_checkable_source() {
    let path = write_temp("weather.sj", sjava::apps::weather::SOURCE);
    let out = sjava(&["infer", path.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let annotated = String::from_utf8_lossy(&out.stdout);
    assert!(annotated.contains("@LATTICE"), "{annotated}");
    // The printed source checks.
    let reparsed = sjava::parse(&annotated).expect("parses");
    assert!(sjava::check(&reparsed).is_ok());
}

#[test]
fn run_executes_iterations() {
    let path = write_temp("sensor.sj", sjava::apps::windsensor::SOURCE);
    let out = sjava(&[
        "run",
        path.to_str().expect("utf8"),
        "WDSensor.windDirection",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 3, "{stdout}");
}

#[test]
fn lattice_prints_dot() {
    let path = write_temp("dot.sj", sjava::apps::windsensor::SOURCE);
    let out = sjava(&["lattice", path.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph"), "{stdout}");
    assert!(stdout.contains("DIR1"), "{stdout}");
}

#[test]
fn usage_on_bad_args() {
    let out = sjava(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn lifetimes_reports_allocation_bounds() {
    let path = write_temp("life.sj", sjava::apps::windsensor::SOURCE);
    let out = sjava(&["lifetimes", path.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("whole run"), "{stdout}");
}

#[test]
fn vfg_prints_flow_graphs() {
    let path = write_temp("vfg.sj", sjava::apps::weather::SOURCE);
    let out = sjava(&["vfg", path.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph"), "{stdout}");
    assert!(stdout.contains("prevTemp"), "{stdout}");
}

#[test]
fn lint_reports_dead_stores() {
    let path = write_temp(
        "lint.sj",
        "class A { void f(int p) { int x = p * 2; x = p * 3; p = x; } }",
    );
    let out = sjava(&["lint", path.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dead store"), "{stderr}");
}

/// A probe that fails every per-method phase: flow-up (explicit and via
/// a call), an unprovable loop, and an aliasing violation — so the merge
/// order of per-method diagnostics is actually observable in the bytes.
const FAILING: &str = r#"@LATTICE("LO<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
class A {
    @LOC("HI") int hi; @LOC("LO") int lo;
    void main() {
        SSJAVA: while (true) {
            @LOC("IN") int x = Device.read();
            hi = x;
            lo = hi;
            hi = lo;
            step(x);
            while (x != 0) { x = Device.read(); }
            Out.emit(lo);
        }
    }
    @LATTICE("S<P") @THISLOC("S")
    void step(@LOC("P") int p) { @LOC("S") int y = p; Out.emit(y); }
}"#;

/// Runs `sjava check <path> <extra>` under the given environment,
/// returning `(exit code, stdout, stderr)`.
fn check_with_env(
    path: &std::path::Path,
    extra: &[&str],
    env: &[(&str, &std::ffi::OsStr)],
) -> (Option<i32>, Vec<u8>, Vec<u8>) {
    let out = Command::new(env!("CARGO_BIN_EXE_sjava"))
        .arg("check")
        .arg(path)
        .args(extra)
        .envs(env.iter().copied())
        .output()
        .expect("binary runs");
    (out.status.code(), out.stdout, out.stderr)
}

/// Every format must produce the same exit code, stdout and stderr at
/// `SJAVA_THREADS=1` and `=4`.
fn assert_thread_invariant(name: &str, source: &str, formats: &[&str]) {
    let path = write_temp(&format!("threads-{name}.sj"), source);
    for format in formats {
        let fmt = format!("--format={format}");
        let run =
            |threads: &str| check_with_env(&path, &[&fmt], &[("SJAVA_THREADS", threads.as_ref())]);
        let (ref_code, ref_out, ref_err) = run("1");
        let (code, out, err) = run("4");
        assert_eq!(code, ref_code, "{name} {fmt}: exit code differs");
        assert_eq!(
            out,
            ref_out,
            "{name} {fmt}: stdout differs\nref:\n{}\ngot:\n{}",
            String::from_utf8_lossy(&ref_out),
            String::from_utf8_lossy(&out),
        );
        assert_eq!(
            err,
            ref_err,
            "{name} {fmt}: stderr differs\nref:\n{}\ngot:\n{}",
            String::from_utf8_lossy(&ref_err),
            String::from_utf8_lossy(&err),
        );
    }
}

#[test]
fn check_failing_probe_is_thread_invariant_in_every_format() {
    // JSON and SARIF serialize spans and codes, so any merge-order or
    // content drift shows up in the bytes.
    assert_thread_invariant("probe", FAILING, &["text", "json", "sarif"]);
}

#[test]
fn check_paper_apps_are_thread_invariant() {
    for (name, source) in [
        ("windsensor", sjava::apps::windsensor::SOURCE.to_string()),
        ("eyetrack", sjava::apps::eyetrack::SOURCE.to_string()),
        ("sumobot", sjava::apps::sumobot::SOURCE.to_string()),
        ("mp3dec", sjava::apps::mp3dec::source().to_string()),
    ] {
        assert_thread_invariant(name, &source, &["text"]);
    }
}

#[test]
fn check_adversarial_stress_is_thread_invariant() {
    // Deep lattices, degenerate @DELTA chains and wide call fans: the
    // shapes most likely to expose a scheduling-order dependency.
    let cfg = sjava_bench::stressgen::StressConfig::adversarial();
    let source = sjava_bench::stressgen::generate(&cfg);
    assert_thread_invariant("adversarial", &source, &["text", "json", "sarif"]);
}

#[test]
fn check_store_warm_run_replays_identical_bytes() {
    // A cold run with SJAVA_CACHE_DIR publishes per-method objects; a
    // new process over the same directory replays them and must print
    // exactly what the uncached checker prints.
    let path = write_temp("store-shared.sj", FAILING);
    let dir = std::env::temp_dir().join(format!("sjava-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = || {
        check_with_env(
            &path,
            &[],
            &[
                ("SJAVA_CACHE_DIR", dir.as_os_str()),
                ("SJAVA_CACHE_PERSIST_MIN", "0".as_ref()),
            ],
        )
    };
    let uncached = check_with_env(&path, &[], &[]);
    let cold = cached();
    assert!(
        walk_count(&dir) > 0,
        "a cold run must publish store objects"
    );
    let warm = cached();
    assert_eq!(
        cold, uncached,
        "store-cold run differs from the uncached run"
    );
    assert_eq!(warm, cold, "store-warm run differs from the cold run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_removed_shard_flags() {
    let path = write_temp("shard-flags.sj", sjava::apps::windsensor::SOURCE);
    let path = path.to_str().expect("utf8");
    // The flags of the retired multi-process sharding mode.
    for flag in ["shards=2", "shard=0/2"].map(|f| format!("--{f}")) {
        let out = sjava(&["check", path, &flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}

/// Runs `sjava campaign <args>` with `SJAVA_THREADS` removed from the
/// environment, so a run without `--threads` uses the machine's width.
fn campaign(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sjava"))
        .arg("campaign")
        .args(args)
        .env_remove("SJAVA_THREADS")
        .output()
        .expect("binary runs")
}

#[test]
fn campaign_output_is_thread_invariant() {
    // The histogram CSV and every non-timing stdout line must not depend
    // on the worker count: one worker, four, or the default width.
    let dir = std::env::temp_dir().join(format!("sjava-cli-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let csv_path = dir.join("hist.csv");
    let out_flag = format!("--out={}", csv_path.display());
    let run = |threads: Option<&str>| -> (String, Vec<u8>) {
        let mut args = vec!["--app=windsensor", "--trials=64", out_flag.as_str()];
        args.extend(threads);
        let out = campaign(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The header line reports wall time and throughput, and the
        // measured-cost line reports per-trial nanoseconds.
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        let kept: String = stdout
            .lines()
            .filter(|l| !l.contains(" trials in ") && !l.starts_with("measured cost"))
            .map(|l| format!("{l}\n"))
            .collect();
        let csv = std::fs::read(&csv_path).expect("--out written");
        std::fs::remove_file(&csv_path).expect("rm csv");
        (kept, csv)
    };
    let one = run(Some("--threads=1"));
    let four = run(Some("--threads=4"));
    let auto = run(None);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(one.0.contains("diverged: "), "{}", one.0);
    assert!(one.1.starts_with(b"bucket_lo,count\n"));
    assert_eq!(four.0, one.0, "stdout differs at --threads=4");
    assert_eq!(four.1, one.1, "CSV differs at --threads=4");
    assert_eq!(auto.0, one.0, "stdout differs at the default width");
    assert_eq!(auto.1, one.1, "CSV differs at the default width");
}

#[test]
fn campaign_rejects_zero_threads() {
    let out = campaign(&["--app=windsensor", "--trials=4", "--threads=0"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--threads=0 must be a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads"), "{stderr}");
    assert!(out.stdout.is_empty(), "no campaign may run");
}

fn walk_count(dir: &std::path::Path) -> usize {
    let mut n = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                n += 1;
            }
        }
    }
    n
}
