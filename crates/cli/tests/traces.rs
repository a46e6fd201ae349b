//! End-to-end checks on `memifctl`'s trace surface: truncated and
//! corrupt traces must die with a clear error and a nonzero exit (never
//! a panic), and a crashed-then-recovered run's trace must replay
//! bit-identically.

use std::path::PathBuf;
use std::process::{Command, Output};

fn memifctl(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memifctl"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("memifctl runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memifctl-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

/// Asserts the invocation failed cleanly: exit code 2, a one-line
/// `memifctl: ...` diagnostic, and no panic backtrace.
fn assert_clean_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit 2, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("memifctl:"),
        "diagnostic missing prefix: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "diagnostic should mention '{needle}': {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "tool panicked instead of failing cleanly: {stderr}"
    );
}

fn record_move_trace(dir: &std::path::Path) -> String {
    let out = memifctl(
        dir,
        &["move", "--count", "8", "--trace-events", "trace.jsonl"],
    );
    assert!(out.status.success(), "recording failed: {out:?}");
    std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written")
}

#[test]
fn truncated_trace_is_a_clean_error() {
    let dir = tempdir("truncated");
    let text = record_move_trace(&dir);
    // Cut the file mid-way: the tail events and every terminal-status
    // line are gone, and the last surviving line is sliced mid-record.
    let cut = &text[..text.len() / 2];
    std::fs::write(dir.join("cut.jsonl"), cut).unwrap();
    let out = memifctl(&dir, &["replay", "--from", "cut.jsonl"]);
    assert_clean_failure(&out, "diverge");
}

#[test]
fn trace_truncated_inside_the_header_is_a_clean_error() {
    let dir = tempdir("cut-header");
    let text = record_move_trace(&dir);
    let header_len = text.lines().next().expect("header line").len();
    std::fs::write(dir.join("cut.jsonl"), &text[..header_len / 2]).unwrap();
    let out = memifctl(&dir, &["replay", "--from", "cut.jsonl"]);
    assert_clean_failure(&out, "memifctl:");
}

#[test]
fn corrupt_header_values_are_clean_errors() {
    let dir = tempdir("corrupt");
    let text = record_move_trace(&dir);
    // A flipped digit can zero a count the harness would otherwise
    // trust; each must be rejected up front, not panic mid-run.
    for (from, to, needle) in [
        ("pages=16", "pages=0", "--pages"),
        ("count=8", "count=0", "--count"),
        ("window=8", "window=0", "--window"),
        ("page-size=4k", "page-size=9q", "--page-size"),
    ] {
        let bad = text.replacen(from, to, 1);
        assert_ne!(bad, text, "substitution '{from}' must apply");
        std::fs::write(dir.join("bad.jsonl"), bad).unwrap();
        let out = memifctl(&dir, &["replay", "--from", "bad.jsonl"]);
        assert_clean_failure(&out, needle);
    }
}

#[test]
fn binary_garbage_is_a_clean_error() {
    let dir = tempdir("garbage");
    std::fs::write(dir.join("bin.jsonl"), [0x80u8, 0xff, 0x00, 0x41]).unwrap();
    let out = memifctl(&dir, &["replay", "--from", "bin.jsonl"]);
    assert_clean_failure(&out, "UTF-8");
}

#[test]
fn recover_then_replay_round_trips_bit_identically() {
    let dir = tempdir("recover-replay");
    // A crash mid-chain plus recovery and re-drive, traced end to end.
    let out = memifctl(
        &dir,
        &[
            "recover",
            "--crash-point",
            "mid-chain",
            "--crash-nth",
            "2",
            "--count",
            "8",
            "--trace-events",
            "recover.jsonl",
        ],
    );
    assert!(out.status.success(), "recover run failed: {out:?}");
    let replay = memifctl(&dir, &["replay", "--from", "recover.jsonl"]);
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(
        replay.status.success() && stdout.contains("replay OK"),
        "recovered trace must replay bit-identically: {replay:?}"
    );
    // The trace carries the reboot marker between the crash and the
    // re-driven tail.
    let text = std::fs::read_to_string(dir.join("recover.jsonl")).unwrap();
    assert!(
        text.contains("\"type\":\"recover\""),
        "trace should record the recovery itself"
    );
}

#[test]
fn recover_json_reports_the_stable_counter_keys() {
    let dir = tempdir("recover-json");
    let out = memifctl(
        &dir,
        &[
            "recover",
            "--crash-point",
            "post-launch",
            "--count",
            "6",
            "--json",
            "true",
        ],
    );
    assert!(out.status.success(), "recover failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"crashed\":",
        "\"journal_records\":",
        "\"recovered_requests\":",
        "\"rolled_back\":",
        "\"redriven\":",
        "\"resubmitted\":",
        "\"wall_ns\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn stats_json_carries_the_scheduler_counters() {
    let dir = tempdir("stats-sched-json");
    let out = memifctl(&dir, &["stats", "--count", "4", "--json", "true"]);
    assert!(out.status.success(), "stats failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"events_executed\":",
        "\"events_cancelled\":",
        "\"peak_pending\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    // A real run executes events and holds several pending at once; the
    // counters must carry live values, not zero placeholders.
    let field = |key: &str| -> u64 {
        let at = stdout.find(key).unwrap() + key.len();
        stdout[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert!(field("\"events_executed\":") > 0, "no events executed?");
    assert!(field("\"peak_pending\":") > 0, "nothing ever pending?");
}

/// Replays the committed trace `tests/data/<name>` (plus `extra`
/// flags) from a fresh directory.
fn replay_fixture(name: &str, extra: &[&str]) -> Output {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
        .into_os_string()
        .into_string()
        .expect("utf-8 path");
    let dir = tempdir(name);
    let mut args = vec!["replay", "--from", &fixture];
    args.extend_from_slice(extra);
    memifctl(&dir, &args)
}

/// Asserts a committed trace replays bit-identically with the recorded
/// event and terminal-status counts.
fn assert_fixture_replays(name: &str, events: u32, statuses: u32) {
    let out = replay_fixture(name, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("replay OK"),
        "{name} must replay bit-identically: {out:?}"
    );
    assert!(
        stdout.contains(&format!("{events} events"))
            && stdout.contains(&format!("{statuses} terminal statuses")),
        "{name} shape drifted: {stdout}"
    );
}

/// A committed 4-tier waterfall trace must replay bit-identically: the
/// dispatch-order contract `(time, insertion)` is part of the trace
/// format's ABI. The file was first captured on the BinaryHeap +
/// tombstone scheduler and replayed unchanged on the timing wheel; it
/// was re-captured once when same-instant worker wakes became always
/// deduplicated, which removed 42 `kthread_run` records and nothing
/// else.
#[test]
fn committed_pr7_trace_replays_bit_identically() {
    assert_fixture_replays("waterfall_pr7.jsonl", 1314, 185);
}

/// A committed sharded, batched chaos migration (two issue shards,
/// `batch_max` 8, DMA errors, lost interrupts and descriptor
/// exhaustion) replays bit-identically. It drives all three release
/// sites (interrupt, polling and degraded), `retry_launch` and the
/// watchdog. Recorded with:
///
/// ```text
/// memifctl move --kind migrate --pages 16 --count 96 --window 48 \
///   --batch-max 8 --issue-shards 2 --fault-seed 5 --dma-error-rate 1e-1 \
///   --drop-rate 1e-2 --desc-exhaust-rate 3e-1
/// ```
#[test]
fn committed_sharded_chaos_trace_replays_bit_identically() {
    assert_fixture_replays("sharded_chaos.jsonl", 202, 96);
    // The shard count is part of the recorded scenario: replaying it on
    // a different one is a conflict, not a new run.
    let out = replay_fixture("sharded_chaos.jsonl", &["--issue-shards", "4"]);
    assert_clean_failure(&out, "--issue-shards 4 conflicts with the trace");
}

/// A committed batched chaos replication (`batch_max` 16, DMA errors,
/// lost interrupts and heavy descriptor exhaustion) replays
/// bit-identically. It drives batch disband into per-member
/// `exec_retry`, `degrade_or_fail` and the degraded release. Recorded
/// with:
///
/// ```text
/// memifctl move --kind replicate --pages 16 --count 64 --window 32 \
///   --batch-max 16 --fault-seed 3 --dma-error-rate 2e-1 --drop-rate 2e-2 \
///   --desc-exhaust-rate 3e-1
/// ```
#[test]
fn committed_replicate_chaos_trace_replays_bit_identically() {
    assert_fixture_replays("replicate_chaos.jsonl", 422, 64);
}

#[test]
fn stats_json_carries_the_recovery_counters() {
    let dir = tempdir("stats-json");
    let out = memifctl(&dir, &["stats", "--count", "4", "--json", "true"]);
    assert!(out.status.success(), "stats failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"journal_records\":",
        "\"recovered_requests\":",
        "\"rolled_back\":",
        "\"redriven\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn unknown_flags_are_clean_errors() {
    let dir = tempdir("unknown-flag");
    let out = memifctl(&dir, &["move", "--pagse", "4", "--count", "8"]);
    assert_clean_failure(&out, "unknown flag --pagse for move");
    let out = memifctl(&dir, &["policy", "--tierz", "4"]);
    assert_clean_failure(&out, "unknown flag --tierz for policy");
}

#[test]
fn replay_rejects_overrides_that_conflict_with_the_trace() {
    let dir = tempdir("override");
    record_move_trace(&dir);
    let out = memifctl(
        &dir,
        &[
            "replay",
            "--from",
            "trace.jsonl",
            "--count",
            "999",
            "--pages",
            "2",
        ],
    );
    assert_clean_failure(&out, "conflicts with the trace");

    let out = memifctl(
        &dir,
        &[
            "policy",
            "--phases",
            "2",
            "--ticks",
            "8",
            "--trace-events",
            "policy.jsonl",
        ],
    );
    assert!(out.status.success(), "policy recording failed: {out:?}");
    let out = memifctl(&dir, &["replay", "--from", "policy.jsonl", "--seed", "7"]);
    assert_clean_failure(&out, "--seed 7 conflicts with the trace");
}

#[test]
fn replay_accepts_overrides_that_restate_the_trace() {
    let dir = tempdir("restate");
    record_move_trace(&dir);
    let out = memifctl(
        &dir,
        &["replay", "--from", "trace.jsonl", "--issue-shards", "1"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("replay OK"),
        "a matching override must replay: {out:?}"
    );
}
