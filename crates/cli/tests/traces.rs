//! End-to-end checks on `memifctl`'s trace surface: every recorded
//! scenario must replay bit-identically and reject an override that
//! conflicts with its header, and truncated and corrupt traces must die
//! with a clear error and a nonzero exit (never a panic).

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn memifctl(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memifctl"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("memifctl runs")
}

/// A per-test scratch directory. It is removed when the test passes and
/// kept for inspection when it fails.
struct TempDir(PathBuf);

impl Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn tempdir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("memifctl-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    TempDir(dir)
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

fn record_move_trace(dir: &Path) -> String {
    let out = memifctl(
        dir,
        &["move", "--count", "8", "--trace-events", "trace.jsonl"],
    );
    assert!(out.status.success(), "recording failed: {out:?}");
    std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written")
}

/// Every recorded scenario round-trips: `(recording command, conflicting
/// overrides)`, each split on whitespace. Each row's trace must replay
/// bit-identically, reject each override with exit 2, and fail cleanly
/// when cut in half.
const ROUND_TRIPS: &[(&str, &[&str])] = &[
    ("move --count 8", &["--count 999 --pages 2"]),
    (
        "move --kind migrate --pages 64 --count 48 \
         --fault-seed 11 --dma-error-rate 1e-2 --drop-rate 1e-3",
        &["--fault-seed 12"],
    ),
    (
        "move --tenants 2 --tenant-weights 2,1 --count 32",
        &["--tenant-weights 9,9", "--count 999"],
    ),
    (
        "recover --crash-point mid-chain --crash-nth 2 --count 12",
        &["--crash-nth 3"],
    ),
    ("policy --phases 2 --ticks 8", &["--seed 7"]),
    (
        "policy --phases 3 --ticks 16 \
         --fault-seed 7 --dma-error-rate 2e-1 --drop-rate 1e-2",
        &["--mode sync"],
    ),
    (
        "policy --tiers 4 --warm 12 --regions 32 --phases 3 --ticks 16",
        &["--tiers 2"],
    ),
    (
        "stream --kernel triad --placement memif --input-mib 8 --overlap-depth 2",
        &["--overlap-depth 4"],
    ),
];

#[test]
fn recorded_traces_replay_and_reject_conflicting_overrides() {
    let dir = tempdir("round-trips");
    for (record, overrides) in ROUND_TRIPS {
        let mut args: Vec<&str> = record.split_whitespace().collect();
        args.extend(["--trace-events", "trace.jsonl"]);
        let out = memifctl(&dir, &args);
        assert!(out.status.success(), "{record}: recording failed: {out:?}");
        let replay = memifctl(&dir, &["replay", "--from", "trace.jsonl"]);
        assert!(
            replay.status.success()
                && String::from_utf8_lossy(&replay.stdout).contains("replay OK"),
            "{record}: trace must replay bit-identically: {replay:?}"
        );
        let text = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written");
        if args[0] == "recover" {
            // The reboot marker sits between the crash and the
            // re-driven tail.
            assert!(
                text.contains("\"type\":\"recover\""),
                "{record}: trace should record the recovery itself"
            );
        }
        for extra in *overrides {
            let mut args = vec!["replay", "--from", "trace.jsonl"];
            args.extend(extra.split_whitespace());
            let conflict: Vec<&str> = extra.split_whitespace().take(2).collect();
            assert_clean_failure(
                &memifctl(&dir, &args),
                &format!("{} conflicts with the trace", conflict.join(" ")),
            );
        }
        // Cut mid-way: the tail events and every terminal-status line
        // are gone, and the last surviving line is sliced mid-record.
        std::fs::write(dir.join("cut.jsonl"), &text[..text.len() / 2]).unwrap();
        let out = memifctl(&dir, &["replay", "--from", "cut.jsonl"]);
        assert_clean_failure(&out, "diverge");
    }
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
        "\"log_bytes\":",
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
    assert!(field("\"log_bytes\":") > 0, "four requests, an empty log?");
}

/// Replays the committed trace `tests/data/<name>` (plus `extra`
/// flags) from a fresh directory.
fn replay_fixture(name: &str, extra: &[&str]) -> Output {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
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

/// The per-tenant report of a two-tenant QoS run, pinned. Retired
/// requests and moved bytes are the QoS registry's counters; the
/// nearest-rank p50 and p99 come from the device's completion log.
#[test]
fn stats_json_pins_the_tenant_report() {
    let dir = tempdir("stats-tenants");
    let out = memifctl(
        &dir,
        &[
            "stats",
            "--tenants",
            "2",
            "--tenant-weights",
            "3,1",
            "--qos",
            "true",
            "--count",
            "64",
            "--json",
            "true",
        ],
    );
    assert!(out.status.success(), "stats failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let at = stdout.find("\"tenants\":").expect("tenants array");
    assert_eq!(
        stdout[at..].trim_end(),
        "\"tenants\":[\
         {\"id\":1,\"weight\":3,\"inflight\":0,\"parked\":0,\"total_parked\":0,\
         \"retired\":32,\"bytes_moved\":2097152,\"p50_ns\":217350,\"p99_ns\":619950},\
         {\"id\":2,\"weight\":1,\"inflight\":0,\"parked\":0,\"total_parked\":0,\
         \"retired\":32,\"bytes_moved\":2097152,\"p50_ns\":941850,\"p99_ns\":1127100}]}"
    );
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
