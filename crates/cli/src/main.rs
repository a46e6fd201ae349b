//! `memifctl` — drive the simulated memif stack from the command line.
//!
//! ```text
//! memifctl topology [--profile keystone|xeon]
//! memifctl migspeed [--pages 1500] [--batches 1] [--page-size 4k] [--profile keystone|xeon]
//! memifctl move     [--kind migrate|replicate] [--pages 16] [--count 64]
//!                   [--page-size 4k] [--window 8] [--no-reuse true] [--no-gang true]
//!                   [--fault-seed N] [--dma-error-rate R] [--drop-rate R]
//!                   [--delay-rate R] [--desc-exhaust-rate R] [--max-retries N]
//!                   [--no-fallback true] [--tc-count N] [--trace-events PATH]
//!                   [--batch-max N] [--no-coalesce true] [--issue-shards S]
//!                   [--tenants N] [--tenant-weights a,b,...] [--qos true]
//! memifctl stats    [same flags as move] [--json true]
//! memifctl policy   [--mode none|sync|async] [--regions 24] [--pages 64]
//!                   [--phases 6] [--hot 8] [--carry 3] [--ticks 32]
//!                   [--tiers 2] [--policy-tiers 0] [--warm 0]
//!                   [--epoch-us 1000] [--max-inflight 4] [--seed 42]
//!                   [--fault-seed N] [--dma-error-rate R] [--drop-rate R]
//!                   [--trace-events PATH] [--json true]
//! memifctl recover  [--crash-at K] [--pages 8] [--count 12] [--page-size 4k]
//!                   [--batch-max 4] [--no-coalesce true] [--issue-shards S]
//!                   [--trace-events PATH] [--json true]
//! memifctl replay   --from PATH [--FLAG VALUE restating the trace header]
//! memifctl stream   [--kernel triad|add|pgain|all] [--placement memif|linux|both]
//!                   [--input-mib 64] [--overlap-depth K] [--threads M]
//!                   [--trace-events PATH]
//! memifctl timeline [--pages 16] [--count 2]
//! ```

mod args;

use args::Args;
use memif::{Context, Memif, MemifConfig, MoveSpec, NodeId, PageSize, RecoveryReport, Sim, System};
use memif_baseline::{run_migspeed, MigspeedConfig};
use memif_bench::{
    crash_migrate_nvm, stream, CrashOutcome, CrashRun, StreamSpec, Table, TenantReport,
};
use memif_hwsim::{CostModel, Topology};
use memif_policy::{run_scenario, Mode, PolicyConfig, ScenarioConfig};
use memif_runtime::{KernelProfile, Placement, StreamConfig, StreamReport, StreamRuntime};
use memif_workloads::{stream_add, stream_triad, streamcluster_pgain, wordcount_like, ShapeKind};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => die(&e),
    };
    let result = match args.command.as_deref() {
        Some("topology") => topology(&args),
        Some("migspeed") => migspeed(&args),
        Some("move") => do_move(&args),
        Some("stats") => stats(&args),
        Some("policy") => policy(&args),
        Some("recover") => recover(&args),
        Some("replay") => replay(&args),
        Some("stream") => do_stream(&args),
        Some("timeline") => timeline(&args),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n{HELP}")),
    };
    if let Err(e) = result {
        die(&e);
    }
}

const HELP: &str = "\
memifctl — drive the simulated memif stack

commands:
  topology   show the pseudo-NUMA memory topology
  migspeed   Linux page-migration throughput (the numactl utility)
  move       stream memif move requests and report throughput/latency
  stats      run a move scenario and dump the full driver counter set
  policy     run the hot/cold placement daemon over a phased workload
  recover    crash a journaled DDR<->NVM run, recover, and re-drive it
  replay     re-run a recorded trace and verify it is bit-identical
  stream     run a Table 4 streaming workload on the mini runtime
  timeline   trace a short run across the driver's execution contexts
  help       this text

common flags: --profile keystone|xeon, --page-size 4k|64k|2m

chaos mode (move): install a deterministic fault plan and watch the
hardened driver absorb it, e.g.
  memifctl move --fault-seed 7 --dma-error-rate 1e-3 --drop-rate 1e-4
flags: --fault-seed N, --dma-error-rate R, --drop-rate R, --delay-rate R,
--desc-exhaust-rate R, --max-retries N (default 3), --no-fallback true
(fail requests instead of degrading to the CPU copy).

multi-channel DMA (move): --tc-count N models N independent transfer-
controller bandwidth channels (default 1, the paper's configuration);
launches are routed to the least-loaded channel.

request batching (move/stats): --batch-max N lets the kernel thread
drain up to N compatible queued requests into one chained SG launch
with a single completion interrupt (default 1 = classic per-request
issue). Batched runs also coalesce physically contiguous segments into
one descriptor; --no-coalesce true keeps one descriptor per page.
`memifctl stats --batch-max 16` shows the issue-side savings; a
batch's completion fan-out wakes the kernel worker once per instant
(timer_rearm_saved in `memifctl stats --json` counts the wakes saved).

pipelined streaming (stream): --overlap-depth K splits every prefetch
buffer into K independently filled sub-units (K refills in flight per
buffer), so a unit is consumable after 1/K of the buffer's bytes and a
slow-path fallback wastes only 1/K of the in-flight DMA. K must divide
the 64-page buffer; depth 1 is the classic §6.6 one-fill-per-buffer
mode. Deep runs (K > 2) pair the finer units with paired issue
batching. --threads M appends a real-thread
stress section: M OS producer threads drive the same lock-free
red-blue submission protocol through the memif-rt futures front-end
and report kick/syscall-free counts. --trace-events records a
single-kernel, single-placement run for `memifctl replay`:
  memifctl stream --kernel triad --placement memif --overlap-depth 4
  memifctl stream --threads 8

sharded issue path (move/stats): --issue-shards S (default 1) splits
the staging/submission queue pair and the kernel worker into S shards,
each worker modelling its own CPU. Submissions are routed by the
covering VMA's base address, so same-region requests keep their FIFO
order on one shard while disjoint tenants issue in parallel; a
device-wide in-flight index still serializes the rare cross-shard
overlap (`cross_shard_deferred` in `memifctl stats`).

placement policy (policy): a kernel-style daemon samples PTE accessed
bits each --epoch-us, tracks exponentially-decayed per-region heat, and
repairs placement with demote-before-promote moves capped by
--max-inflight, all under the fast node's capacity watermark. --mode
selects how its moves execute: `async` (default) rides the blue
background queue while the app keeps computing; `sync` parks the app
whenever a move is outstanding (the mbind-style comparator); `none`
disables moves entirely. The phased workload is shaped by --regions,
--pages, --phases, --hot, --carry, --ticks, and --seed; chaos flags
apply as in move. `cargo run -p memif-bench --bin claims -- e14`
compares all three.

ranked tiers (policy): --tiers N (default 2) sizes the machine. 2 runs
the classic KeyStone II fast/slow pair; 3 or 4 run the ranked ladder
SRAM > DRAM > NVM > compressed zram, where the daemon plays the
*waterfall*: hot regions climb one rank, cold regions sink one rank,
and frozen regions plunge to the compressed floor via chained
multi-hop moves (compress/decompress work is costed). --warm N adds a
warm halo to each phase (touched at quarter intensity every tick) so
the middle tiers have something to earn, and --policy-tiers M (default
0 = all) restricts the daemon to the top M-1 ranks plus the pool's
home tier — the classic 2-tier comparator on a tall machine. Per-tier
occupancy lands in `policy --json` under the stable `tiers` array.
Quickstart:
  memifctl policy --tiers 4 --warm 12 --regions 32 --json true
`cargo run --release -p memif-bench --bin claims -- e16` compares the
regimes.

crash recovery (recover): runs a journaled migration stream that
ping-pongs between DDR and the persistent NVM node, optionally halting
the world at its K-th crash opportunity (--crash-at K), then reboots
via the write-ahead move journal and re-drives every request to
exactly one terminal status. An opportunity is the end of any
dispatched event, a chained batch's completion between its leader's
copy and its members', or a retrieval before its acknowledgement is
durable. --crash-at 0 (the default) runs the uncrashed reference and
prints its opportunity count N; every K in 1..=N crashes it. The
default run's 25th opportunity lies inside a chain's completion:
  memifctl recover
  memifctl recover --crash-at 25
The journal keeps a record only while its move is in flight or its
completion is not yet acknowledged: a retrieval is acknowledged by the
next journal write, and recovery re-reports every request whose
acknowledgement was not durable. The app retrieves completions once
the run quiesces, so the run's last opportunities are its retrievals:
  memifctl recover --crash-at 45
journal_records counts every record appended, dropped ones included;
opportunities counts the whole run, crash and re-drive included.
The journal counters also appear in `memifctl stats --json` under the
stable keys journal_records, recovered_requests, rolled_back, and
redriven.

machine-readable stats (stats/policy/recover): --json true prints the
run's counters as a single stable-key JSON object instead of a table,
for scripting and CI assertions. stats and policy objects also carry a
`tiers` array — one {rank, kind, used_bytes, capacity_bytes, moves_in,
moves_out} object per memory tier, rank 0 fastest.

event traces (move/policy/recover/stream): --trace-events <path>
records the run's typed event log as JSON lines (one `#!` header, one
`#=` terminal-status line per request). The header lists every flag
the scenario read as key=value, defaults included. `memifctl replay
--from <path>` re-runs the scenario from the header and verifies every
event and terminal status byte-for-byte:
  memifctl move --fault-seed 7 --dma-error-rate 1e-3 --trace-events t.jsonl
  memifctl replay --from t.jsonl
Any other replay flag must restate a recorded value (--issue-shards 1
on a 1-shard trace); one that differs conflicts with the trace and
nothing runs. Policy traces replay the same way, including the
daemon's epoch hooks and every policy move's terminal status. Recover
traces span the crash, the reboot ('recover' record), and the
post-crash re-drive, and must also replay byte-for-byte.

A flag the command does not read is an error (exit 2). Run
`memifctl <command>` with defaults to see each report.
";

fn die(msg: &str) -> ! {
    eprintln!("memifctl: {msg}");
    std::process::exit(2);
}

fn cost_profile(args: &Args) -> Result<CostModel, String> {
    match args.get_or("profile", "keystone".to_owned())?.as_str() {
        "keystone" => Ok(CostModel::keystone_ii()),
        "xeon" => Ok(CostModel::xeon_e5()),
        other => Err(format!(
            "--profile: unknown profile '{other}' (keystone|xeon)"
        )),
    }
}

fn topology(args: &Args) -> Result<(), String> {
    let cost = cost_profile(args)?;
    let mut topo = Topology::keystone_ii();
    let mut table = Table::new(
        format!("memory topology (profile: {})", cost.name),
        &[
            "node",
            "name",
            "kind",
            "base",
            "size",
            "bandwidth",
            "boot-visible",
        ],
    );
    let booted = args.get_or("booted", true)?;
    args.reject_unknown()?;
    if booted {
        topo.complete_boot();
    }
    for n in topo.all_nodes() {
        let online = topo.node(n.id).is_some();
        table.row(&[
            format!("{}{}", n.id, if online { "" } else { " (offline)" }),
            n.name.clone(),
            format!("{:?}", n.kind),
            format!("{:#x}", n.base.as_u64()),
            format!("{} MiB", n.bytes >> 20),
            format!("{:.1} GB/s", n.bandwidth_gbps),
            n.boot_visible.to_string(),
        ]);
    }
    table.print();
    println!(
        "cpus: {}   dma: EDMA3-class, {:.1} GB/s m2m, 512 descriptors",
        topo.cpu_count(),
        cost.dma_engine_bw_gbps
    );
    Ok(())
}

fn migspeed(args: &Args) -> Result<(), String> {
    let cost = cost_profile(args)?;
    let mut topo = Topology::keystone_ii();
    topo.complete_boot();
    let config = MigspeedConfig {
        pages_per_syscall: args.get_or("pages", 1_500u32)?,
        batches: args.get_or("batches", 1u32)?,
        page_size: args.page_size(PageSize::Small4K)?,
        from: NodeId(args.get_or("from", 0u16)?),
        to: NodeId(args.get_or("to", 1u16)?),
    };
    args.reject_unknown()?;
    let r = run_migspeed(&topo, &cost, config);
    println!(
        "migrated {} pages ({} MiB) in {}: {:.3} GB/s, {:.1} us/page",
        r.pages,
        r.bytes >> 20,
        r.elapsed,
        r.throughput_gbps,
        r.per_page_us
    );
    println!(
        "({}% of the slow node's {:.1} GB/s)",
        (r.throughput_gbps / cost.slow_bw_gbps * 100.0).round(),
        cost.slow_bw_gbps
    );
    Ok(())
}

/// The chaos flags `move` and `policy` share: a fault plan, or `None`
/// when every rate is zero.
fn fault_plan(args: &Args) -> Result<Option<memif::FaultPlan>, String> {
    let plan = memif::FaultPlan {
        seed: args.get_or("fault-seed", 0u64)?,
        dma_error_rate: args.get_or("dma-error-rate", 0.0f64)?,
        drop_rate: args.get_or("drop-rate", 0.0f64)?,
        delay_rate: args.get_or("delay-rate", 0.0f64)?,
        desc_exhaust_rate: args.get_or("desc-exhaust-rate", 0.0f64)?,
        ..memif::FaultPlan::default()
    };
    Ok((!plan.is_noop()).then_some(plan))
}

/// The issue-path flags `move` and `recover` share, over a default
/// device configuration.
fn issue_config(args: &Args, default_batch_max: usize) -> Result<MemifConfig, String> {
    let batch_max = args.get_or("batch-max", default_batch_max)?;
    // Coalescing rides batching: a batched run merges physically
    // contiguous segments unless --no-coalesce true; batch-max 1 keeps
    // the classic one-descriptor-per-page path.
    let no_coalesce = args.get_or("no-coalesce", false)?;
    let issue_shards = args.get_or("issue-shards", 1usize)?;
    if issue_shards == 0 || issue_shards > 64 {
        return Err(format!(
            "--issue-shards: {issue_shards} out of range (1..=64)"
        ));
    }
    Ok(MemifConfig {
        batch_max,
        coalesce: batch_max > 1 && !no_coalesce,
        issue_shards,
        ..MemifConfig::default()
    })
}

/// Resolves a `move`/`stats` command line (or a replayed `#! move`
/// header) into the streaming run it names.
fn move_scenario(args: &Args) -> Result<StreamSpec, String> {
    let mut cost = cost_profile(args)?;
    cost.dma_tc_count = args.get_or("tc-count", cost.dma_tc_count)?;
    let kind = match args.get_or("kind", "migrate".to_owned())?.as_str() {
        "migrate" => ShapeKind::Migrate,
        "replicate" => ShapeKind::Replicate,
        other => return Err(format!("--kind: unknown kind '{other}'")),
    };
    let issue = issue_config(args, 1)?;
    // Multi-tenant shape: --tenants N tags requests round-robin across
    // N tenants (ids 1..=N); --tenant-weights a,b,... sets their DRR
    // weights (default: all 1); --qos turns weighted-fair scheduling +
    // admission on (default: on exactly when more than one tenant).
    let tenant_count = args.get_or("tenants", 1usize)?;
    if tenant_count == 0 || tenant_count > 4096 {
        return Err(format!("--tenants: {tenant_count} out of range (1..=4096)"));
    }
    let weights_raw = args.get_or("tenant-weights", String::new())?;
    let weights: Vec<u32> = if weights_raw.is_empty() {
        vec![1; tenant_count]
    } else {
        weights_raw
            .split(',')
            .map(|w| {
                w.parse::<u32>().ok().filter(|w| *w >= 1).ok_or_else(|| {
                    format!("--tenant-weights: bad weight '{w}' (need integers >= 1)")
                })
            })
            .collect::<Result<_, _>>()?
    };
    if weights.len() != tenant_count {
        return Err(format!(
            "--tenant-weights: {} weights for {tenant_count} tenants",
            weights.len()
        ));
    }
    let tenants: Vec<(u16, u32)> = if tenant_count == 1 && weights_raw.is_empty() {
        Vec::new() // classic single-tenant run, byte-identical
    } else {
        (0..tenant_count)
            .map(|i| (1 + i as u16, weights[i]))
            .collect()
    };
    let qos = args.get_or("qos", !tenants.is_empty())?;
    let config = MemifConfig {
        descriptor_reuse: !args.get_or("no-reuse", false)?,
        gang_lookup: !args.get_or("no-gang", false)?,
        pipeline_depth: args.get_or("depth", 2usize)?,
        max_dma_retries: args.get_or("max-retries", 3u32)?,
        cpu_fallback: !args.get_or("no-fallback", false)?,
        qos,
        ..issue
    };
    let s = StreamSpec {
        cost,
        config,
        kind,
        page_size: args.page_size(PageSize::Small4K)?,
        pages: args.get_or("pages", 16u32)?,
        count: args.get_or("count", 64usize)?,
        window: args.get_or("window", 8usize)?,
        faults: fault_plan(args)?,
        tenants,
        ..StreamSpec::default()
    };
    // Zeroes here would panic deep in the harness; catching them keeps
    // a corrupt or hand-edited trace header a clean error (replay
    // rebuilds its scenario through this same path).
    for (flag, value) in [
        ("pages", u64::from(s.pages)),
        ("count", s.count as u64),
        ("window", s.window as u64),
    ] {
        if value == 0 {
            return Err(format!("--{flag}: must be at least 1"));
        }
    }
    Ok(s)
}

/// Writes a `--trace-events` file: the `#!` header, one JSON line per
/// event, and one `#=` terminal-status line per request.
fn write_trace(
    path: &str,
    header: &str,
    events: &[String],
    statuses: &[(u64, String)],
) -> Result<(), String> {
    let mut out = String::new();
    out.push_str(header);
    out.push('\n');
    for line in events {
        out.push_str(line);
        out.push('\n');
    }
    for (req, status) in statuses {
        out.push_str(&format!("#= {req} {status}\n"));
    }
    std::fs::write(path, out).map_err(|e| format!("--trace-events: {path}: {e}"))?;
    println!(
        "trace: {} events + {} terminal statuses -> {path}",
        events.len(),
        statuses.len()
    );
    Ok(())
}

fn do_move(args: &Args) -> Result<(), String> {
    let s = move_scenario(args)?;
    let header = args.header();
    let trace = args.get("trace-events");
    args.reject_unknown()?;
    let chaos = s.faults.is_some();
    let batch_max = s.config.batch_max;
    let (kind, pages, count) = (s.kind, s.pages, s.count);
    let page_size = s.page_size;

    let r = stream(StreamSpec {
        log_events: trace.is_some(),
        ..s
    });
    if let Some(path) = trace {
        write_trace(path, &header, &r.events, &r.statuses)?;
    }
    println!(
        "{count} x {pages} {page_size} pages ({:?}): {:.3} GB/s, mean completion {:.1} us",
        kind,
        r.throughput_gbps,
        r.mean_latency_us()
    );
    let st = &r.stats;
    println!(
        "syscalls: {}   interrupts: {}   polled: {}   cpu: {:.2} cores",
        st.ioctls, st.interrupts, st.polled, r.cpu_usage
    );
    if chaos {
        println!(
            "chaos: retries: {}   timeouts: {}   dma-errors: {}   fallbacks: {}   failed: {}",
            st.retries, st.timeouts, st.dma_errors, st.fallbacks, st.failed
        );
    }
    if batch_max > 1 {
        println!(
            "batching: batched: {}   coalesced: {}   descriptors: {}   writes saved: {}",
            st.requests_batched,
            st.segments_coalesced,
            st.descriptors_written,
            st.descriptor_writes_saved
        );
    }
    Ok(())
}

/// Renders `(key, value)` counter pairs, then `(key, elements)` named
/// arrays of already-rendered JSON values, as one stable-order JSON
/// object — the `--json true` output contract for scripts and CI.
fn json_object(rows: &[(&str, u64)], arrays: &[(&str, Vec<String>)]) -> String {
    let mut fields: Vec<String> = rows.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    fields.extend(
        arrays
            .iter()
            .map(|(k, a)| format!("\"{k}\":[{}]", a.join(","))),
    );
    format!("{{{}}}", fields.join(","))
}

/// The stable-key per-tier occupancy objects of `stats` and `policy`
/// JSON output: `{rank, kind, used_bytes, capacity_bytes, moves_in,
/// moves_out}`, rank 0 fastest.
fn json_tiers(tiers: &[memif::TierUsage]) -> Vec<String> {
    tiers
        .iter()
        .map(|t| {
            format!(
                "{{\"rank\":{},\"kind\":\"{}\",\"used_bytes\":{},\"capacity_bytes\":{},\
                 \"moves_in\":{},\"moves_out\":{}}}",
                t.rank, t.kind, t.used_bytes, t.capacity_bytes, t.moves_in, t.moves_out
            )
        })
        .collect()
}

/// The stable-key per-tenant accounting objects of `stats --json`:
/// `{id, weight, inflight, parked, total_parked, retired, bytes_moved,
/// p50_ns, p99_ns}`, ascending by tenant id.
fn json_tenants(tenants: &[TenantReport]) -> Vec<String> {
    tenants
        .iter()
        .map(|t| {
            format!(
                "{{\"id\":{},\"weight\":{},\"inflight\":{},\"parked\":{},\"total_parked\":{},\
                 \"retired\":{},\"bytes_moved\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                t.id,
                t.weight,
                t.stats.inflight,
                t.stats.parked,
                t.stats.total_parked,
                t.stats.retired,
                t.stats.bytes_moved,
                t.p50_ns,
                t.p99_ns,
            )
        })
        .collect()
}

/// The human-readable per-tenant accounting lines for `stats` table
/// output (skipped for single-tenant runs).
fn print_tenants(tenants: &[TenantReport]) {
    for t in tenants {
        println!(
            "tenant {} (weight {}): {} retired, {:.2} MiB moved, \
             {} parked, p50 {} ns, p99 {} ns",
            t.id,
            t.weight,
            t.stats.retired,
            t.stats.bytes_moved as f64 / (1 << 20) as f64,
            t.stats.total_parked,
            t.p50_ns,
            t.p99_ns,
        );
    }
}

/// The human-readable per-tier occupancy lines shared by `stats` and
/// `policy` table output.
fn print_tiers(tiers: &[memif::TierUsage]) {
    for t in tiers {
        println!(
            "tier {} ({}): {:.2} / {:.2} MiB used, {} moves in, {} moves out",
            t.rank,
            t.kind,
            t.used_bytes as f64 / (1 << 20) as f64,
            t.capacity_bytes as f64 / (1 << 20) as f64,
            t.moves_in,
            t.moves_out,
        );
    }
}

/// Runs a `move` scenario and dumps every [`memif::DriverStats`]
/// counter, including the batching/coalescing set, as a table (or as
/// one JSON object with `--json true`).
fn stats(args: &Args) -> Result<(), String> {
    let s = move_scenario(args)?;
    let json = args.get_or("json", false)?;
    args.reject_unknown()?;
    let title = format!(
        "driver stats: {} x {} {} pages ({:?}), batch-max {}{}",
        s.count,
        s.pages,
        s.page_size,
        s.kind,
        s.config.batch_max,
        if s.config.coalesce { " + coalesce" } else { "" },
    );
    let r = stream(s);
    let st = &r.stats;
    let issue_cpu = {
        use memif::Phase;
        st.phases.get(Phase::DmaConfig) + st.phases.get(Phase::Interface)
    };
    let rows: &[(&str, u64)] = &[
        ("submitted", st.submitted),
        ("completed", st.completed),
        ("failed", st.failed),
        ("ioctls", st.ioctls),
        ("interrupts", st.interrupts),
        ("polled", st.polled),
        ("kthread_wakeups", st.kthread_wakeups),
        ("timer_rearm_saved", st.timer_rearm_saved),
        ("races_detected", st.races_detected),
        ("aborts", st.aborts),
        ("timeouts", st.timeouts),
        ("dma_errors", st.dma_errors),
        ("retries", st.retries),
        ("fallbacks", st.fallbacks),
        ("bytes_moved", st.bytes_moved),
        ("requests_batched", st.requests_batched),
        ("segments_coalesced", st.segments_coalesced),
        ("descriptors_written", st.descriptors_written),
        ("descriptor_writes_saved", st.descriptor_writes_saved),
        ("requests_deferred", st.requests_deferred),
        ("cross_shard_deferred", st.cross_shard_deferred),
        ("requests_parked", st.requests_parked),
        ("requests_readmitted", st.requests_readmitted),
        ("journal_records", st.journal_records),
        ("recovered_requests", st.recovered_requests()),
        ("rolled_back", st.rolled_back),
        ("redriven", st.redriven),
        ("events_executed", r.events_executed),
        ("events_cancelled", r.events_cancelled),
        ("peak_pending", r.peak_pending as u64),
        ("log_bytes", r.log_bytes as u64),
        ("issue_cpu_ns", issue_cpu.as_ns()),
    ];
    if json {
        let arrays = [
            ("tiers", json_tiers(&r.tiers)),
            ("tenants", json_tenants(&r.tenant_stats)),
        ];
        println!("{}", json_object(rows, &arrays));
        return Ok(());
    }
    let mut table = Table::new(title, &["counter", "value"]);
    for (name, value) in &rows[..rows.len() - 1] {
        table.row(&[(*name).to_owned(), value.to_string()]);
    }
    table.print();
    println!("issue-side cpu (DmaConfig + Interface): {issue_cpu}");
    print_tiers(&r.tiers);
    print_tenants(&r.tenant_stats);
    Ok(())
}

/// Resolves a `policy` command line (or a replayed `#! policy` header)
/// into a cost profile plus a [`ScenarioConfig`].
fn policy_scenario(args: &Args) -> Result<(CostModel, ScenarioConfig), String> {
    let cost = cost_profile(args)?;
    let mode = args.get_or("mode", "async".to_owned())?;
    let mode = Mode::parse(&mode)
        .ok_or_else(|| format!("--mode: unknown mode '{mode}' (none|sync|async)"))?;
    let policy = PolicyConfig {
        epoch: memif::SimDuration::from_us(args.get_or("epoch-us", 1_000u64)?),
        max_inflight: args.get_or("max-inflight", 4usize)?,
        ..PolicyConfig::default()
    };
    let cfg = ScenarioConfig {
        mode,
        seed: args.get_or("seed", 42u64)?,
        regions: args.get_or("regions", 24usize)?,
        pages_per_region: args.get_or("pages", 64u32)?,
        page_size: args.page_size(PageSize::Small4K)?,
        phases: args.get_or("phases", 6usize)?,
        hot: args.get_or("hot", 8usize)?,
        carry: args.get_or("carry", 3usize)?,
        ticks_per_phase: args.get_or("ticks", 32u32)?,
        tiers: args.get_or("tiers", 2usize)?,
        policy_tiers: args.get_or("policy-tiers", 0usize)?,
        warm: args.get_or("warm", 0usize)?,
        policy,
        faults: fault_plan(args)?,
        ..ScenarioConfig::default()
    };
    for (flag, value) in [
        ("regions", cfg.regions as u64),
        ("pages", u64::from(cfg.pages_per_region)),
        ("phases", cfg.phases as u64),
        ("ticks", u64::from(cfg.ticks_per_phase)),
    ] {
        if value == 0 {
            return Err(format!("--{flag}: must be at least 1"));
        }
    }
    if !(2..=4).contains(&cfg.tiers) {
        return Err(format!("--tiers: {} out of range (2..=4)", cfg.tiers));
    }
    if cfg.policy_tiers > cfg.tiers {
        return Err(format!(
            "--policy-tiers: {} exceeds the machine's {} tiers",
            cfg.policy_tiers, cfg.tiers
        ));
    }
    if cfg.hot + cfg.warm > cfg.regions {
        return Err(format!(
            "--warm: hot ({}) + warm ({}) working sets exceed the region pool ({})",
            cfg.hot, cfg.warm, cfg.regions
        ));
    }
    Ok((cost, cfg))
}

/// Runs the hot/cold placement daemon over the phased hot-set workload
/// and reports the application + daemon outcome.
fn policy(args: &Args) -> Result<(), String> {
    let (cost, mut cfg) = policy_scenario(args)?;
    let header = args.header();
    let trace = args.get("trace-events");
    let json = args.get_or("json", false)?;
    args.reject_unknown()?;
    cfg.log_events = trace.is_some();
    let r = run_scenario(&cost, &cfg);
    if let Some(path) = trace {
        write_trace(path, &header, &r.events, &r.statuses)?;
    }

    let p = &r.policy;
    if json {
        println!(
            "{}",
            json_object(
                &[
                    ("wall_ns", r.wall.as_ns()),
                    ("ticks", r.ticks),
                    ("fast_ticks", r.fast_ticks),
                    ("slow_ticks", r.slow_ticks),
                    ("page_touches", r.page_touches),
                    ("epochs", p.epochs),
                    ("pages_scanned", p.pages_scanned),
                    ("pages_referenced", p.pages_referenced),
                    ("promotions", p.promotions),
                    ("demotions", p.demotions),
                    ("moves_ok", p.moves_ok),
                    ("moves_failed", p.moves_failed),
                    ("dropped", p.dropped),
                    ("cascades", p.cascades),
                    ("compress_busy_ns", r.compress_busy.as_ns()),
                    ("decompress_busy_ns", r.decompress_busy.as_ns()),
                    ("driver_submitted", r.driver.submitted),
                    ("driver_completed", r.driver.completed),
                    ("driver_failed", r.driver.failed),
                    ("driver_bytes_moved", r.driver.bytes_moved),
                ],
                &[("tiers", json_tiers(&r.tiers))],
            )
        );
        return Ok(());
    }
    println!(
        "{} mode: {} ticks ({} fast / {} slow) in {:.2} ms, cpu {:.2} cores",
        cfg.mode.as_str(),
        r.ticks,
        r.fast_ticks,
        r.slow_ticks,
        r.wall.as_ns() as f64 / 1e6,
        r.cpu_usage,
    );
    println!(
        "policy: {} epochs, {} pages scanned ({} referenced), {} promotions + {} demotions \
         ({} ok, {} failed, {} dropped at the watermark, {} cascade steps)",
        p.epochs,
        p.pages_scanned,
        p.pages_referenced,
        p.promotions,
        p.demotions,
        p.moves_ok,
        p.moves_failed,
        p.dropped,
        p.cascades,
    );
    println!(
        "driver: {} submitted, {} completed, {} failed, {} MiB moved",
        r.driver.submitted,
        r.driver.completed,
        r.driver.failed,
        r.driver.bytes_moved >> 20,
    );
    if r.compress_busy.as_ns() + r.decompress_busy.as_ns() > 0 {
        println!(
            "codec: {:.2} ms compressing, {:.2} ms decompressing",
            r.compress_busy.as_ns() as f64 / 1e6,
            r.decompress_busy.as_ns() as f64 / 1e6,
        );
    }
    print_tiers(&r.tiers);
    Ok(())
}

/// Everything a `recover` run (or its replay) needs: a journaled
/// DDR<->NVM migration stream plus an optional deterministic crash.
fn recover_scenario(args: &Args) -> Result<CrashRun, String> {
    let cost = cost_profile(args)?;
    let config = MemifConfig {
        journal: true,
        ..issue_config(args, 4)?
    };
    let crash_at = args.get_or("crash-at", 0u64)?;
    let s = CrashRun {
        cost,
        config,
        page_size: args.page_size(PageSize::Small4K)?,
        pages: args.get_or("pages", 8u32)?,
        count: args.get_or("count", 12usize)?,
        crash_at,
        ..CrashRun::default()
    };
    for (flag, value) in [
        ("pages", u64::from(s.pages)),
        ("count", s.count as u64),
        ("batch-max", s.config.batch_max as u64),
    ] {
        if value == 0 {
            return Err(format!("--{flag}: must be at least 1"));
        }
    }
    Ok(s)
}

/// A recover run's terminal statuses in the trace's `#=` spelling.
fn recover_statuses(r: &CrashOutcome) -> Vec<(u64, String)> {
    r.statuses
        .iter()
        .map(|(cookie, st)| (*cookie, format!("{st:?}")))
        .collect()
}

/// Crashes a journaled DDR<->NVM migration stream at a chosen crash
/// opportunity, reboots through the write-ahead move journal, and
/// re-drives the survivors — then reports how every request reached
/// exactly one terminal status.
fn recover(args: &Args) -> Result<(), String> {
    let s = recover_scenario(args)?;
    let header = args.header();
    let trace = args.get("trace-events");
    let json = args.get_or("json", false)?;
    args.reject_unknown()?;
    let r = crash_migrate_nvm(CrashRun {
        log_events: trace.is_some(),
        ..s.clone()
    });
    if let Some(path) = trace {
        write_trace(path, &header, &r.events, &recover_statuses(&r))?;
    }

    let rep = r.recovery.as_ref();
    if json {
        println!(
            "{}",
            json_object(
                &[
                    ("crashed", u64::from(r.crashed)),
                    ("opportunities", r.opportunities),
                    ("journal_records", r.journal_records),
                    (
                        "recovered_requests",
                        rep.map_or(0, RecoveryReport::recovered_requests)
                    ),
                    ("rolled_back", rep.map_or(0, |rep| rep.rolled_back)),
                    ("redriven", rep.map_or(0, |rep| rep.redriven)),
                    ("resubmitted", r.resubmitted as u64),
                    ("wall_ns", r.wall.as_ns()),
                ],
                &[],
            )
        );
        return Ok(());
    }

    println!(
        "{} x {} {} pages, DDR<->NVM ping-pong, journal on (batch-max {}{}, {} shard{})",
        s.count,
        s.pages,
        s.page_size,
        s.config.batch_max,
        if s.config.coalesce { " + coalesce" } else { "" },
        s.config.issue_shards,
        if s.config.issue_shards == 1 { "" } else { "s" },
    );
    match (s.crash_at, rep) {
        (0, _) => println!(
            "no crash requested: uncrashed reference run; --crash-at K crashes it at \
             opportunity K (1..={})",
            r.opportunities
        ),
        (k, Some(rep)) if r.crashed => {
            println!(
                "crash: fired at opportunity {k} — volatile state lost, {} of {} journal record{} \
                 not yet acknowledged",
                rep.statuses.len(),
                rep.journal_records,
                if rep.journal_records == 1 { "" } else { "s" },
            );
            println!(
                "recovery: {} in-flight at the crash ({} rolled back, {} rolled forward); \
                 app re-submitted {}",
                rep.recovered_requests(),
                rep.rolled_back,
                rep.redriven,
                r.resubmitted,
            );
        }
        (k, _) => println!(
            "crash: the run has {} opportunities, fewer than {k} — plan did not fire",
            r.opportunities
        ),
    }
    let done = r
        .statuses
        .iter()
        .filter(|(_, st)| *st == memif::MoveStatus::Done)
        .count();
    println!(
        "converged: {done}/{} requests Done exactly once, {} journal records appended, \
         all sealed, {:.1} us simulated",
        s.count,
        r.journal_records,
        r.wall.as_ns() as f64 / 1e3,
    );
    println!("opportunities: {}", r.opportunities);
    Ok(())
}

/// A run's event log and terminal statuses, as a trace records them.
type Trace = (Vec<String>, Vec<(u64, String)>);

/// A traceable scenario, resolved from a command line or a `#!` header.
enum Scenario {
    Move(StreamSpec),
    Policy(CostModel, ScenarioConfig),
    Recover(CrashRun),
    Stream(StreamScenario),
}

impl Scenario {
    fn resolve(args: &Args) -> Result<Scenario, String> {
        Ok(match args.command.as_deref().unwrap_or_default() {
            "move" => Scenario::Move(move_scenario(args)?),
            "policy" => {
                let (cost, cfg) = policy_scenario(args)?;
                Scenario::Policy(cost, cfg)
            }
            "recover" => Scenario::Recover(recover_scenario(args)?),
            "stream" => Scenario::Stream(stream_scenario(args)?),
            other => return Err(format!("cannot replay '{other}' traces")),
        })
    }

    /// Runs the scenario with the event log on: its events and its
    /// terminal statuses, as a trace records them.
    fn run_traced(self) -> Result<Trace, String> {
        Ok(match self {
            Scenario::Move(spec) => {
                let r = stream(StreamSpec {
                    log_events: true,
                    ..spec
                });
                (r.events, r.statuses)
            }
            Scenario::Policy(cost, cfg) => {
                let r = run_scenario(
                    &cost,
                    &ScenarioConfig {
                        log_events: true,
                        ..cfg
                    },
                );
                (r.events, r.statuses)
            }
            Scenario::Recover(s) => {
                let r = crash_migrate_nvm(CrashRun {
                    log_events: true,
                    ..s
                });
                let statuses = recover_statuses(&r);
                (r.events, statuses)
            }
            Scenario::Stream(s) => run_stream_once(&s, true)?.1,
        })
    }
}

/// Re-runs a `--trace-events` recording and verifies the new run is
/// byte-identical: same event log, same terminal status per request.
fn replay(args: &Args) -> Result<(), String> {
    let path = args.get("from").ok_or("replay needs --from <path>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("--from: {path}: {e}"))?;

    let mut header = None;
    let mut events = Vec::new();
    let mut statuses = Vec::new();
    for line in text.lines() {
        if let Some(h) = line.strip_prefix("#! ") {
            header = Some(h.to_owned());
        } else if let Some(s) = line.strip_prefix("#= ") {
            let (req, status) = s
                .split_once(' ')
                .ok_or_else(|| format!("malformed status line '{line}'"))?;
            let req: u64 = req
                .parse()
                .map_err(|_| format!("malformed request id in '{line}'"))?;
            statuses.push((req, status.to_owned()));
        } else if !line.is_empty() {
            events.push(line.to_owned());
        }
    }
    let header = header.ok_or("trace has no '#!' header line")?;
    let (cmd, flags) = header.split_once(' ').unwrap_or((header.as_str(), ""));
    let pairs: Vec<(String, String)> = flags
        .split_whitespace()
        .map(|kv| {
            kv.split_once('=')
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .ok_or_else(|| format!("malformed header token '{kv}'"))
        })
        .collect::<Result<_, _>>()?;
    // Flags besides --from override the header, and go through the
    // resolver with it.
    let overrides: Vec<(&str, &str)> = args
        .given()
        .into_iter()
        .filter(|(k, _)| *k != "from")
        .collect();
    let resolved = Args::from_pairs(
        cmd,
        pairs.iter().cloned().chain(
            overrides
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned())),
        ),
    );
    let scenario = Scenario::resolve(&resolved)?;
    // The one override check: each override must resolve to the value
    // the header records (`--page-size 4K` restates `page-size=4k`).
    // Any other value reshapes the run, which then can never match the
    // trace; say so up front instead of reporting a divergence at
    // record 0.
    let record = resolved.record();
    let find = |list: &[(String, String)], key: &str| {
        list.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    for (key, value) in overrides {
        let recorded = find(&pairs, key);
        if recorded.is_none() || recorded != find(&record, key) {
            let what = recorded.map_or_else(
                || format!("{key} is not recorded"),
                |v| format!("recorded with {key}={v}"),
            );
            return Err(format!(
                "--{key} {value} conflicts with the trace ({what}); replay re-runs the \
                 recorded configuration"
            ));
        }
    }
    let (replayed_events, replayed_statuses) = scenario.run_traced()?;
    if replayed_events != events {
        let n = replayed_events
            .iter()
            .zip(&events)
            .take_while(|(a, b)| a == b)
            .count();
        return Err(format!(
            "event log diverges at record {n}:\n  recorded: {}\n  replayed: {}",
            events.get(n).map_or("<end of log>", String::as_str),
            replayed_events
                .get(n)
                .map_or("<end of log>", String::as_str),
        ));
    }
    if replayed_statuses != statuses {
        return Err(format!(
            "terminal statuses diverge:\n  recorded: {statuses:?}\n  replayed: {replayed_statuses:?}"
        ));
    }
    println!(
        "replay OK: {} events and {} terminal statuses identical ({path})",
        events.len(),
        statuses.len()
    );
    Ok(())
}

/// One resolvable streaming run: a single kernel + placement pair over
/// a given input size and overlap depth (what a stream trace records
/// and replay rebuilds).
struct StreamScenario {
    kernel: KernelProfile,
    placement: Placement,
    total: u64,
    depth: usize,
}

fn stream_kernel(token: &str) -> Result<KernelProfile, String> {
    match token {
        "triad" => Ok(stream_triad()),
        "add" => Ok(stream_add()),
        "pgain" => Ok(streamcluster_pgain()),
        "wordcount" => Ok(wordcount_like()),
        other => Err(format!("--kernel: unknown kernel '{other}'")),
    }
}

fn stream_depth(args: &Args) -> Result<usize, String> {
    let depth = args.get_or("overlap-depth", 1usize)?;
    let buffer_pages = StreamConfig::default().buffer_pages as usize;
    if depth == 0 || !buffer_pages.is_multiple_of(depth) {
        return Err(format!(
            "--overlap-depth: {depth} must divide the {buffer_pages}-page prefetch buffer \
             (1|2|4|8|16|32|64)"
        ));
    }
    Ok(depth)
}

/// The device configuration `--overlap-depth K` implies: runs deeper
/// than 2 batch their fills in sub-chunk *pairs*. Batching a whole
/// buffer's complement of units would complete them as one flow and
/// cancel the readiness stagger the depth is for.
fn stream_device_config(depth: usize) -> MemifConfig {
    MemifConfig {
        batch_max: if depth > 2 { 2 } else { 1 },
        ..MemifConfig::default()
    }
}

/// Resolves a traced stream run (or a replayed `#! stream` header):
/// tracing needs a single kernel and a single placement, so `all` and
/// `both` are rejected here.
fn stream_scenario(args: &Args) -> Result<StreamScenario, String> {
    let kernel_token = args.get_or("kernel", "all".to_owned())?;
    if kernel_token == "all" {
        return Err(
            "--trace-events needs a single --kernel (triad|add|pgain|wordcount)".to_owned(),
        );
    }
    let placement_token = args.get_or("placement", "both".to_owned())?;
    if placement_token == "both" {
        return Err("--trace-events needs a single --placement (memif|linux)".to_owned());
    }
    let placement = match placement_token.as_str() {
        "linux" => Placement::SlowOnly,
        "memif" => Placement::MemifPrefetch,
        other => return Err(format!("--placement: unknown placement '{other}'")),
    };
    Ok(StreamScenario {
        kernel: stream_kernel(&kernel_token)?,
        placement,
        total: args.get_or("input-mib", 64u64)? << 20,
        depth: stream_depth(args)?,
    })
}

/// One streaming run. Returns the report plus the typed event log (empty
/// unless `log_events`) and the fill completions in retirement order —
/// the trace's `#=` lines.
fn run_stream_once(s: &StreamScenario, log_events: bool) -> Result<(StreamReport, Trace), String> {
    let mut sys = System::keystone_ii();
    if log_events {
        sys.enable_event_log();
    }
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = match s.placement {
        Placement::MemifPrefetch => Some(
            Memif::open(&mut sys, space, stream_device_config(s.depth))
                .map_err(|e| e.to_string())?,
        ),
        Placement::SlowOnly => None,
    };
    let config = StreamConfig {
        placement: s.placement,
        total_input: s.total,
        overlap_depth: s.depth,
        ..StreamConfig::default()
    };
    let rt = StreamRuntime::launch(&mut sys, &mut sim, space, memif, config, s.kernel.clone());
    sim.run(&mut sys);
    let events = if log_events {
        sys.take_event_log()
    } else {
        Vec::new()
    };
    Ok((rt.report(), (events, rt.completions())))
}

/// `--threads M`: M real producer threads drive a deterministic
/// valid/invalid move schedule through the memif-rt futures front-end —
/// the §4.4 red-blue protocol under genuine preemptive contention, with
/// the kick/syscall-free split counted rather than assumed.
fn stream_rt_stress(threads: u64) {
    use memif_rt::{MemBackend, MoveDesc, Rt};
    const PAGE_SHIFT: u8 = 12;
    const PAGE: u64 = 1 << PAGE_SHIFT;
    const PER_THREAD: u64 = 256;

    let total = threads * PER_THREAD;
    let rt = Rt::new();
    let backend = MemBackend::new();
    backend.register(0, total * PAGE);
    let dev = rt.open(16, backend);
    let (mut done, mut invalid) = (0u64, 0u64);
    std::thread::scope(|sc| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let dev = dev.clone();
            handles.push(sc.spawn(move || {
                let (mut done, mut invalid) = (0u64, 0u64);
                for i in 0..PER_THREAD {
                    let cookie = t * PER_THREAD + i;
                    // Every fifth move targets an unregistered range and
                    // must complete Invalid, never panic or get lost.
                    let src = if cookie % 5 == 4 {
                        0x7F00_0000_0000 + cookie * PAGE
                    } else {
                        cookie * PAGE
                    };
                    let c = dev.move_blocking(
                        MoveDesc::migrate(src, 1, PAGE_SHIFT).with_user_data(cookie),
                    );
                    match c.status.is_failure() {
                        false => done += 1,
                        true => invalid += 1,
                    }
                }
                (done, invalid)
            }));
        }
        for h in handles {
            let (d, i) = h.join().expect("producer thread");
            done += d;
            invalid += i;
        }
    });
    let st = dev.stats();
    println!(
        "rt stress: {threads} thread{} x {PER_THREAD} moves: {done} Done + {invalid} Invalid \
         ({} submitted, {} completed), {} kick syscalls, {} syscall-free submissions",
        if threads == 1 { "" } else { "s" },
        st.submitted,
        st.completed,
        st.kicks,
        st.syscall_free,
    );
}

fn do_stream(args: &Args) -> Result<(), String> {
    let trace = args.get("trace-events");
    let (runs, header) = if trace.is_some() {
        (vec![stream_scenario(args)?], args.header())
    } else {
        let depth = stream_depth(args)?;
        let kernels = match args.get("kernel") {
            None | Some("all") => vec![streamcluster_pgain(), stream_triad(), stream_add()],
            Some(token) => vec![stream_kernel(token)?],
        };
        let placements = match args.get("placement") {
            None | Some("both") => vec![Placement::SlowOnly, Placement::MemifPrefetch],
            Some("linux") => vec![Placement::SlowOnly],
            Some("memif") => vec![Placement::MemifPrefetch],
            Some(other) => return Err(format!("--placement: unknown placement '{other}'")),
        };
        let total = args.get_or("input-mib", 64u64)? << 20;
        let runs = kernels
            .iter()
            .flat_map(|kernel| {
                placements.iter().map(|&placement| StreamScenario {
                    kernel: kernel.clone(),
                    placement,
                    total,
                    depth,
                })
            })
            .collect();
        (runs, String::new())
    };
    let threads = args.get_or("threads", 0u64)?;
    args.reject_unknown()?;

    let depth = runs[0].depth;
    let mut table = Table::new(
        if depth > 1 {
            format!("streaming throughput (MB/s), overlap depth {depth}")
        } else {
            "streaming throughput (MB/s)".to_owned()
        },
        &["kernel", "placement", "MB/s", "fallback%", "fills"],
    );
    for s in &runs {
        let (r, (events, statuses)) = run_stream_once(s, trace.is_some())?;
        if let Some(path) = trace {
            write_trace(path, &header, &events, &statuses)?;
        }
        table.row(&[
            s.kernel.name.clone(),
            format!("{:?}", s.placement),
            format!("{:.1}", r.traffic_gbps * 1000.0),
            format!(
                "{:.0}%",
                r.fallback_bytes as f64 / r.input_bytes.max(1) as f64 * 100.0
            ),
            r.fills.to_string(),
        ]);
    }
    table.print();
    if threads > 0 {
        stream_rt_stress(threads);
    }
    Ok(())
}

fn timeline(args: &Args) -> Result<(), String> {
    let pages = args.get_or("pages", 16u32)?;
    let count = args.get_or("count", 2usize)?;
    let page_size = args.page_size(PageSize::Small4K)?;
    args.reject_unknown()?;

    let mut sys = System::keystone_ii();
    sys.enable_tracing();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, MemifConfig::default()).map_err(|e| e.to_string())?;
    for _ in 0..count {
        let va = sys
            .mmap(space, pages, page_size, NodeId(0))
            .map_err(|e| e.to_string())?;
        memif
            .submit(
                &mut sys,
                &mut sim,
                MoveSpec::migrate(va, pages, page_size, NodeId(1)),
            )
            .map_err(|e| e.to_string())?;
    }
    sim.run(&mut sys);
    while memif
        .retrieve_completed(&mut sys)
        .map_err(|e| e.to_string())?
        .is_some()
    {}

    println!("driver timeline: {count} x {pages} {page_size} migrations\n");
    for e in sys.trace() {
        let ctx = match e.ctx {
            Context::Syscall => "syscall",
            Context::Interrupt => "irq",
            Context::KernelThread => "kthread",
            Context::DmaEngine => "dma",
            Context::App => "app",
        };
        println!(
            "  {:>9.1} us  +{:<9} {:>8}  {:<54} {}",
            e.at.as_ns() as f64 / 1e3,
            format!("{}", e.duration),
            ctx,
            e.label,
            e.req.map(|r| format!("req {r}")).unwrap_or_default()
        );
    }
    Ok(())
}
