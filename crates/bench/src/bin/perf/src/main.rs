//! `perf`: the end-to-end and per-layer benchmark of the memif
//! reproduction, on both of its clocks.
//!
//! ```text
//! perf --workload <name|all> --seconds S [--seed N] [--trace 0|1] [--repeat N]
//! ```
//!
//! One workload runs rounds — a fresh set-up, then the measured phase —
//! until `--seconds` have passed; the run length has no default, so
//! every measurement states it. A host time reports its fastest round,
//! set-up time and ratios their median round; simulated values repeat
//! exactly in every round, which is checked.
//! It prints `name value unit` per metric and, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; it
//! exits non-zero if any correctness check failed. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! rounds and reports the per-layer metrics. `--workload all` runs each
//! workload in its own child process, so peak RSS belongs to one
//! workload. `--repeat N` runs N children per workload on seeds
//! `seed..seed+N`, alternating workloads, prints each metric's median
//! and quartiles on stderr and the same as a JSON ledger on stdout.
//! See README.md for the workloads, the metrics and how to read them.

mod json;
mod metrics;
mod probes;
mod rng;
mod rtpipe;
mod stream;
mod tier;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use memif::{MemifConfig, RaceMode};

use json::Json;
use metrics::{median, quartiles, END_TO_END, LAYER_VALUES, RT_END_TO_END, SPANS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mig4kWide,
    Nvm16Journal,
    Tier4Policy,
    QosBully,
    RtPipeline,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Mig4kWide,
        Workload::Nvm16Journal,
        Workload::Tier4Policy,
        Workload::QosBully,
        Workload::RtPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mig4kWide => "mig4k_wide",
            Workload::Nvm16Journal => "nvm16_journal",
            Workload::Tier4Policy => "tier4_policy",
            Workload::QosBully => "qos_bully",
            Workload::RtPipeline => "rt_pipeline",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One round at `scale` times the full size.
    pub fn round(self, seed: u64, scale: f64, traced: bool) -> Round {
        match self {
            Workload::Mig4kWide => stream::Stream::mig4k_wide(scale).round(seed, traced),
            Workload::Nvm16Journal => stream::Stream::nvm16_journal(scale).round(seed, traced),
            Workload::Tier4Policy => tier::Tier::new(scale).round(seed, traced),
            Workload::QosBully => stream::Stream::qos_bully(scale).round(seed, traced),
            Workload::RtPipeline => rtpipe::RtPipeline::new(scale).round(seed, traced),
        }
    }
}

/// Every memif device configuration the benchmark opens.
pub fn memif_config(w: Workload) -> MemifConfig {
    match w {
        Workload::Mig4kWide => MemifConfig::default(),
        Workload::Nvm16Journal => MemifConfig {
            journal: true,
            batch_max: 16,
            coalesce: true,
            ..MemifConfig::default()
        },
        // The daemon's device: racing application writes abort a move
        // instead of failing it, and policy batches drain on two workers.
        Workload::Tier4Policy => MemifConfig {
            race_mode: RaceMode::DetectRecover,
            batch_max: 4,
            coalesce: true,
            issue_shards: 2,
            ..MemifConfig::default()
        },
        Workload::QosBully => MemifConfig {
            qos: true,
            ..MemifConfig::default()
        },
        Workload::RtPipeline => unreachable!("rt_pipeline opens no simulated device"),
    }
}

/// `n` scaled by `scale`, at least 1.
pub fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// One round of a workload: a fresh set-up followed by the measured phase.
#[derive(Debug)]
pub struct Round {
    /// Host seconds spent building the machine and the inputs.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Moves attempted, and moves that did not end `Done`.
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end values after `setup_s`, `host_s` and
    /// `peak_rss_mib`, in catalogue order: [`metrics::END_TO_END`] for a
    /// simulated workload, [`metrics::RT_END_TO_END`] otherwise.
    pub clock: Vec<f64>,
    /// Whether `clock` and `counters` are simulated, and so must repeat
    /// exactly for one seed.
    pub simulated: bool,
    /// Per-layer values that involve no host timing.
    pub counters: Vec<(&'static str, f64)>,
    /// Correctness checks that failed.
    pub problems: Vec<String>,
}

/// The outcome of one workload at one seed.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub problems: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out + "}}"
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs workload `w` at `seed` for `seconds` (at least one round; with
/// `traced`, at least one untraced and one traced round) and assembles
/// the end-to-end metrics, or with `traced` the per-layer ones.
pub fn measure(w: Workload, seed: u64, seconds: f64, traced: bool, scale: f64) -> Report {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    // Read after the first round: later rounds raise the high-water mark
    // through allocator fragmentation, by how many of them fit.
    let mut peak_rss = None;
    trace::take();
    loop {
        plain.push(w.round(seed, scale, false));
        peak_rss.get_or_insert_with(peak_rss_mib);
        if traced {
            trace::set_enabled(true);
            spanned.push(w.round(seed, scale, true));
            trace::set_enabled(false);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let spans = trace::take();

    let mut problems: Vec<String> = Vec::new();
    let first = &plain[0];
    for r in plain.iter().chain(&spanned) {
        problems.extend(r.problems.iter().cloned());
        if first.simulated && (r.clock != first.clock || r.counters != first.counters) {
            problems.push("simulated results differ between rounds of one seed".to_owned());
        }
    }
    problems.dedup();
    let rounds = plain.iter().chain(&spanned);
    let attempted = rounds.clone().map(|r| r.attempted).sum();
    let failed = rounds.map(|r| r.failed).sum();

    // Other load on the host only ever adds time, so a host time takes
    // its fastest round; set-up time and ratios take the median round.
    // Simulated values are identical in every round.
    let fastest = |rounds: &[Round], f: &dyn Fn(&Round) -> f64| {
        rounds.iter().map(f).fold(f64::INFINITY, f64::min)
    };
    let middle = |rounds: &[Round], f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let host_s = fastest(&plain, &|r| r.host_s);
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if traced {
        let rounds = spanned.len() as f64;
        for s in SPANS {
            let (ns, n) = spans.get(s).copied().unwrap_or_default();
            let mean = if n == 0 { 0.0 } else { ns as f64 / n as f64 };
            metrics.push((format!("{s}.ns"), mean, "ns"));
            metrics.push((format!("{s}.n"), n as f64 / rounds, "count"));
        }
        let last = spanned.last().expect("at least one traced round");
        let mut values: BTreeMap<&str, f64> = last.counters.iter().copied().collect();
        if let Some(name) = values
            .keys()
            .find(|k| !LAYER_VALUES.iter().any(|(n, _)| n == *k))
        {
            problems.push(format!("counter {name} is not a declared metric"));
        }
        let events = values.get("sched.events").copied().unwrap_or(0.0);
        values.insert("sched.events_per_host_s", events / host_s);
        let traced_s = fastest(&spanned, &|r| r.host_s);
        values.insert("trace.overhead_pct", (traced_s / host_s - 1.0) * 100.0);
        values.extend(probes::run());
        for &(name, unit) in LAYER_VALUES {
            metrics.push((
                name.to_owned(),
                values.get(name).copied().unwrap_or(0.0),
                unit,
            ));
        }
        // The rt layer exists only under `rt_pipeline`.
        if first.simulated {
            metrics.retain(|(name, _, _)| !name.starts_with("rt."));
        }
    } else {
        let catalogue = if first.simulated {
            END_TO_END
        } else {
            RT_END_TO_END
        };
        let mut values = vec![
            middle(&plain, &|r| r.setup_s),
            host_s,
            peak_rss.unwrap_or_default(),
        ];
        for (i, &(_, unit)) in catalogue[3..].iter().enumerate() {
            let host_time = !first.simulated && unit != "cores";
            let pick = if host_time { fastest } else { middle };
            values.push(pick(&plain, &|r| r.clock[i]));
        }
        for (&(name, unit), value) in catalogue.iter().zip(values) {
            metrics.push((name.to_owned(), value, unit));
        }
    }
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            problems.push(format!("{name} is not a finite number"));
            *value = 0.0;
        }
    }
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    }
}

struct Args {
    /// `None` means every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
}

const USAGE: &str =
    "usage: perf --workload <name|all> --seconds S [--seed N] [--trace 0|1] [--repeat N]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        repeat: None,
    };
    let mut named = false;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = || format!("{flag}: cannot parse '{value}'");
        match flag.as_str() {
            "--workload" => {
                named = true;
                parsed.workload = match value.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!(
                            "--workload: unknown '{name}' (one of {}, all)",
                            names.join(", ")
                        )
                    })?),
                };
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=3600.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--repeat" => {
                parsed.repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|n| (1..=1000).contains(n))
                        .ok_or_else(bad)?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        Err("--workload is required".to_owned())
    } else if parsed.seconds.is_nan() {
        Err("--seconds is required".to_owned())
    } else {
        Ok(parsed)
    }
}

/// Runs one workload in a child `perf` process and returns its result
/// object; a run that failed its checks is an error.
fn child(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting perf: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
    if out.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true) {
        Ok(result)
    } else {
        Err(format!("{} seed {seed} failed its checks", w.name()))
    }
}

/// `(name, value, unit)` of every metric in a child's result object.
fn child_metrics(result: &Json) -> Vec<(&str, f64, &str)> {
    result
        .get("metrics")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            (
                name.as_str(),
                value,
                m.get("unit").and_then(Json::as_str).unwrap_or("?"),
            )
        })
        .collect()
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let report = measure(w, args.seed, args.seconds, args.trace, 1.0);
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    for p in &report.problems {
        eprintln!("perf: check failed: {p}");
    }
    println!("{}", report.json());
    exit_code(report.correct)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn modes(args: &Args) -> &'static [bool] {
    if args.trace {
        &[false, true]
    } else {
        &[false]
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        for &traced in modes(args) {
            match child(w, args.seed, args.seconds, traced) {
                Ok(result) => {
                    for (name, value, unit) in child_metrics(&result) {
                        println!("{} {name} {value} {unit}", w.name());
                    }
                }
                Err(e) => {
                    eprintln!("perf: {e}");
                    ok = false;
                }
            }
        }
    }
    exit_code(ok)
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn run_repeat(args: &Args, runs: u64) -> ExitCode {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // Per workload: metric name -> (unit, one value per run).
    let mut table: Vec<Vec<(String, String, Vec<f64>)>> = vec![Vec::new(); workloads.len()];
    let mut ok = true;
    for run in 0..runs {
        let seed = args.seed + run;
        for (wi, &w) in workloads.iter().enumerate() {
            for &traced in modes(args) {
                let result = match child(w, seed, args.seconds, traced) {
                    Ok(result) => result,
                    Err(e) => {
                        eprintln!("perf: {e}");
                        ok = false;
                        continue;
                    }
                };
                for (name, value, unit) in child_metrics(&result) {
                    let rows = &mut table[wi];
                    match rows.iter_mut().find(|(n, _, _)| n == name) {
                        Some(row) => row.2.push(value),
                        None => rows.push((name.to_owned(), unit.to_owned(), vec![value])),
                    }
                }
            }
        }
    }

    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"runs\": {runs},");
    let _ = writeln!(out, "  \"first_seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(
        out,
        "  \"host\": {{\"cpus\": {cpus}, \"cpu_model\": {}}},",
        json_string(&cpu_model)
    );
    out.push_str("  \"workloads\": {\n");
    for (wi, w) in workloads.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", w.name());
        for (mi, (name, unit, values)) in table[wi].iter().enumerate() {
            let med = median(values);
            let (q1, q3) = quartiles(values);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            eprintln!(
                "{:<14} {name:<28} median {med:<14.6} q1 {q1:<14.6} q3 {q3:<14.6} spread {spread:.4} {unit}",
                w.name()
            );
            let sep = if mi + 1 == table[wi].len() { "" } else { "," };
            let _ = writeln!(
                out,
                "      \"{name}\": {{\"unit\": \"{unit}\", \"median\": {med}, \"q1\": {q1}, \"q3\": {q3}}}{sep}"
            );
        }
        let sep = if wi + 1 == workloads.len() { "" } else { "," };
        let _ = writeln!(out, "    }}{sep}");
    }
    out.push_str("  }\n}");
    println!("{out}");
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.repeat, args.workload) {
        (Some(runs), _) => run_repeat(&args, runs),
        (None, Some(w)) => run_one(w, &args),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// Each workload at a thousandth of its size, through the same code.
    const SCALE: f64 = 0.001;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn declared(section: &str) -> BTreeSet<(String, String)> {
        benchmark_json()
            .get(section)
            .expect("section present")
            .as_array()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let owned = |list: &[(&str, &str)]| -> BTreeSet<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        let spans: Vec<(String, &str)> = SPANS
            .iter()
            .flat_map(|s| [(format!("{s}.ns"), "ns"), (format!("{s}.n"), "count")])
            .collect();
        let spans: Vec<(&str, &str)> = spans.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        let every_layer = &owned(&spans) | &owned(LAYER_VALUES);
        let simulated_layer: BTreeSet<(String, String)> = every_layer
            .iter()
            .filter(|(n, _)| !n.starts_with("rt."))
            .cloned()
            .collect();
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), simulated_layer);
        for w in Workload::ALL {
            let (e2e, layer) = if w == Workload::RtPipeline {
                (owned(RT_END_TO_END), every_layer.clone())
            } else {
                (owned(END_TO_END), simulated_layer.clone())
            };
            for (traced, want) in [(false, e2e), (true, layer)] {
                let report = measure(w, 7, 0.0, traced, SCALE);
                assert!(report.correct, "{}: {:?}", w.name(), report.problems);
                let got: BTreeSet<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|(n, _, u)| (n.clone(), (*u).to_owned()))
                    .collect();
                assert_eq!(got, want, "{} with trace {traced}", w.name());
            }
        }
    }

    /// The declared workloads are the simulated ones; `rt_pipeline`
    /// has no simulated clock to report.
    #[test]
    fn declared_workloads_are_the_simulated_ones() {
        let declared: Vec<String> = benchmark_json()
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let simulated: Vec<String> = Workload::ALL
            .into_iter()
            .filter(|&w| w != Workload::RtPipeline)
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(declared, simulated);
    }

    #[test]
    fn simulated_metrics_repeat_exactly_for_one_seed() {
        for w in Workload::ALL
            .into_iter()
            .filter(|&w| w != Workload::RtPipeline)
        {
            let a = w.round(3, SCALE, false);
            let b = w.round(3, SCALE, false);
            assert!(
                a.simulated && a.problems.is_empty(),
                "{}: {:?}",
                w.name(),
                a.problems
            );
            assert_eq!(a.clock, b.clock, "{}", w.name());
            assert_eq!(a.counters, b.counters, "{}", w.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        assert!(parse("--workload qos_bully --seed 3 --seconds 20 --trace 1").is_ok());
        assert!(parse("--workload all --seconds 2.5").is_ok());
        assert!(parse("--seed 3 --seconds 20").is_err(), "a workload is required");
        assert!(parse("--workload all").is_err(), "a run length is required");
        assert!(parse("--workload nope --seconds 20").is_err());
        assert!(parse("--workload all --seconds 20 --trace 2").is_err());
        assert!(parse("--workload all --seconds -1").is_err());
        assert!(parse("--workload all --seconds 20 --bogus 1").is_err());
    }

    #[test]
    fn json_reader_reads_a_result_line() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("host_s".to_owned(), 0.125, "s")],
            problems: Vec::new(),
        };
        let parsed = Json::parse(&r.json()).expect("our own output parses");
        assert_eq!(child_metrics(&parsed), vec![("host_s", 0.125, "s")]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
    }
}
