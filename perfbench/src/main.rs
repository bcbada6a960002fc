//! The RnR-Safe benchmark: session latency, throughput, CPU and memory
//! cost of the shipped default pipeline on four workloads, and a traced
//! run that times each layer from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rop_attack --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The load is a closed loop from one process: the next session (for
//! `fleet_mix`, the next farm pass) starts when the previous report
//! returns. Every session's output is checked. The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`; the lines before it print every metric with its unit and
//! sample count, and the host context. The exit code is non-zero when any
//! output check failed. See `perfbench/README.md`.

mod host;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use rnr_safe::{Farm, FarmConfig, Pipeline, PipelineReport, SessionSpec};

use crate::stats::{median, ratio, tail};
use crate::workload::{check_report, session_seeds, Fingerprint, SessionPlan, Workload};

/// The end-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("session_ms_p50", "ms"),
    ("session_ms_tail", "ms"),
    ("guest_mips", "Minsn/s"),
    ("cpu_ms_per_minsn", "ms/Minsn"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("log_bytes_per_kinsn", "B/kinsn"),
    ("record_vcpi", "vcycles/insn"),
];

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <rop_attack|longjmp_vrt|jit_smc|fleet_mix|make_vrt> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    while let Some(flag) = args.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?.to_string();
        let value = args.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key, value);
    }
    let mut take = |key: &str| map.remove(key).ok_or_else(|| format!("missing --{key}"));
    let name = take("workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u32 = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown option --{extra}"));
    }
    Ok(Args { workload, seed, seconds: f64::from(seconds), trace })
}

/// Sessions attempted and failed, with every failure printed.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one checked session.
    pub fn record(&mut self, what: &str, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.failed += 1;
            eprintln!("output check failed ({what}): {e}");
        }
    }
}

/// One workload seed's sessions, their farm specs, and the report each
/// session must reproduce.
pub struct Slot {
    plans: Vec<SessionPlan>,
    fleet: Vec<SessionSpec>,
    refs: Vec<Fingerprint>,
}

impl Slot {
    /// Checks session `k`'s report against its verdict rule and its
    /// reference report.
    fn check(&mut self, k: usize, report: &PipelineReport) -> Result<(), String> {
        check_report(self.plans[k].kind, report).and_then(|()| self.refs[k].check(report.to_json()))
    }
}

/// Builds one slot and warms it up: every session runs once standalone
/// through `Pipeline::run`, which fixes its reference report, and a
/// `fleet_mix` slot also runs once through the farm.
fn set_up(workload: Workload, seed: u64, farm: &Farm, tally: &mut Tally) -> Slot {
    let plans = workload.pass(seed);
    let fleet =
        plans.iter().map(|p| SessionSpec::new(p.kind.label(), p.spec.clone(), p.config.clone())).collect();
    let mut slot = Slot { refs: plans.iter().map(|_| Fingerprint::default()).collect(), plans, fleet };
    let mut warm_up = Totals::default();
    for k in 0..slot.plans.len() {
        session(&mut slot, k, tally, &mut warm_up);
    }
    if workload == Workload::FleetMix {
        farm_pass(&mut slot, farm, tally, &mut warm_up);
    }
    slot
}

/// What the timed loop accumulates over the sessions that returned a
/// report, whether or not the report passed its checks: a session that
/// failed a check still took its time.
#[derive(Debug, Default)]
struct Totals {
    latencies_ms: Vec<f64>,
    /// Peak RSS of each session (for `fleet_mix`, each farm pass), in MB.
    peak_rss_mb: Vec<f64>,
    retired: u64,
    log_bytes: u64,
    record_cycles: u64,
}

impl Totals {
    fn add(&mut self, latency_ms: f64, report: &PipelineReport) {
        self.latencies_ms.push(latency_ms);
        self.retired += report.record.retired;
        self.log_bytes += report.record.log_bytes;
        self.record_cycles += report.record.cycles;
    }
}

/// One farm pass over the slot's sessions, each checked against its
/// standalone report.
fn farm_pass(slot: &mut Slot, farm: &Farm, tally: &mut Tally, totals: &mut Totals) {
    let report = farm.run(&slot.fleet);
    for (k, outcome) in report.sessions.iter().enumerate() {
        let checked = match &outcome.result {
            Ok(r) => {
                totals.add(outcome.wall_ms, r);
                slot.check(k, r)
            }
            Err(e) => Err(format!("farm: {e}")),
        };
        tally.record(slot.plans[k].kind.label(), checked);
    }
}

/// Session `k` of the slot run standalone, timed from spec to report.
fn session(slot: &mut Slot, k: usize, tally: &mut Tally, totals: &mut Totals) {
    let plan = &slot.plans[k];
    let (spec, config) = (std::hint::black_box(plan.spec.clone()), plan.config.clone());
    let started = Instant::now();
    let result = Pipeline::new(spec, config).run();
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let checked = match result {
        Ok(report) => {
            totals.add(latency_ms, &report);
            slot.check(k, &report)
        }
        Err(e) => Err(format!("pipeline: {e}")),
    };
    tally.record(slot.plans[k].kind.label(), checked);
}

/// The closed loop: sessions (or farm passes) back to back over the slots,
/// round robin, until `seconds` have passed. Returns the totals, the loop's
/// wall seconds, and the process CPU milliseconds it used.
fn measure(
    workload: Workload,
    slots: &mut [Slot],
    seconds: f64,
    farm: &Farm,
    tally: &mut Tally,
) -> (Totals, f64, f64) {
    let mut totals = Totals::default();
    let cpu_at_start = host::process_cpu_ms();
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed().as_secs_f64() < seconds {
        let slot = &mut slots[i % slots.len()];
        host::reset_peak_rss();
        if workload == Workload::FleetMix {
            farm_pass(slot, farm, tally, &mut totals);
        } else {
            session(slot, 0, tally, &mut totals);
        }
        totals.peak_rss_mb.push(host::peak_rss_mb());
        i += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    (totals, wall_s, host::process_cpu_ms() - cpu_at_start)
}

/// Formats a metric value for the result line; JSON has no NaN or
/// infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the result line.
fn print_result(tally: &Tally, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let steal_at_start = host::steal_ticks();
    let seeds = session_seeds(args.seed);
    let farm = Farm::new(FarmConfig { workers: host::nproc(), ..FarmConfig::default() });
    let mut tally = Tally::default();

    // Set-up: build the images and mount the attack for each workload
    // seed, and warm every session up once. Its median over the seeds is
    // `setup_s`.
    let mut setup_s = Vec::with_capacity(seeds.len());
    let mut slots = Vec::with_capacity(seeds.len());
    for &seed in &seeds {
        let started = Instant::now();
        slots.push(set_up(args.workload, seed, &farm, &mut tally));
        setup_s.push(started.elapsed().as_secs_f64());
    }

    println!(
        "perfbench workload={} seed={} workload_seeds={:?} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        seeds,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let traced = trace::run(&mut slots, args.seconds, &farm, &mut tally);
        let host = host::HostContext::capture(steal_at_start);
        println!("host {}", host.to_json());
        println!("per-layer medians over {} traced passes:", traced.passes);
        for (name, unit, base) in trace::PER_LAYER {
            let v = traced.metrics[name];
            let note = match base {
                Some(b) if traced.undefined.contains(name) => {
                    format!("  (base {b}; zero in some pass, counted as 0)")
                }
                Some(b) => format!("  (base {b})"),
                None => String::new(),
            };
            println!("  {name:<30} {v:>14.4} {unit}{note}");
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload.name(), args.seed));
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"workload_seeds\": {:?}, \"host\": {}",
            args.workload.name(),
            args.seed,
            seeds,
            host.to_json()
        );
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, traced.tracer.to_json(&header)))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => tally.record("span file", Err(format!("cannot write {}: {e}", path.display()))),
        }
        trace::PER_LAYER.iter().map(|&(name, unit, _)| (name, unit, traced.metrics[name])).collect()
    } else {
        let (totals, wall_s, cpu_ms) = measure(args.workload, &mut slots, args.seconds, &farm, &mut tally);
        let host = host::HostContext::capture(steal_at_start);
        println!("host {}", host.to_json());
        let n = totals.latencies_ms.len();
        let minsn = totals.retired as f64 / 1e6;
        let tail =
            tail(&totals.latencies_ms).unwrap_or(stats::Tail { percentile: 100.0, value: 0.0, beyond: 0 });
        let values = [
            median(&totals.latencies_ms),
            tail.value,
            minsn / wall_s,
            ratio(cpu_ms, minsn).unwrap_or(0.0),
            median(&setup_s),
            median(&totals.peak_rss_mb),
            ratio(totals.log_bytes as f64, totals.retired as f64 / 1e3).unwrap_or(0.0),
            ratio(totals.record_cycles as f64, totals.retired as f64).unwrap_or(0.0),
        ];
        let samples = [
            format!("median of {n} sessions"),
            format!("p{} of {n} sessions, {} beyond it", tail.percentile, tail.beyond),
            format!("{minsn} Minsn over {wall_s:.3} s"),
            format!("{cpu_ms} CPU ms over {minsn} Minsn"),
            format!("median of {} set-ups", setup_s.len()),
            format!(
                "median of the process high-water mark over {} passes, reset before each",
                totals.peak_rss_mb.len()
            ),
            format!("simulated, workload seeds {seeds:?}"),
            format!("simulated, workload seeds {seeds:?}"),
        ];
        for ((name, unit), (v, sample)) in END_TO_END.iter().zip(values.iter().zip(&samples)) {
            println!("  {name:<22} {v:>12.4} {unit:<12} ({sample})");
        }
        let failed_frac = ratio(tally.failed as f64, tally.attempted as f64).unwrap_or(0.0);
        println!(
            "  {:<22} {failed_frac:>12.4} {:<12} ({} of {} sessions)",
            "failed_frac", "ratio", tally.failed, tally.attempted
        );
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect()
    };
    print_result(&tally, &metrics);
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload longjmp_vrt --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::LongjmpVrt);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 3 --trace 0").is_err());
        assert!(args("--workload jit_smc --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload jit_smc --seed 1 --seconds 3 --trace 2").is_err());
        assert!(args("--workload jit_smc --seed 1 --seconds 3").is_err());
        assert!(args("--workload jit_smc --seed 1 --seconds 3 --trace 0 --extra 1").is_err());
    }
}
