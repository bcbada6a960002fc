//! The benchmark's workloads, the sessions they run, and the output checks
//! every session must pass.

use rnr_safe::hypervisor::VmSpec;
use rnr_safe::log::splitmix64;
use rnr_safe::vrt::VrtParams;
use rnr_safe::workloads::{Workload as Guest, WorkloadParams};
use rnr_safe::{PipelineConfig, PipelineReport, Verdict};

/// Guest instructions of a single-session workload.
const SESSION_INSNS: u64 = 5_000_000;
/// Guest instructions of each `fleet_mix` session.
const FLEET_SESSION_INSNS: u64 = 1_500_000;
/// Checkpoint interval, in virtual seconds, of every session.
const CHECKPOINT_SECS: f64 = 0.05;
/// Virtual cycle at which the §6 attack fires.
const ATTACK_CYCLE: u64 = 1_200_000;
/// Workload seeds per run. Detection work depends on the seed (`make_vrt`
/// escalates 101 to 132 cases over seeds 1, 7, 42 and 1234), so a run
/// cycles through several seeds drawn from `--seed`; one seed per run
/// would make the run-to-run spread mostly seed choice. Each seed is set
/// up once, which also gives `setup_s` its samples.
pub const SEEDS_PER_RUN: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §6 kernel ROP attack: log-, exit- and CR-heavy.
    RopAttack,
    /// `setjmp`/`longjmp` storms with the VRT armed: dominated by alarm
    /// replay from both detector families.
    LongjmpVrt,
    /// Self-modifying JIT: code caches invalidated by code writes.
    JitSmc,
    /// `rop_attack`, `longjmp_vrt` and `jit_smc` at 1.5 M instructions each
    /// through one farm.
    FleetMix,
    /// `make` with the VRT armed. Not in `BENCHMARK.json`: the program
    /// falsely convicts this benign guest of a ROP attack on some seeds
    /// (see `perfbench/README.md`), and the check fails those sessions.
    MakeVrt,
}

impl Workload {
    /// Every workload, by command-line name.
    pub const ALL: [(&'static str, Workload); 5] = [
        ("rop_attack", Workload::RopAttack),
        ("longjmp_vrt", Workload::LongjmpVrt),
        ("jit_smc", Workload::JitSmc),
        ("fleet_mix", Workload::FleetMix),
        ("make_vrt", Workload::MakeVrt),
    ];

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        Workload::ALL.iter().find(|(_, w)| *w == self).map(|&(n, _)| n).expect("every workload is named")
    }

    /// The sessions one pass of this workload runs with workload seed
    /// `seed`. Builds every guest image and mounts the attack, which is
    /// set-up work.
    pub fn pass(self, seed: u64) -> Vec<SessionPlan> {
        match self {
            Workload::RopAttack => vec![SessionPlan::new(Kind::Rop, seed, SESSION_INSNS)],
            Workload::LongjmpVrt => vec![SessionPlan::new(Kind::LongjmpVrt, seed, SESSION_INSNS)],
            Workload::JitSmc => vec![SessionPlan::new(Kind::Jit, seed, SESSION_INSNS)],
            Workload::MakeVrt => vec![SessionPlan::new(Kind::MakeVrt, seed, SESSION_INSNS)],
            Workload::FleetMix => [Kind::Rop, Kind::LongjmpVrt, Kind::Jit]
                .into_iter()
                .map(|kind| SessionPlan::new(kind, seed, FLEET_SESSION_INSNS))
                .collect(),
        }
    }
}

/// The workload seeds of one run: the first [`SEEDS_PER_RUN`] outputs of
/// SplitMix64 started at `seed`.
pub fn session_seeds(seed: u64) -> Vec<u64> {
    (1..=SEEDS_PER_RUN as u64)
        .map(|i| splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
        .collect()
}

/// The guest a session records, which fixes its verdict rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `mount_kernel_rop` over the demo parameters.
    Rop,
    /// `setjmp`/`longjmp` storms with the VRT detector armed.
    LongjmpVrt,
    /// `make` with the VRT detector armed.
    MakeVrt,
    /// The self-modifying JIT guest.
    Jit,
}

impl Kind {
    /// Short label for spans and messages.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Rop => "rop",
            Kind::LongjmpVrt => "longjmp_vrt",
            Kind::MakeVrt => "make_vrt",
            Kind::Jit => "jit",
        }
    }
}

/// One session: the guest, the shipped default pipeline configuration with
/// only the per-workload settings changed, and the verdict rule.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Which guest, and so which verdict rule.
    pub kind: Kind,
    /// The guest to record.
    pub spec: VmSpec,
    /// The pipeline configuration.
    pub config: PipelineConfig,
}

impl SessionPlan {
    fn new(kind: Kind, seed: u64, insns: u64) -> SessionPlan {
        let spec = match kind {
            Kind::Rop => {
                rnr_safe::attacks::mount_kernel_rop(&WorkloadParams::attack_demo(), ATTACK_CYCLE)
                    .expect("the demo attack mounts on the demo parameters")
                    .0
            }
            Kind::LongjmpVrt => Guest::Longjmp.spec(false),
            Kind::MakeVrt => Guest::Make.spec(false),
            Kind::Jit => Guest::Jit.spec(false),
        };
        let config = PipelineConfig {
            seed,
            duration_insns: insns,
            checkpoint_interval_secs: Some(CHECKPOINT_SECS),
            vrt: matches!(kind, Kind::LongjmpVrt | Kind::MakeVrt).then(VrtParams::default),
            ..PipelineConfig::default()
        };
        SessionPlan { kind, spec, config }
    }
}

/// A verdict's class: what the output checks and the decomposition compare.
pub fn verdict_class(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::FalsePositive(_) => "false-positive",
        Verdict::RopAttack(_) => "rop-attack",
        Verdict::HeapOverflow(_) => "heap-overflow",
        Verdict::UseAfterReturn(_) => "use-after-return",
    }
}

/// Checks a session's report: the replay digest verified, no alarm case
/// failed, and the verdict classes are the ones its guest must produce.
/// Only classes are checked, never seed-specific values.
pub fn check_report(kind: Kind, report: &PipelineReport) -> Result<(), String> {
    if !report.replay.verified {
        return Err("replay digest did not verify".to_string());
    }
    if !report.recovery.failed_cases.is_empty() {
        return Err(format!("{} alarm case(s) failed", report.recovery.failed_cases.len()));
    }
    let attacks = report.attacks_confirmed();
    match kind {
        Kind::Rop if attacks != 3 => Err(format!("expected 3 confirmed attacks, got {attacks}")),
        Kind::LongjmpVrt | Kind::MakeVrt if attacks != 0 => {
            let first =
                report.resolutions.iter().find(|r| r.verdict.is_attack()).expect("an attack was counted");
            Err(format!(
                "expected only false positives, got {attacks} attack(s), the first {} at instruction {}",
                verdict_class(&first.verdict),
                first.at_insn
            ))
        }
        Kind::Jit if report.record.alarms != 0 || report.replay.alarms_escalated != 0 => {
            Err(format!("expected no alarms, got {}", report.record.alarms))
        }
        _ => Ok(()),
    }
}

/// The `to_json()` fingerprint every session of one slot must share: the
/// first report seen for the slot, and every later one compared against it.
#[derive(Debug, Default)]
pub struct Fingerprint(Option<String>);

impl Fingerprint {
    /// Checks `json` against the expected report, adopting it when none is
    /// set yet.
    pub fn check(&mut self, json: String) -> Result<(), String> {
        match &self.0 {
            None => {
                self.0 = Some(json);
                Ok(())
            }
            Some(expected) if *expected == json => Ok(()),
            Some(_) => Err("report differs from the reference report".to_string()),
        }
    }
}
