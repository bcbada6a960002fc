//! The replay farm: many concurrent sessions, each one full pipeline
//! (DESIGN.md §14).
//!
//! A [`Farm`] is a fleet manager. Each [`SessionSpec`] is one full RnR-Safe
//! pipeline — record → checkpointing replay → alarm replay — and the farm
//! runs it through [`Pipeline::run`] itself: a bounded pool of
//! [`FarmConfig::workers`] session slots, each slot taking the next
//! session in submission order. A session keeps everything the pipeline
//! gives it: its own recorder thread, CR, AR pool and `SharedPageCache`,
//! and every [`PipelineConfig`] knob (`parallel_spans`, `superblocks`,
//! `ar_workers`, …). The farm adds only what a fleet needs: a per-session
//! durable store under [`FarmConfig::durable_root`], a [`SessionBudget`]
//! checked on the finished report, and panic isolation.
//!
//! **Invariance:** a farm of N sessions produces per-session
//! [`PipelineReport`]s byte-identical (via `to_json()`) to N serial
//! [`Pipeline`] runs of the same specs, for every pool size and
//! interleaving — each session *is* one `Pipeline::run`, and sessions share
//! no state. Failures are isolated the same way: a session that panics,
//! exhausts a [`SessionBudget`], or fails its pipeline ends with a
//! structured [`FarmError`] while its siblings' reports stay untouched.

mod budget;

pub use budget::{BudgetKind, SessionBudget};

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rnr_hypervisor::VmSpec;
use rnr_log::DurableLogConfig;

use crate::pipeline::panic_text;
use crate::{Pipeline, PipelineConfig, PipelineError, PipelineReport};

/// A fleet-unique session identifier (the session's position in the batch
/// submitted to [`Farm::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One session the farm will run: a workload spec, its pipeline
/// configuration, and a resource budget.
#[derive(Debug)]
pub struct SessionSpec {
    /// Caller-chosen session name (reported in [`SessionOutcome`]; need not
    /// be unique, but [`FarmReport::session`] returns the first match).
    pub name: String,
    /// The guest to record and replay.
    pub vm: VmSpec,
    /// The session's pipeline knobs, all honoured: the session runs through
    /// [`Pipeline::run`] with exactly this configuration (plus the farm's
    /// durable store when `durable_log` is unset).
    pub config: PipelineConfig,
    /// Resource limits; [`SessionBudget::unlimited`] by default.
    pub budget: SessionBudget,
}

impl SessionSpec {
    /// A session named `name` over `vm` with an unlimited budget.
    pub fn new(name: impl Into<String>, vm: VmSpec, config: PipelineConfig) -> SessionSpec {
        SessionSpec { name: name.into(), vm, config, budget: SessionBudget::unlimited() }
    }
}

/// Farm-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct FarmConfig {
    /// Sessions in flight at once; `0` sizes it to the host's available
    /// parallelism. Wall-clock only: reports are byte-identical for every
    /// value.
    pub workers: usize,
    /// Root directory for per-session durable stores. A session whose own
    /// `config.durable_log` is unset gets
    /// `<root>/session-<id>` ([DESIGN.md §13] segment store); sessions that
    /// set their own path keep it.
    pub durable_root: Option<PathBuf>,
}

/// How a fleet session failed. Sibling sessions are unaffected — each
/// [`SessionOutcome`] carries its own result.
#[derive(Debug)]
pub enum FarmError {
    /// The session exhausted one of its [`SessionBudget`] limits.
    BudgetExceeded {
        /// The session that exceeded its budget.
        session: SessionId,
        /// Which budget, with observed and permitted amounts.
        budget: BudgetKind,
    },
    /// The session's own pipeline failed (recording setup, guest fault,
    /// replay divergence, failed verification).
    Pipeline(PipelineError),
    /// The session's pipeline panicked; the panic was caught and confined
    /// to the session.
    WorkerPanicked {
        /// The session that panicked.
        session: SessionId,
        /// Best-effort panic message.
        detail: String,
    },
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::BudgetExceeded { session, budget } => {
                write!(f, "session {session} exceeded its {budget}")
            }
            FarmError::Pipeline(e) => write!(f, "pipeline failed: {e}"),
            FarmError::WorkerPanicked { session, detail } => {
                write!(f, "farm worker panicked on session {session}: {detail}")
            }
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for FarmError {
    fn from(e: PipelineError) -> FarmError {
        FarmError::Pipeline(e)
    }
}

/// One session's result and wall-clock accounting.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The session's fleet identifier.
    pub id: SessionId,
    /// The session's caller-chosen name.
    pub name: String,
    /// The session's report, or the structured reason it failed.
    pub result: Result<PipelineReport, FarmError>,
    /// Milliseconds from farm start to this session's completion
    /// (time spent waiting for a session slot included).
    pub wall_ms: f64,
}

/// What [`Farm::run`] returns: every session's outcome, in submission
/// order, plus fleet wall-clock.
#[derive(Debug)]
pub struct FarmReport {
    /// Per-session outcomes, indexed by submission order.
    pub sessions: Vec<SessionOutcome>,
    /// Total fleet wall-clock in milliseconds.
    pub wall_ms: f64,
}

impl FarmReport {
    /// The first session named `name`, if any.
    pub fn session(&self, name: &str) -> Option<&SessionOutcome> {
        self.sessions.iter().find(|s| s.name == name)
    }

    /// True when every session produced a report.
    pub fn all_ok(&self) -> bool {
        self.sessions.iter().all(|s| s.result.is_ok())
    }
}

/// The fleet manager. Construct once, then [`Farm::run`] batches of
/// sessions.
#[derive(Debug, Clone, Default)]
pub struct Farm {
    config: FarmConfig,
}

impl Farm {
    /// A farm with `config`.
    pub fn new(config: FarmConfig) -> Farm {
        Farm { config }
    }

    /// Runs every session to completion, at most [`FarmConfig::workers`]
    /// at a time, and returns all outcomes. Never fails as a whole:
    /// per-session failures are carried in each [`SessionOutcome::result`].
    pub fn run(&self, sessions: &[SessionSpec]) -> FarmReport {
        let started = Instant::now();
        let slots = match self.config.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            w => w,
        };
        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..slots.min(sessions.len()) {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = sessions.get(s) else { break };
                    let id = SessionId(s as u32);
                    let result = self.run_session(id, spec);
                    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                    // The receiver outlives the scope, so the send succeeds.
                    let _ = tx.send(SessionOutcome { id, name: spec.name.clone(), result, wall_ms });
                });
            }
        });
        drop(tx);
        let mut outcomes: Vec<SessionOutcome> = rx.into_iter().collect();
        outcomes.sort_by_key(|o| o.id.0);
        FarmReport { sessions: outcomes, wall_ms: started.elapsed().as_secs_f64() * 1e3 }
    }

    /// One session: its pipeline under `catch_unwind`, then its budget
    /// checked on the finished report.
    fn run_session(&self, id: SessionId, spec: &SessionSpec) -> Result<PipelineReport, FarmError> {
        let mut config = spec.config.clone();
        if config.durable_log.is_none() {
            config.durable_log = self
                .config
                .durable_root
                .as_ref()
                .map(|root| DurableLogConfig::new(root.join(format!("session-{}", id.0))));
        }
        let report =
            catch_unwind(AssertUnwindSafe(|| Pipeline::new(spec.vm.clone(), config).run())).map_err(
                |payload| FarmError::WorkerPanicked { session: id, detail: panic_text(payload.as_ref()) },
            )??;
        spec.budget.check(&report).map_err(|budget| FarmError::BudgetExceeded { session: id, budget })?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_attacks::mount_kernel_rop;
    use rnr_log::FaultPlan;
    use rnr_workloads::{Workload, WorkloadParams};

    fn quick(name: &str, workload: Workload, insns: u64) -> SessionSpec {
        let config = PipelineConfig { duration_insns: insns, ..PipelineConfig::default() };
        SessionSpec::new(name, workload.spec(false), config)
    }

    fn serial_json(workload: Workload, config: &PipelineConfig) -> String {
        Pipeline::new(workload.spec(false), config.clone()).run().unwrap().to_json()
    }

    #[test]
    fn farm_reports_match_serial_pipelines() {
        let make_cfg = PipelineConfig { duration_insns: 150_000, ..PipelineConfig::default() };
        let mysql_cfg = PipelineConfig { duration_insns: 120_000, ..PipelineConfig::default() };
        let expected_make = serial_json(Workload::Make, &make_cfg);
        let expected_mysql = serial_json(Workload::Mysql, &mysql_cfg);
        for workers in [1, 3] {
            let farm = Farm::new(FarmConfig { workers, ..FarmConfig::default() });
            let report = farm.run(&[
                SessionSpec::new("make", Workload::Make.spec(false), make_cfg.clone()),
                SessionSpec::new("mysql", Workload::Mysql.spec(false), mysql_cfg.clone()),
            ]);
            assert!(report.all_ok(), "workers={workers}: {report:?}");
            let got_make = report.session("make").unwrap().result.as_ref().unwrap().to_json();
            let got_mysql = report.session("mysql").unwrap().result.as_ref().unwrap().to_json();
            assert_eq!(got_make, expected_make, "workers={workers}");
            assert_eq!(got_mysql, expected_mysql, "workers={workers}");
            assert!(report.wall_ms > 0.0);
            assert!(report.sessions.iter().all(|s| s.wall_ms > 0.0));
        }
    }

    #[test]
    fn log_byte_budget_fails_session_without_touching_sibling() {
        let expected = serial_json(
            Workload::Make,
            &PipelineConfig { duration_insns: 150_000, ..PipelineConfig::default() },
        );
        let mut capped = quick("capped", Workload::Mysql, 120_000);
        capped.budget.log_bytes = Some(1);
        let report = Farm::new(FarmConfig::default()).run(&[capped, quick("quiet", Workload::Make, 150_000)]);
        let failed = &report.session("capped").unwrap().result;
        match failed {
            Err(FarmError::BudgetExceeded { session, budget: BudgetKind::LogBytes { used, max } }) => {
                assert_eq!(*session, SessionId(0));
                assert_eq!(*max, 1);
                assert!(*used > 1);
            }
            other => panic!("expected log-byte budget failure, got {other:?}"),
        }
        let quiet = report.session("quiet").unwrap().result.as_ref().unwrap();
        assert_eq!(quiet.to_json(), expected);
        assert!(!quiet.recovery.any());
    }

    #[test]
    fn rewind_quota_fails_recovering_session() {
        let mut capped = quick("capped", Workload::Mysql, 150_000);
        capped.config.fault_plan = FaultPlan { cr_divergence_at_insn: Some(60_000), ..FaultPlan::default() };
        capped.budget.rewind_quota = Some(0);
        let report = Farm::new(FarmConfig::default()).run(&[capped]);
        match &report.sessions[0].result {
            Err(FarmError::BudgetExceeded { budget: BudgetKind::Rewinds { used, max: 0 }, .. }) => {
                assert!(*used > 0);
            }
            other => panic!("expected rewind quota failure, got {other:?}"),
        }
    }

    #[test]
    fn ar_slot_budget_fails_alarm_storm() {
        let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
        let config = PipelineConfig {
            duration_insns: 900_000,
            checkpoint_interval_secs: Some(0.125),
            ..PipelineConfig::default()
        };
        let mut stormy = SessionSpec::new("stormy", spec, config);
        stormy.budget.ar_slots = Some(0);
        let report = Farm::new(FarmConfig::default()).run(&[stormy]);
        match &report.sessions[0].result {
            Err(FarmError::BudgetExceeded { budget: BudgetKind::ArSlots { needed, max: 0 }, .. }) => {
                assert!(*needed > 0);
            }
            other => panic!("expected AR-slot budget failure, got {other:?}"),
        }
    }

    #[test]
    fn farm_error_display_names_the_session() {
        let e = FarmError::BudgetExceeded {
            session: SessionId(3),
            budget: BudgetKind::LogBytes { used: 10, max: 5 },
        };
        let text = e.to_string();
        assert!(text.contains("s3"), "{text}");
        assert!(text.contains("log-byte"), "{text}");
    }
}
