//! Fault-injection matrix: runs the attack pipeline under every seeded
//! fault scenario from `rnr_log::fault_scenarios` and checks the
//! self-healing contract end to end:
//!
//! * every **recoverable** scenario (corrupted / dropped / duplicated /
//!   truncated / delayed transport batches, injected CR and block-engine
//!   divergences, AR panics, a killed AR worker) must complete with a
//!   `to_json()` report **byte-identical** to the fault-free run, and its
//!   `recovery` block must be non-zero (the fault was actually detected
//!   and healed, not silently missed);
//! * the **unrecoverable** scenario (retained store poisoned, so
//!   re-fetching returns the same damage) must fail with the structured
//!   `ReplayError::Unrecoverable` carrying a rewind trail — never panic.
//!
//! Exits nonzero on any violation. Wired into `scripts/check.sh`.
//!
//! With `--parallel`, the whole matrix reruns with checkpoint-partitioned
//! span replay active (`parallel_spans = 2`): every scenario must heal to a
//! report byte-identical to a *clean run of the same configuration* — which
//! is itself byte-identical to the serial report.
//!
//! A final pair of sections reruns the two adversarial guests: the
//! self-modifying JIT workload — the superblock trace engine's hardest
//! input — fault-free with traces on and off (the reports must be
//! byte-identical) and under a corrupted transport batch (which must heal
//! back to the clean report); and the VRT-armed heap-overflow attack
//! (DESIGN.md §15), whose memory-safety conviction and dismissed false
//! positives must survive the superblock knob and a corrupted batch
//! unchanged.
//!
//! With `--farm`, the matrix instead runs every scenario as a replay-farm
//! fleet (DESIGN.md §14): the faulted attack session runs beside a quiet
//! sibling, and the contract extends to *isolation* — the faulted session
//! must still heal to the serial clean report, the sibling's report must
//! stay byte-identical to its own clean reference with a quiet recovery
//! block, and a session failing structurally (budget exhaustion) must not
//! disturb the sibling either.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rnr_bench::{attack_session_config, attack_spec, SEED};
use rnr_log::{
    disk_fault_scenarios, fault_scenarios, unrecoverable_scenario, DurableLogConfig, FaultPlan,
    TransportFault, TransportFaultKind,
};
use rnr_replay::ReplayError;
use rnr_safe::{
    BudgetKind, Farm, FarmConfig, FarmError, Pipeline, PipelineConfig, PipelineError, PipelineReport,
    SessionSpec,
};
use rnr_workloads::Workload;

/// The attack pipeline under one fault plan — same workload and knobs as
/// the pipeline equivalence tests, so the fault-free reference exercises
/// alarms, escalation, and a confirmed ROP verdict.
fn run_with(plan: FaultPlan, parallel_spans: usize) -> Result<PipelineReport, PipelineError> {
    Pipeline::new(attack_spec(), attack_session_config(parallel_spans, plan)).run()
}

fn main() {
    // Injected AR panics are part of the matrix; keep their backtraces out
    // of the gate output. Scenario failures are reported explicitly below.
    std::panic::set_hook(Box::new(|_| {}));
    if std::env::args().any(|a| a == "--farm") {
        let failures = farm_matrix();
        if failures > 0 {
            eprintln!("fault matrix (farm) FAILED: {failures} scenario(s)");
            std::process::exit(1);
        }
        println!("fault matrix (farm) passed");
        return;
    }
    let parallel_spans = if std::env::args().any(|a| a == "--parallel") { 2 } else { 0 };
    let run_with = |plan| run_with(plan, parallel_spans);
    println!(
        "fault matrix: {}",
        if parallel_spans > 0 { "parallel span replay (2 workers)" } else { "serial replay" }
    );
    let mut failures = 0u32;

    let reference = run_with(FaultPlan::default()).expect("fault-free attack pipeline completes");
    let reference_json = reference.to_json();
    if reference.recovery.any() {
        println!("FAIL fault-free: recovery block not quiet: {:?}", reference.recovery);
        failures += 1;
    } else {
        println!(
            "fault-free: {} attack(s) confirmed, {} alarm(s) escalated, recovery quiet",
            reference.attacks_confirmed(),
            reference.replay.alarms_escalated
        );
        let b = &reference.block_stats;
        println!(
            "fault-free: block cache {} hits / {} builds / {} shared imports, \
             trace cache {} hits / {} builds / {} fallbacks",
            b.hits, b.builds, b.shared_imports, b.trace_hits, b.trace_builds, b.trace_fallbacks
        );
    }

    for (name, plan) in fault_scenarios(SEED) {
        match catch_unwind(AssertUnwindSafe(|| run_with(plan))) {
            Err(_) => {
                println!("FAIL {name}: panicked (recoverable scenarios must heal)");
                failures += 1;
            }
            Ok(Err(e)) => {
                println!("FAIL {name}: pipeline error: {e}");
                failures += 1;
            }
            Ok(Ok(report)) => {
                let mut bad = Vec::new();
                if report.to_json() != reference_json {
                    bad.push("report differs from fault-free run");
                }
                if !report.recovery.any() {
                    bad.push("no recovery activity recorded (fault missed?)");
                }
                if !report.recovery.failed_cases.is_empty() {
                    bad.push("alarm cases left unresolved");
                }
                if bad.is_empty() {
                    let r = &report.recovery;
                    println!(
                        "ok   {name}: rewinds={} refetched={} healed={} dup_dropped={} ar_retries={} \
                         panics={} workers_lost={} block_fallbacks={}",
                        r.cr_rewinds,
                        r.transport.batches_refetched,
                        r.transport.reorders_healed,
                        r.transport.duplicates_dropped,
                        r.ar_case_retries,
                        r.ar_panics_caught,
                        r.ar_workers_lost,
                        r.block_fallback_spans
                    );
                } else {
                    println!("FAIL {name}: {}", bad.join("; "));
                    failures += 1;
                }
            }
        }
    }

    let (name, plan) = unrecoverable_scenario(SEED);
    match catch_unwind(AssertUnwindSafe(|| run_with(plan))) {
        Err(_) => {
            println!("FAIL {name}: panicked (must fail with a structured error)");
            failures += 1;
        }
        Ok(Ok(_)) => {
            println!("FAIL {name}: unexpectedly succeeded");
            failures += 1;
        }
        Ok(Err(PipelineError::Replay(ReplayError::Unrecoverable { fault, trail }))) => {
            println!("ok   {name}: unrecoverable after {} rewind(s): {fault}", trail.len());
        }
        Ok(Err(e)) => {
            println!("FAIL {name}: wrong error shape (want Unrecoverable): {e}");
            failures += 1;
        }
    }

    failures += durable_section(parallel_spans, &reference_json);
    failures += jit_section(parallel_spans);
    failures += vrt_section(parallel_spans);

    if failures > 0 {
        eprintln!("fault matrix FAILED: {failures} scenario(s)");
        std::process::exit(1);
    }
    println!("fault matrix passed");
}

/// The durable segment store under every disk-fault scenario (DESIGN.md
/// §13): with `durable_log` on, the recording is persisted to sealed
/// segments and the CR's refetch recovery reads disk first. A clean durable
/// run must be byte-identical to the in-memory reference with a quiet
/// recovery block; every disk-fault scenario (torn tail, bit rot, missing
/// segment, short read, failed fsync — each paired with a dropped transport
/// frame that forces a refetch) must heal back to the very same report,
/// falling back to the in-memory retained store when the disk copy is
/// damaged. Each scenario uses its own temp dir, removed on success.
fn durable_section(parallel_spans: usize, reference_json: &str) -> u32 {
    let mut failures = 0u32;
    let run_durable = |tag: &str, plan: FaultPlan| {
        let dir = std::env::temp_dir()
            .join(format!("rnr-fault-matrix-{tag}-p{parallel_spans}-{}", std::process::id()));
        let mut durable = DurableLogConfig::new(dir.clone());
        // One frame per segment: segment indices equal frame sequence
        // numbers, so the plan's `DiskFault { segment: 2 }` damages exactly
        // the frame the transport drops.
        durable.frames_per_segment = 1;
        let cfg =
            PipelineConfig { durable_log: Some(durable), ..attack_session_config(parallel_spans, plan) };
        let result = Pipeline::new(attack_spec(), cfg).run();
        (dir, result)
    };

    let (dir, clean) = run_durable("clean", FaultPlan::default());
    match clean {
        Ok(report) if report.to_json() == reference_json && !report.recovery.any() => {
            println!("ok   durable-clean: persisted run byte-identical, recovery quiet");
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(report) => {
            println!(
                "FAIL durable-clean: identical={} quiet={}",
                report.to_json() == reference_json,
                !report.recovery.any()
            );
            failures += 1;
        }
        Err(e) => {
            println!("FAIL durable-clean: pipeline error: {e}");
            failures += 1;
        }
    }

    for (name, plan) in disk_fault_scenarios(SEED) {
        let wants_disk_hit = name == "disk-serves-refetch";
        match catch_unwind(AssertUnwindSafe(|| run_durable(name, plan))) {
            Err(_) => {
                println!("FAIL {name}: panicked (disk faults must heal)");
                failures += 1;
            }
            Ok((_dir, Err(e))) => {
                println!("FAIL {name}: pipeline error: {e}");
                failures += 1;
            }
            Ok((dir, Ok(report))) => {
                let t = &report.recovery.transport;
                let mut bad = Vec::new();
                if report.to_json() != reference_json {
                    bad.push("report differs from fault-free in-memory run");
                }
                if !report.recovery.any() {
                    bad.push("no recovery activity recorded (fault missed?)");
                }
                if wants_disk_hit && t.disk_refetches == 0 {
                    bad.push("refetch never served from disk");
                }
                if !wants_disk_hit && t.disk_fallbacks == 0 {
                    bad.push("damaged disk copy never fell back to memory");
                }
                if bad.is_empty() {
                    println!(
                        "ok   {name}: refetched={} disk_refetches={} disk_fallbacks={}",
                        t.batches_refetched, t.disk_refetches, t.disk_fallbacks
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                } else {
                    println!("FAIL {name}: {}", bad.join("; "));
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// The `--farm` matrix: every seeded scenario run as a two-session fleet —
/// the faulted attack session beside a quiet sibling.
///
/// Each farm session is one streaming `Pipeline::run`, so every scenario —
/// transport, replay and AR alike — fires exactly as in serial mode and
/// must heal to the serial clean report with recovery activity and no
/// unresolved case, while the sibling's report stays byte-identical to its
/// own clean reference with a quiet recovery block. Two more cases check
/// structural isolation: a budget-exhausted session failing beside an
/// untouched sibling, and a farm-owned durable root laying down one
/// segment store per session.
fn farm_matrix() -> u32 {
    let mut failures = 0u32;
    let attack_reference =
        run_with(FaultPlan::default(), 0).expect("serial clean attack pipeline completes").to_json();
    let quiet_cfg = PipelineConfig { duration_insns: 300_000, ..PipelineConfig::default() };
    let quiet_reference = Pipeline::new(Workload::Make.spec(false), quiet_cfg.clone())
        .run()
        .expect("serial clean quiet pipeline completes")
        .to_json();
    let fleet = |plan: FaultPlan| {
        vec![
            SessionSpec::new("attack", attack_spec(), attack_session_config(0, plan)),
            SessionSpec::new("quiet", Workload::Make.spec(false), quiet_cfg.clone()),
        ]
    };
    let farm = Farm::new(FarmConfig::default());

    // A sibling must come through byte-identical and quiet no matter what
    // happens to the attack session; fold that check into every scenario.
    let check_quiet = |name: &str, report: &rnr_safe::FarmReport, failures: &mut u32| match &report
        .session("quiet")
        .expect("quiet session present")
        .result
    {
        Ok(r) if r.to_json() == quiet_reference && !r.recovery.any() => {}
        Ok(r) => {
            println!(
                "FAIL {name}: quiet sibling disturbed (identical={} quiet={})",
                r.to_json() == quiet_reference,
                !r.recovery.any()
            );
            *failures += 1;
        }
        Err(e) => {
            println!("FAIL {name}: quiet sibling failed: {e}");
            *failures += 1;
        }
    };

    for (name, plan) in fault_scenarios(SEED) {
        let report = farm.run(&fleet(plan));
        check_quiet(name, &report, &mut failures);
        match &report.session("attack").expect("attack session present").result {
            Err(e) => {
                println!("FAIL {name}: attack session failed: {e}");
                failures += 1;
            }
            Ok(r) => {
                let mut bad = Vec::new();
                if r.to_json() != attack_reference {
                    bad.push("report differs from serial clean run");
                }
                if !r.recovery.any() {
                    bad.push("no recovery activity recorded (fault missed?)");
                }
                if !r.recovery.failed_cases.is_empty() {
                    bad.push("alarm cases left unresolved");
                }
                if bad.is_empty() {
                    let rec = &r.recovery;
                    println!(
                        "ok   {name}: healed, rewinds={} refetched={} healed={} dup_dropped={} ar_retries={} \
                         panics={} workers_lost={} block_fallbacks={}",
                        rec.cr_rewinds,
                        rec.transport.batches_refetched,
                        rec.transport.reorders_healed,
                        rec.transport.duplicates_dropped,
                        rec.ar_case_retries,
                        rec.ar_panics_caught,
                        rec.ar_workers_lost,
                        rec.block_fallback_spans
                    );
                } else {
                    println!("FAIL {name}: {}", bad.join("; "));
                    failures += 1;
                }
            }
        }
    }

    // Structural isolation: the attack session exhausts its AR-slot budget
    // and fails with a typed error; the sibling is untouched.
    let mut sessions = fleet(FaultPlan::default());
    sessions[0].budget.ar_slots = Some(0);
    let report = farm.run(&sessions);
    check_quiet("farm-budget-exhausted", &report, &mut failures);
    match &report.session("attack").expect("attack session present").result {
        Err(FarmError::BudgetExceeded { session, budget: BudgetKind::ArSlots { needed, max: 0 } }) => {
            println!(
                "ok   farm-budget-exhausted: session {session} failed structurally ({needed} case(s) over budget), sibling untouched"
            );
        }
        other => {
            println!("FAIL farm-budget-exhausted: want BudgetExceeded(ArSlots), got {other:?}");
            failures += 1;
        }
    }

    // Farm-owned durable root: each session gets its own segment store
    // directory, and persistence stays report-invisible.
    let root = std::env::temp_dir().join(format!("rnr-fault-matrix-farm-{}", std::process::id()));
    let durable_farm = Farm::new(FarmConfig { durable_root: Some(root.clone()), ..FarmConfig::default() });
    let report = durable_farm.run(&fleet(FaultPlan::default()));
    check_quiet("farm-durable-root", &report, &mut failures);
    let mut bad = Vec::new();
    match &report.session("attack").expect("attack session present").result {
        Ok(r) if r.to_json() == attack_reference => {}
        Ok(_) => bad.push("attack report differs from serial clean run".to_string()),
        Err(e) => bad.push(format!("attack session failed: {e}")),
    }
    for s in 0..2 {
        let dir = root.join(format!("session-{s}"));
        let populated = std::fs::read_dir(&dir).map(|mut entries| entries.next().is_some()).unwrap_or(false);
        if !populated {
            bad.push(format!("per-session store {} missing or empty", dir.display()));
        }
    }
    if bad.is_empty() {
        println!("ok   farm-durable-root: per-session segment stores laid down, reports identical");
        let _ = std::fs::remove_dir_all(&root);
    } else {
        println!("FAIL farm-durable-root: {}", bad.join("; "));
        failures += 1;
    }

    failures
}

/// The self-modifying JIT workload under the trace engine: superblocks must
/// be invisible in the report (on vs off byte-identical), actually engage
/// (trace dispatches observed despite the code churn), and heal a corrupted
/// transport batch back to the clean report.
fn jit_section(parallel_spans: usize) -> u32 {
    let run = |superblocks: bool, plan: FaultPlan| {
        let cfg = PipelineConfig {
            duration_insns: 400_000,
            checkpoint_interval_secs: Some(0.125),
            parallel_spans,
            superblocks,
            fault_plan: plan,
            ..PipelineConfig::default()
        };
        Pipeline::new(Workload::Jit.spec(false), cfg).run()
    };
    let traced = match run(true, FaultPlan::default()) {
        Ok(r) => r,
        Err(e) => {
            println!("FAIL jit-fault-free: pipeline error: {e}");
            return 1;
        }
    };
    let mut failures = 0;
    let b = &traced.block_stats;
    if traced.recovery.any() {
        println!("FAIL jit-fault-free: recovery block not quiet: {:?}", traced.recovery);
        failures += 1;
    }
    if b.trace_hits == 0 {
        println!("FAIL jit-fault-free: trace cache never dispatched on the JIT workload");
        failures += 1;
    }
    match run(false, FaultPlan::default()) {
        Ok(plain) if plain.to_json() == traced.to_json() => {}
        Ok(_) => {
            println!("FAIL jit-superblocks-off: report differs from superblocks-on run");
            failures += 1;
        }
        Err(e) => {
            println!("FAIL jit-superblocks-off: pipeline error: {e}");
            failures += 1;
        }
    }
    // Frame 0 always exists (the JIT log is far sparser than the attack
    // workload's, so the matrix's usual seq-2 target may never stream).
    let corrupt = FaultPlan {
        seed: SEED,
        transport: vec![TransportFault {
            seq: 0,
            kind: TransportFaultKind::CorruptBit,
            poison_retained: false,
        }],
        ..FaultPlan::default()
    };
    match run(true, corrupt) {
        Ok(healed) if healed.to_json() == traced.to_json() && healed.recovery.any() => {
            println!(
                "ok   jit: {} trace hit(s), superblocks report-invisible, corrupt batch healed \
                 (refetched={})",
                b.trace_hits, healed.recovery.transport.batches_refetched
            );
        }
        Ok(healed) => {
            println!(
                "FAIL jit-corrupt-batch: healed={} identical={}",
                healed.recovery.any(),
                healed.to_json() == traced.to_json()
            );
            failures += 1;
        }
        Err(e) => {
            println!("FAIL jit-corrupt-batch: pipeline error: {e}");
            failures += 1;
        }
    }
    failures
}

/// The second detector family through the healing contract: the VRT-armed
/// heap-overflow attack (DESIGN.md §15) must convict with zero false
/// negatives and dismiss the churn workload's false positives, stay
/// byte-identical with superblocks off, and heal a corrupted transport
/// batch back to the clean report — conviction included.
fn vrt_section(parallel_spans: usize) -> u32 {
    use rnr_safe::VerdictSummary;
    let run = |superblocks: bool, plan: FaultPlan| {
        let (spec, _attack) = rnr_attacks::mount_heap_overflow(&rnr_workloads::WorkloadParams::default(), 40);
        let cfg = PipelineConfig {
            duration_insns: 600_000,
            checkpoint_interval_secs: Some(0.125),
            parallel_spans,
            superblocks,
            vrt: Some(rnr_safe::vrt::VrtParams::default()),
            fault_plan: plan,
            ..PipelineConfig::default()
        };
        Pipeline::new(spec, cfg).run()
    };
    let clean = match run(true, FaultPlan::default()) {
        Ok(r) => r,
        Err(e) => {
            println!("FAIL vrt-fault-free: pipeline error: {e}");
            return 1;
        }
    };
    let mut failures = 0;
    let convicted = clean
        .resolutions
        .iter()
        .filter(|r| {
            matches!(&r.summary, VerdictSummary::MemoryViolation { class, .. } if class == "heap-overflow")
        })
        .count();
    let dismissed = clean
        .resolutions
        .iter()
        .filter(|r| matches!(&r.summary, VerdictSummary::FalsePositive { .. }))
        .count();
    if convicted == 0 {
        println!("FAIL vrt-fault-free: heap overflow not convicted (zero-FN contract broken)");
        failures += 1;
    }
    if dismissed == 0 {
        println!("FAIL vrt-fault-free: churn workload raised no dismissed false positives");
        failures += 1;
    }
    if clean.recovery.any() {
        println!("FAIL vrt-fault-free: recovery block not quiet: {:?}", clean.recovery);
        failures += 1;
    }
    match run(false, FaultPlan::default()) {
        Ok(plain) if plain.to_json() == clean.to_json() => {}
        Ok(_) => {
            println!("FAIL vrt-superblocks-off: report differs from superblocks-on run");
            failures += 1;
        }
        Err(e) => {
            println!("FAIL vrt-superblocks-off: pipeline error: {e}");
            failures += 1;
        }
    }
    let corrupt = FaultPlan {
        seed: SEED,
        transport: vec![TransportFault {
            seq: 0,
            kind: TransportFaultKind::CorruptBit,
            poison_retained: false,
        }],
        ..FaultPlan::default()
    };
    match run(true, corrupt) {
        Ok(healed) if healed.to_json() == clean.to_json() && healed.recovery.any() => {
            println!(
                "ok   vrt: {convicted} heap-overflow conviction(s), {dismissed} FP(s) dismissed, \
                 superblocks report-invisible, corrupt batch healed (refetched={})",
                healed.recovery.transport.batches_refetched
            );
        }
        Ok(healed) => {
            println!(
                "FAIL vrt-corrupt-batch: healed={} identical={}",
                healed.recovery.any(),
                healed.to_json() == clean.to_json()
            );
            failures += 1;
        }
        Err(e) => {
            println!("FAIL vrt-corrupt-batch: pipeline error: {e}");
            failures += 1;
        }
    }
    failures
}
