//! The §3 policy knobs and the guest-kernel corner cases the paper calls
//! out: stall-on-alarm, bug-recovery (oops) thread termination, and thread
//! ID reuse.

use rnr_attacks::mount_kernel_rop;
use rnr_guest::{layout, runtime, KernelBuilder};
use rnr_hypervisor::{Introspector, RecordConfig, RecordMode, Recorder, VmSpec};
use rnr_isa::{Assembler, Reg};
use rnr_safe::{Pipeline, PipelineConfig};
use rnr_workloads::WorkloadParams;

/// §3: "the recorded VM may be stopped until the alarm is analyzed". With
/// the stall policy the §6 attack is frozen *before* any gadget executes:
/// the privilege flag never flips.
#[test]
fn stall_on_alarm_freezes_the_attack_before_damage() {
    let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        stall_on_alarm: true,
        ..PipelineConfig::default()
    };
    let report = Pipeline::new(spec, cfg).run().unwrap();
    assert!(report.record.stalled, "the recorder must stall at the alarm");
    assert_eq!(report.record.priv_flag, 0, "no gadget ran: privilege never escalated");
    // The alarm replayer still convicts from the log prefix.
    assert!(report.attacks_confirmed() >= 1);
    assert!(report.replay.verified);
}

/// The continue policy (the default) lets the attack finish — the §6 demo's
/// forensic contrast.
#[test]
fn continue_policy_lets_the_attack_escalate() {
    let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        stall_on_alarm: false,
        ..PipelineConfig::default()
    };
    let report = Pipeline::new(spec, cfg).run().unwrap();
    assert!(!report.record.stalled);
    assert_eq!(report.record.priv_flag, 0x1337);
    assert!(report.attacks_confirmed() >= 1);
}

/// Builds a custom guest whose worker triggers the kernel bug-recovery path
/// (`SYS_OOPS`) once and then a sibling keeps running: the kernel survives,
/// the oops counter is introspectable, and replay still verifies.
#[test]
fn kernel_oops_terminates_thread_and_replay_verifies() {
    let kernel = KernelBuilder::new().build();
    let mut a = Assembler::new(layout::USER_BASE);
    // Thread A: some work, then hit a recoverable kernel bug.
    a.label("victim_main");
    a.movi(Reg::R1, 500);
    a.call("u_compute");
    a.call("u_oops"); // never returns: the kernel kills this thread
    a.label("victim_unreachable");
    a.jmp("victim_unreachable");
    // Thread B: plain compute loop.
    a.label("worker_main");
    a.movi(Reg::R1, 400);
    a.call("u_compute");
    a.jmp("worker_main");
    runtime::emit_runtime(&mut a);
    let image = a.assemble().unwrap();

    let mut spec = VmSpec::new(kernel, "oops-demo");
    spec.boot.user_thread(image.require_symbol("victim_main"));
    spec.boot.user_thread(image.require_symbol("worker_main"));
    spec.extra_images.push(image);

    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 3, 200_000)).unwrap().run();
    assert!(rec.fault.is_none(), "{:?}", rec.fault);
    assert_eq!(rec.retired, 200_000, "the surviving worker keeps the guest running");
    // The oops path logged its console marker and bumped the counter.
    assert!(rec.console.contains(&b'!'), "oops marker expected");

    // Replay reproduces the oops bit-exactly.
    let mut r = rnr_replay::Replayer::new(
        &spec,
        std::sync::Arc::clone(&rec.log),
        rnr_replay::ReplayConfig::default(),
    );
    r.verify_against(rec.final_digest);
    let out = r.run().unwrap();
    assert_eq!(out.verified, Some(true));
    assert_eq!(out.console, rec.console);
}

/// §5.2.2: thread IDs are reused, and the BackRAS recycling keeps reused
/// IDs from inheriting stale return addresses. The spawner churns through
/// short-lived children far beyond the slot count.
#[test]
fn thread_id_reuse_is_clean() {
    let kernel = KernelBuilder::new().build();
    let intro = Introspector::new(&kernel);
    let mut a = Assembler::new(layout::USER_BASE);
    a.label("spawner_main");
    a.label("sp_loop");
    a.lea(Reg::R1, "child_main");
    a.movi(Reg::R2, 0);
    a.call("u_spawn");
    a.call("u_yield");
    a.jmp("sp_loop");
    a.label("child_main");
    a.movi(Reg::R1, 60);
    a.call("u_recurse"); // deeper than the RAS: exercises evict + underflow
    a.call("u_exit");
    runtime::emit_runtime(&mut a);
    let image = a.assemble().unwrap();

    let mut spec = VmSpec::new(kernel, "reuse-demo");
    spec.boot.user_thread(image.require_symbol("spawner_main"));
    spec.extra_images.push(image);

    let mut rc = RecordConfig::new(RecordMode::Rec, 9, 400_000);
    rc.ras_capacity = 16;
    let rec = Recorder::new(&spec, rc).unwrap().run();
    assert!(rec.fault.is_none(), "{:?}", rec.fault);
    let _ = intro; // introspector built from the same contract

    // Massive churn happened (far more creations than slots)...
    assert!(rec.context_switches > 50, "switch churn expected, got {}", rec.context_switches);
    // ...and the CR resolves every resulting underflow via evict matching:
    // nothing of this benign churn survives to an alarm replayer as an
    // attack.
    let log = std::sync::Arc::clone(&rec.log);
    let out = rnr_replay::Replayer::new(
        &spec,
        std::sync::Arc::clone(&log),
        rnr_replay::ReplayConfig { ras_capacity: 16, ..rnr_replay::ReplayConfig::default() },
    )
    .run()
    .unwrap();
    let ar = rnr_replay::AlarmReplayer::new(&spec, log)
        .with_config(rnr_replay::ReplayConfig { ras_capacity: 16, ..rnr_replay::ReplayConfig::default() });
    for case in &out.alarm_cases {
        let (verdict, _) = ar.resolve(case).unwrap();
        assert!(!verdict.is_attack(), "churn misclassified: {:?} -> {verdict:?}", case.kind);
    }
}

/// Parallel and sequential alarm replay produce identical verdicts
/// (determinism survives concurrency).
#[test]
fn parallel_alarm_replay_matches_sequential() {
    let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let run = |ar_workers| {
        let cfg = PipelineConfig {
            duration_insns: 900_000,
            checkpoint_interval_secs: Some(0.125),
            ar_workers,
            ..PipelineConfig::default()
        };
        Pipeline::new(spec.clone(), cfg).run().unwrap()
    };
    let par = run(0);
    let seq = run(1);
    assert_eq!(par.resolutions.len(), seq.resolutions.len());
    assert_eq!(par.attacks_confirmed(), seq.attacks_confirmed());
    for (a, b) in par.resolutions.iter().zip(&seq.resolutions) {
        assert_eq!(a.at_insn, b.at_insn);
        assert_eq!(a.verdict.is_attack(), b.verdict.is_attack());
        assert_eq!(a.ar_cycles, b.ar_cycles);
    }
}
