//! Equivalence of the pipeline's host-side execution strategies: span
//! replay, AR pool sizes, the decode cache, the block and trace engines and
//! the durable log are all wall-clock knobs — every one of them must leave
//! the recorded log, the virtual-cycle figures, and the verdicts
//! bit-identical. The pipeline always streams; the complete-log reference
//! (a CR over a finished recording) is checked at the replay layer, where
//! it lives.

use std::sync::Arc;

use rnr_attacks::mount_kernel_rop;
use rnr_hypervisor::{RecordConfig, RecordMode, Recorder};
use rnr_log::log_channel;
use rnr_ras::MispredictKind;
use rnr_replay::{
    checkpoint_groups, replay_spans, AlarmReplayer, CaseKind, ReplayConfig, ReplayOutcome, Replayer,
    VIRTUAL_HZ,
};
use rnr_safe::{Pipeline, PipelineConfig};
use rnr_workloads::{Workload, WorkloadParams};

/// A recorder with a live sink publishes exactly the log it keeps: the
/// streamed copy is byte-identical to the recording's own.
#[test]
fn streamed_log_is_byte_identical() {
    let spec = Workload::Mysql.spec(false);
    let plain = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 120_000)).unwrap().run();

    let mut recorder = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 120_000)).unwrap();
    let (sink, stream) = log_channel(8);
    recorder.stream_to(sink);
    let consumer = std::thread::spawn(move || stream.into_log());
    let streamed = recorder.run();
    let side_channel = consumer.join().unwrap();

    assert_eq!(plain.log.to_bytes(), streamed.log.to_bytes());
    assert_eq!(side_channel.to_bytes(), streamed.log.to_bytes());
    assert_eq!(plain.final_digest, streamed.final_digest);
}

/// The CR's figures on the mounted kernel-ROP attack, recorded once, are
/// identical whichever way the log reaches it: a serial CR over the
/// complete log, a serial CR over the live stream the recorder published
/// as it ran, and span replay over the complete log with the recorder's
/// seeds pre-filled into its seed channel.
#[test]
fn complete_log_reference_matches_live_stream_and_span_replay() {
    let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let cfg = ReplayConfig {
        checkpoint_interval: Some(VIRTUAL_HZ / 8),
        resilient: true,
        ..ReplayConfig::default()
    };
    let mut recorder = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 42, 900_000)).unwrap();
    let (sink, stream) = log_channel(rnr_log::DEFAULT_BATCH);
    recorder.stream_to(sink);
    let (seed_tx, seed_rx) = std::sync::mpsc::channel();
    recorder.seed_to(seed_tx, 900_000 / 8);
    let (rec, live) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || recorder.run());
        let live = Replayer::new(&spec, stream, cfg.clone()).run().unwrap();
        (handle.join().unwrap(), live)
    });
    assert!(rec.fault.is_none());
    let seeds: Vec<_> = seed_rx.try_iter().collect();
    assert!(seeds.len() >= 2, "the attack must be cut into several spans");

    let mut serial_cr = Replayer::new(&spec, Arc::clone(&rec.log), cfg.clone());
    serial_cr.verify_against(rec.final_digest);
    let serial = serial_cr.run().unwrap();
    assert_eq!(serial.verified, Some(true));
    assert!(!serial.alarm_cases.is_empty(), "the attack must escalate alarm cases");

    let (tx, rx) = std::sync::mpsc::channel();
    for seed in seeds {
        tx.send(seed).unwrap();
    }
    drop(tx);
    let span_cfg = ReplayConfig { parallel_spans: 2, ..cfg };
    let spans = replay_spans(&spec, Arc::clone(&rec.log).into(), rx, &span_cfg, Some(rec.final_digest), None)
        .unwrap()
        .outcome;
    assert_eq!(spans.verified, Some(true));

    let figures = |out: &ReplayOutcome| {
        let cases: Vec<_> =
            out.alarm_cases.iter().map(|c| (c.alarm_index, c.cr_cycle, c.checkpoint.at_insn)).collect();
        (
            out.cycles,
            out.checkpoints_taken,
            out.checkpoints_live_max,
            out.alarms_seen,
            out.underflows_cancelled,
            cases,
            out.final_digest,
        )
    };
    assert_eq!(figures(&live), figures(&serial), "live stream vs complete log");
    assert_eq!(live.final_digest, rec.final_digest);
    assert_eq!(figures(&spans), figures(&serial), "2-worker span replay vs serial CR");
}

/// One alarm-replay pass per checkpoint resolves every case exactly as a
/// lone replay of that case does: the full verdict (gadget chain, escaped
/// region, thread) and the AR cycles feeding the §8.4 window. Covered for
/// both detector families (longjmp storms with the VRT armed), the RAS
/// family's target-mismatch cases on `make`, and the convicted kernel-ROP
/// attack — each with at least one checkpoint shared by several cases, so
/// later cases of a pass are classified after earlier ones.
#[test]
fn grouped_alarm_replay_matches_per_case_resolution() {
    let rop = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap().0;
    let runs = [
        ("longjmp+vrt", Workload::Longjmp.spec(false), Some(rnr_vrt::VrtParams::default()), 600_000, 0.05),
        ("make", Workload::Make.spec(false), None, 2_000_000, 0.05),
        ("rop", rop, None, 900_000, 0.125),
    ];
    for (name, spec, vrt, insns, secs) in runs {
        let mut rc = RecordConfig::new(RecordMode::Rec, 42, insns);
        rc.vrt = vrt.clone();
        let rec = Recorder::new(&spec, rc).unwrap().run();
        assert!(rec.fault.is_none(), "{name}");
        let cfg = ReplayConfig {
            checkpoint_interval: Some((secs * VIRTUAL_HZ as f64) as u64),
            vrt,
            ..ReplayConfig::default()
        };
        let cases = Replayer::new(&spec, Arc::clone(&rec.log), cfg.clone()).run().unwrap().alarm_cases;
        let groups = checkpoint_groups(&cases);
        assert!(groups.iter().any(|g| g.len() >= 2), "{name}: no checkpoint is shared by two cases");
        let mismatch = cases.iter().any(
            |c| matches!(c.kind, CaseKind::Ras(info) if info.mispredict.kind == MispredictKind::TargetMismatch),
        );
        assert!(mismatch, "{name}: needs RAS mismatch cases");
        if name == "longjmp+vrt" {
            assert!(cases.iter().any(|c| matches!(c.kind, CaseKind::Vrt(_))), "{name}: needs VRT cases");
        }

        let ar = AlarmReplayer::new(&spec, Arc::clone(&rec.log)).with_config(cfg);
        let grouped: Vec<_> = groups
            .iter()
            .flat_map(|g| ar.resolve_group(&cases[g.clone()]))
            .map(|r| {
                let r = r.unwrap();
                (format!("{:?}", r.verdict), r.ar_cycles)
            })
            .collect();
        let per_case: Vec<_> = cases
            .iter()
            .map(|c| {
                let (verdict, out) = ar.resolve(c).unwrap();
                (format!("{verdict:?}"), out.cycles)
            })
            .collect();
        assert_eq!(grouped.len(), cases.len(), "{name}");
        for (i, (g, p)) in grouped.iter().zip(&per_case).enumerate() {
            assert_eq!(g, p, "{name}: case {i} differs between its group's pass and a lone replay");
        }
        if name == "rop" {
            assert!(
                grouped.iter().any(|(v, _)| v.starts_with("RopAttack")),
                "{name}: the attack is convicted"
            );
        }
    }
}

/// On the mounted kernel-ROP attack, every host-side strategy — a bigger
/// AR pool, no decode cache, no block or trace engine — reproduces the
/// default report exactly, verdicts and detection window included.
#[test]
fn attack_pipeline_equivalent_across_configs() {
    let base_cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        ..PipelineConfig::default()
    };
    let run = |cfg: PipelineConfig| {
        let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let base = run(base_cfg.clone());
    assert!(base.attacks_confirmed() >= 1);
    assert!(base.detection.is_some());

    let pooled = run(PipelineConfig { ar_workers: 4, ..base_cfg.clone() });
    assert_eq!(base.to_json(), pooled.to_json(), "AR pool size changed the report");

    let no_cache = run(PipelineConfig { decode_cache: false, ..base_cfg.clone() });
    assert_eq!(base.to_json(), no_cache.to_json(), "decode cache changed the report");

    let stepped = run(PipelineConfig { block_engine: false, ..base_cfg.clone() });
    assert_eq!(base.to_json(), stepped.to_json(), "block engine changed the report");

    let no_traces = run(PipelineConfig { superblocks: false, ..base_cfg.clone() });
    assert_eq!(base.to_json(), no_traces.to_json(), "superblock traces changed the report");

    let bare = run(PipelineConfig { ar_workers: 1, decode_cache: false, block_engine: false, ..base_cfg });
    assert_eq!(base.to_json(), bare.to_json(), "all wall-clock knobs off diverged");
}

/// The decode cache changes nothing a benign pipeline can observe: digest
/// verification passes and the report (cycles, alarm resolutions) is
/// bit-identical with the cache off.
#[test]
fn benign_pipeline_decode_cache_equivalent() {
    let run = |decode_cache: bool| {
        let spec = Workload::Radiosity.spec(false);
        let cfg = PipelineConfig { duration_insns: 200_000, decode_cache, ..PipelineConfig::default() };
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let cached = run(true);
    let plain = run(false);
    assert!(cached.replay.verified);
    assert_eq!(cached.to_json(), plain.to_json());
}

/// The block engine changes nothing a benign pipeline can observe: the full
/// record → verify → alarm-replay report is bit-identical with block
/// execution off, and the optimized run actually exercised the block cache.
#[test]
fn benign_pipeline_block_engine_equivalent() {
    let run = |block_engine: bool| {
        let spec = Workload::Make.spec(false);
        let cfg = PipelineConfig { duration_insns: 200_000, block_engine, ..PipelineConfig::default() };
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let blocked = run(true);
    let stepped = run(false);
    assert!(blocked.replay.verified);
    assert_eq!(blocked.to_json(), stepped.to_json());
    assert_eq!(blocked.record.cycles, stepped.record.cycles);
    assert!(blocked.block_stats.hits > 0, "block cache never hit");
    assert_eq!(stepped.block_stats.hits, 0, "block stats leaked from a stepped run");
}

/// The superblock trace engine changes nothing a benign pipeline can
/// observe, even on the adversarial self-modifying JIT workload: the report
/// is bit-identical with traces off, and the optimized run actually formed
/// and dispatched traces despite the code churn.
#[test]
fn benign_pipeline_superblocks_equivalent_on_jit() {
    let run = |superblocks: bool| {
        let spec = Workload::Jit.spec(false);
        let cfg = PipelineConfig { duration_insns: 250_000, superblocks, ..PipelineConfig::default() };
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let traced = run(true);
    let plain = run(false);
    assert!(traced.replay.verified);
    assert_eq!(traced.to_json(), plain.to_json());
    assert_eq!(traced.record.cycles, plain.record.cycles);
    assert!(traced.block_stats.trace_hits > 0, "trace cache never dispatched on the JIT workload");
    assert_eq!(plain.block_stats.trace_hits, 0, "trace stats leaked from a blocks-only run");
}

/// The block engine is bit-exact against the single-step interpreter on its
/// hardest edges, combined in one guest program: self-modifying code that
/// overwrites an instruction inside the currently cached block, a breakpoint
/// planted mid-block (re-armed with a skip every pass), an interrupt window
/// opening mid-stream, and retired budgets that chop blocks at odd offsets.
#[test]
fn block_engine_edge_cases_match_single_step() {
    use rnr_isa::{Assembler, Instruction, Opcode, Reg};
    use rnr_machine::{Exit, GuestVm, MachineConfig, RunBudget};

    let program = || {
        let mut asm = Assembler::new(0x1000);
        let patch = Instruction::new(Opcode::Addi, Reg::R2, Reg::R2, Reg::R0, 7);
        asm.movi(Reg::R1, 0);
        asm.movi(Reg::R6, 9); // loop iterations
        asm.lea(Reg::R5, "patch");
        asm.movi64(Reg::R4, u64::from_le_bytes(patch.encode()));
        asm.label("loop");
        asm.addi(Reg::R1, Reg::R1, 1);
        asm.addi(Reg::R2, Reg::R2, 3);
        asm.xor(Reg::R3, Reg::R1, Reg::R2);
        asm.st(Reg::R5, 0, Reg::R4); // SMC: "patch" sits later in this very block
        asm.label("patch");
        asm.nop(); // becomes `addi r2, r2, 7` after the first pass
        asm.sti();
        asm.cli();
        asm.bne(Reg::R1, Reg::R6, "loop");
        asm.hlt();
        asm.assemble().unwrap()
    };

    let vm_at = |block_engine: bool, entry_skew: u64| {
        let cfg = MachineConfig { block_engine, ..MachineConfig::default() };
        let mut vm = GuestVm::new(cfg, &[]);
        let img = program();
        vm.mem_mut().write_bytes(img.base(), img.bytes()).unwrap();
        vm.set_entry(img.base() + entry_skew);
        vm.cpu_mut().set_sp(0x8000);
        (vm, img)
    };

    let trace = |block_engine: bool| {
        let (mut vm, img) = vm_at(block_engine, 0);
        vm.add_breakpoint(img.require_symbol("loop") + 16); // the `xor`, mid-block
        vm.request_interrupt_window();
        let mut events = Vec::new();
        let mut until = 5;
        for _ in 0..600 {
            let exit = vm.run(RunBudget::until(until));
            events.push((exit.clone(), vm.retired(), vm.cycles()));
            match exit {
                Exit::Halt => break,
                Exit::Breakpoint { .. } => vm.skip_breakpoint_once(),
                Exit::BudgetExhausted => until = vm.retired() + 5,
                _ => {}
            }
        }
        (events, vm.digest(), vm.cpu().reg(Reg::R2))
    };
    let blocked = trace(true);
    let stepped = trace(false);
    assert_eq!(blocked, stepped);
    assert!(matches!(blocked.0.last(), Some((Exit::Halt, ..))));

    // Hijacked-return style entry: an unaligned PC decodes a skewed byte
    // stream; the block engine must defer to single-stepping and stay exact.
    let skewed = |block_engine: bool| {
        let (mut vm, _img) = vm_at(block_engine, 4);
        let mut events = Vec::new();
        for _ in 0..40 {
            let exit = vm.run(RunBudget::until(vm.retired() + 7));
            events.push((exit.clone(), vm.retired(), vm.cycles()));
            if !matches!(exit, Exit::BudgetExhausted) {
                break;
            }
        }
        (events, vm.digest())
    };
    assert_eq!(skewed(true), skewed(false));
}

/// Checkpoint-partitioned span replay is a pure wall-clock knob: for every
/// worker count, workload, and block-engine setting, the parallel pipeline
/// report is byte-identical to the serial one of the same configuration.
/// The matrix runs the full adversarial set — including the VRT-stressing
/// `HeapServer` and `Longjmp` workloads — with the VRT detector armed, so
/// memory-safety alarm cases ride the span-partitioned escalation path too.
#[test]
fn parallel_span_replay_matches_serial_across_matrix() {
    for workload in Workload::ADVERSARIAL {
        for block_engine in [true, false] {
            let run = |parallel_spans: usize| {
                let cfg = PipelineConfig {
                    duration_insns: 250_000,
                    block_engine,
                    parallel_spans,
                    vrt: Some(rnr_vrt::VrtParams::default()),
                    ..PipelineConfig::default()
                };
                Pipeline::new(workload.spec(false), cfg).run().unwrap()
            };
            let serial = run(0);
            assert!(serial.replay.verified);
            assert_eq!(serial.attacks_confirmed(), 0, "{workload:?}: benign run convicted");
            for workers in [1, 2, 4, 8] {
                let parallel = run(workers);
                assert_eq!(
                    parallel.to_json(),
                    serial.to_json(),
                    "{workload:?} block_engine={block_engine} workers={workers}: report diverged"
                );
            }
        }
    }
}

/// On the mounted attack, span-parallel verification reproduces the serial
/// report exactly — verdicts, detection window, and alarm resolutions
/// included.
#[test]
fn attack_pipeline_parallel_spans_match_serial() {
    let base_cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        ..PipelineConfig::default()
    };
    let run = |cfg: PipelineConfig| {
        let (spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
        Pipeline::new(spec, cfg).run().unwrap()
    };
    let serial = run(base_cfg.clone());
    assert!(serial.attacks_confirmed() >= 1);
    for workers in [2, 4] {
        let parallel = run(PipelineConfig { parallel_spans: workers, ..base_cfg.clone() });
        assert_eq!(serial.to_json(), parallel.to_json(), "{workers} span workers");
    }
}

/// The `durable_log` knob is report-invisible across its interaction
/// corners: persistence on vs off, crossed with span-parallel replay and
/// the superblock trace engine, always yields a byte-identical report.
#[test]
fn durable_log_equivalent_across_parallel_and_superblock_corners() {
    let scratch = std::env::temp_dir().join(format!("rnr-eq-corners-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let run = |durable: Option<&str>, parallel_spans: usize, superblocks: bool| {
        let cfg = PipelineConfig {
            duration_insns: 250_000,
            parallel_spans,
            superblocks,
            durable_log: durable.map(|tag| rnr_log::DurableLogConfig::new(scratch.join(tag))),
            ..PipelineConfig::default()
        };
        Pipeline::new(Workload::Jit.spec(false), cfg).run().unwrap()
    };
    let reference = run(None, 0, true);
    assert!(reference.replay.verified);
    for parallel_spans in [0, 2] {
        for superblocks in [true, false] {
            let tag = format!("p{parallel_spans}-s{superblocks}");
            let durable = run(Some(&tag), parallel_spans, superblocks);
            let plain = run(None, parallel_spans, superblocks);
            assert_eq!(
                plain.to_json(),
                reference.to_json(),
                "spans={parallel_spans} superblocks={superblocks}: baseline diverged"
            );
            assert_eq!(
                durable.to_json(),
                reference.to_json(),
                "spans={parallel_spans} superblocks={superblocks}: durable_log changed the report"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A farm of N sessions is N serial pipelines: for every corner of
/// (superblocks × farm-owned durable store × session slots), each
/// session's report out of the fleet is byte-identical to its own serial
/// [`Pipeline`] run.
#[test]
fn replay_farm_matches_serial_across_corner_matrix() {
    use rnr_safe::{Farm, FarmConfig, SessionSpec};
    let scratch = std::env::temp_dir().join(format!("rnr-farm-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    for superblocks in [true, false] {
        let cfg = PipelineConfig { duration_insns: 200_000, superblocks, ..PipelineConfig::default() };
        let sessions = || {
            vec![
                SessionSpec::new("jit", Workload::Jit.spec(false), cfg.clone()),
                SessionSpec::new("mysql", Workload::Mysql.spec(false), cfg.clone()),
            ]
        };
        let serial: Vec<String> = sessions()
            .iter()
            .map(|s| Pipeline::new(s.vm.clone(), s.config.clone()).run().unwrap().to_json())
            .collect();
        for durable in [false, true] {
            for workers in [1, 3] {
                // A fresh store root per corner: the farm lays down
                // `session-<id>` segment stores only where one is given.
                let durable_root = durable.then(|| scratch.join(format!("s{superblocks}-w{workers}")));
                let farm = Farm::new(FarmConfig { workers, durable_root });
                let report = farm.run(&sessions());
                for (outcome, expected) in report.sessions.iter().zip(&serial) {
                    let got = outcome
                        .result
                        .as_ref()
                        .unwrap_or_else(|e| {
                            panic!(
                                "superblocks={superblocks} durable={durable} workers={workers} \
                                 session {}: farm failed: {e}",
                                outcome.name
                            )
                        })
                        .to_json();
                    assert_eq!(
                        got, *expected,
                        "superblocks={superblocks} durable={durable} workers={workers} \
                         session {}: farm report diverged from serial",
                        outcome.name
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Adversarial interleaving: an alarm-storming attack session escalates a
/// stream of AR cases while a self-modifying JIT and a quiet build run
/// beside it on a two-slot farm. Every report — the attack's verdicts and
/// detection window included — is byte-identical to its serial reference.
#[test]
fn replay_farm_alarm_storm_does_not_disturb_siblings() {
    use rnr_safe::{Farm, FarmConfig, SessionSpec};
    let (attack_spec, _plan) = mount_kernel_rop(&WorkloadParams::attack_demo(), 1_200_000).unwrap();
    let attack_cfg = PipelineConfig {
        duration_insns: 900_000,
        checkpoint_interval_secs: Some(0.125),
        ..PipelineConfig::default()
    };
    let quiet_cfg = PipelineConfig { duration_insns: 250_000, ..PipelineConfig::default() };
    let sessions = vec![
        SessionSpec::new("attack", attack_spec, attack_cfg),
        SessionSpec::new("jit", Workload::Jit.spec(false), quiet_cfg.clone()),
        SessionSpec::new("make", Workload::Make.spec(false), quiet_cfg),
    ];
    let serial: Vec<_> =
        sessions.iter().map(|s| Pipeline::new(s.vm.clone(), s.config.clone()).run().unwrap()).collect();
    assert!(serial[0].attacks_confirmed() >= 1, "the reference attack must be confirmed");

    let farm = Farm::new(FarmConfig { workers: 2, ..FarmConfig::default() });
    let report = farm.run(&sessions);
    assert!(report.all_ok(), "every fleet session must complete");
    for (outcome, expected) in report.sessions.iter().zip(&serial) {
        let got = outcome.result.as_ref().unwrap();
        assert_eq!(
            got.to_json(),
            expected.to_json(),
            "session {}: farm report diverged under the alarm storm",
            outcome.name
        );
    }
}

/// `Arc`-shared logs replay without copies: two replayers can hold the same
/// recording concurrently.
#[test]
fn shared_log_supports_concurrent_replayers() {
    let spec = Workload::Fileio.spec(false);
    let rec = Recorder::new(&spec, RecordConfig::new(RecordMode::Rec, 7, 100_000)).unwrap().run();
    let digest = rec.final_digest;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let log = Arc::clone(&rec.log);
            let spec = &spec;
            scope.spawn(move || {
                let mut r = rnr_replay::Replayer::new(spec, log, rnr_replay::ReplayConfig::default());
                r.verify_against(digest);
                assert_eq!(r.run().unwrap().verified, Some(true));
            });
        }
    });
}
