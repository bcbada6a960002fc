//! Interpreter robustness: arbitrary byte soup must never panic the VM —
//! it either executes, exits, or faults. (Gadget-chasing attackers jump
//! into the middle of anything.)

use proptest::prelude::*;
use rnr_isa::{Assembler, Instruction, Opcode, Reg};
use rnr_machine::{Exit, GuestVm, MachineConfig, RunBudget, SharedPageCache};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random memory contents, random entry point: the VM always reaches a
    /// clean exit within the budget.
    #[test]
    fn random_code_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 64..2048),
        entry_slot in 0usize..64,
        sp in 0x2000u64..0x3_0000,
    ) {
        let mut config = MachineConfig::default();
        config.exits.rdtsc_exiting = false;
        let mut vm = GuestVm::new(config, &[]);
        vm.mem_mut().write_bytes(0x1000, &bytes).unwrap();
        vm.set_entry(0x1000 + (entry_slot as u64 * 8) % bytes.len() as u64);
        vm.cpu_mut().set_sp(sp);
        // Drive through a bounded number of exits.
        let mut retired_target = 2_000;
        for _ in 0..50 {
            match vm.run(RunBudget::until(retired_target)) {
                Exit::BudgetExhausted | Exit::Fault(_) | Exit::Halt => break,
                Exit::Rdtsc { rd } | Exit::PioIn { rd, .. } | Exit::MmioRead { rd, .. } => {
                    vm.finish_io(rnr_machine::FinishIo::Read { rd, value: 7 });
                }
                Exit::PioOut { .. } | Exit::MmioWrite { .. } => {
                    vm.finish_io(rnr_machine::FinishIo::Write);
                }
                Exit::Vmcall => {
                    vm.finish_io(rnr_machine::FinishIo::Read { rd: Reg::R1, value: 0 });
                }
                Exit::Breakpoint { .. } => vm.skip_breakpoint_once(),
                _ => {}
            }
            retired_target = vm.retired() + 100;
        }
    }

    /// Differential check of the three execution engines — single-step,
    /// block dispatch, superblock traces — on randomized hot loops: the
    /// exit sequence, retired count, and virtual cycles at every exit, the
    /// final digest, and the loop's accumulator register must be identical.
    /// The iteration count is drawn past the trace-formation threshold so
    /// the superblock run genuinely forms and dispatches traces; the budget
    /// schedule is chopped at random offsets so traces are sliced by the
    /// event horizon mid-body; an optional self-modifying store rewrites an
    /// op byte inside the traced loop to exercise precise invalidation.
    #[test]
    fn execution_engines_agree_on_random_hot_loops(
        iters in 80i32..150,
        chunks in prop::collection::vec(3u64..97, 4..12),
        ops in prop::collection::vec(0u8..6, 2..8),
        smc in any::<bool>(),
    ) {
        let image = {
            let mut asm = Assembler::new(0x1000);
            asm.movi(Reg::R1, 0);
            asm.movi(Reg::R6, iters);
            if smc {
                let patch = Instruction::new(Opcode::Addi, Reg::R2, Reg::R2, Reg::R0, 5);
                asm.lea(Reg::R5, "patch");
                asm.movi64(Reg::R4, u64::from_le_bytes(patch.encode()));
            }
            asm.label("loop");
            asm.addi(Reg::R1, Reg::R1, 1);
            for &op in &ops {
                match op {
                    0 => asm.addi(Reg::R2, Reg::R2, 3),
                    1 => asm.xor(Reg::R3, Reg::R1, Reg::R2),
                    2 => asm.add(Reg::R2, Reg::R2, Reg::R3),
                    3 => asm.mul(Reg::R3, Reg::R2, Reg::R1),
                    4 => asm.shli(Reg::R3, Reg::R2, 3),
                    _ => asm.sub(Reg::R3, Reg::R1, Reg::R2),
                };
            }
            if smc {
                asm.st(Reg::R5, 0, Reg::R4);
                asm.label("patch");
                asm.nop(); // becomes `addi r2, r2, 5` after the first pass
            }
            asm.bne(Reg::R1, Reg::R6, "loop");
            asm.hlt();
            asm.assemble().unwrap()
        };
        let run = |block_engine: bool, superblocks: bool| {
            let cfg = MachineConfig { block_engine, superblocks, ..MachineConfig::default() };
            let mut vm = GuestVm::new(cfg, &[&image]);
            vm.set_entry(image.base());
            vm.cpu_mut().set_sp(0x8000);
            let mut events = Vec::new();
            let mut target = 0u64;
            for i in 0.. {
                target += chunks[i % chunks.len()];
                let exit = vm.run(RunBudget::until(target));
                events.push((exit.clone(), vm.retired(), vm.cycles()));
                if !matches!(exit, Exit::BudgetExhausted) || i > 20_000 {
                    break;
                }
            }
            let trace_hits = vm.block_stats().trace_hits;
            ((events, vm.digest(), vm.cpu().reg(Reg::R2)), trace_hits)
        };
        let (stepped, _) = run(false, false);
        let (blocks, block_traces) = run(true, false);
        let (traced, trace_hits) = run(true, true);
        prop_assert!(matches!(stepped.0.last(), Some((Exit::Halt, ..))));
        prop_assert_eq!(&blocks, &stepped, "block engine diverged from single-step");
        prop_assert_eq!(&traced, &stepped, "superblock traces diverged from single-step");
        prop_assert_eq!(block_traces, 0, "trace stats leaked from a blocks-only run");
        // With the self-modifying store the block engine's SMC early-commit
        // fires every pass and edge profiling never sees the back edge, so
        // no trace forms — only the clean loop must actually trace.
        prop_assert!(smc || trace_hits > 0, "hot loop never dispatched a trace");
    }

    /// Every decodable instruction executes without panicking, from any
    /// register state.
    #[test]
    fn every_opcode_executes_safely(
        op_byte in 0u8..=0xff,
        rd in 0u8..16,
        rs1 in 0u8..16,
        rs2 in 0u8..16,
        imm in any::<i32>(),
        regs in prop::collection::vec(any::<u64>(), 16),
    ) {
        let Ok(op) = Opcode::from_byte(op_byte) else { return Ok(()) };
        let insn = Instruction::new(op, Reg::from_index(rd), Reg::from_index(rs1), Reg::from_index(rs2), imm);
        let mut asm = Assembler::new(0x1000);
        asm.emit(insn);
        asm.hlt();
        let image = asm.assemble().unwrap();
        let mut config = MachineConfig::default();
        config.exits.rdtsc_exiting = false;
        let mut vm = GuestVm::new(config, &[&image]);
        vm.set_entry(0x1000);
        for (i, r) in Reg::ALL.into_iter().enumerate() {
            vm.cpu_mut().set_reg(r, regs[i]);
        }
        // Clamp sp into memory so pushes have somewhere to go (pushes to
        // wild sp must fault, not panic — also exercised).
        let _ = vm.run(RunBudget::until(4));
    }
}

/// Every slot of the kernel's text decodes — the fixed 8-byte encoding is
/// total over the code region (the gadget scanner depends on this).
#[test]
fn kernel_text_is_fully_decodable() {
    let kernel = rnr_guest::KernelBuilder::new().build();
    let image = kernel.image();
    // Code runs from the base to the data section (the first data label).
    let text_end = image.require_symbol("current");
    let mut addr = image.base();
    let mut count = 0;
    while addr < text_end {
        image.decode_at(addr).unwrap_or_else(|e| panic!("undecodable kernel text at {addr:#x}: {e}"));
        addr += 8;
        count += 1;
    }
    assert!(count > 300, "kernel text should be substantial, got {count} instructions");
}

/// Two VMs of one page lineage on one shared pool: a leader built from the
/// image and a trailer restored to the leader's page `Arc`s, run in
/// interleaved slices. Each VM builds blocks into a page cache that is
/// already current, so the pool serves only the trailer's first miss in the
/// code page; neither VM re-adopts the pool's copy of a page it holds. The
/// pool is wall-clock only: both VMs end exactly where a pool-less VM does.
#[test]
fn shared_pool_imports_only_into_absent_or_stale_pages() {
    let image = {
        let mut asm = Assembler::new(0x1000);
        asm.movi(Reg::R1, 0);
        asm.movi(Reg::R6, 300);
        asm.label("loop");
        asm.addi(Reg::R1, Reg::R1, 1);
        asm.andi(Reg::R3, Reg::R1, 3);
        asm.beq(Reg::R3, Reg::R0, "quad");
        asm.addi(Reg::R2, Reg::R2, 7);
        asm.jmp("next");
        asm.label("quad");
        asm.call("mix");
        asm.label("next");
        asm.bne(Reg::R1, Reg::R6, "loop");
        asm.hlt();
        asm.label("mix");
        asm.xor(Reg::R2, Reg::R2, Reg::R1);
        asm.ret();
        asm.assemble().unwrap()
    };
    let start = |vm: &mut GuestVm| {
        vm.set_entry(image.base());
        vm.cpu_mut().set_sp(0x8000);
    };
    let mut alone = GuestVm::new(MachineConfig::default(), &[&image]);
    start(&mut alone);
    assert_eq!(alone.run(RunBudget::unbounded()), Exit::Halt);

    let pool = std::sync::Arc::new(SharedPageCache::new());
    let mut leader = GuestVm::new(MachineConfig::default(), &[&image]);
    let mut trailer = GuestVm::new(MachineConfig::default(), &[]);
    trailer.mem_mut().restore_pages(leader.mem().snapshot_pages());
    for vm in [&mut leader, &mut trailer] {
        start(vm);
        vm.attach_shared_cache(std::sync::Arc::clone(&pool));
    }
    let mut target = 0;
    let (mut leader_exit, mut trailer_exit) = (Exit::BudgetExhausted, Exit::BudgetExhausted);
    while leader_exit == Exit::BudgetExhausted || trailer_exit == Exit::BudgetExhausted {
        target += 7;
        if leader_exit == Exit::BudgetExhausted {
            leader_exit = leader.run(RunBudget::until(target));
        }
        if trailer_exit == Exit::BudgetExhausted {
            trailer_exit = trailer.run(RunBudget::until(target));
        }
    }
    assert_eq!((leader_exit, trailer_exit), (Exit::Halt, Exit::Halt));
    assert_eq!(
        leader.block_stats().shared_imports,
        0,
        "the leader's code page is never absent when it misses"
    );
    assert_eq!(trailer.block_stats().shared_imports, 1, "one import, into the trailer's absent code page");
    assert!(alone.block_stats().trace_hits > 0, "the loop runs hot enough to form traces");
    for vm in [&leader, &trailer] {
        assert_eq!(
            (vm.digest(), vm.cycles(), vm.retired()),
            (alone.digest(), alone.cycles(), alone.retired())
        );
    }
}
