//! Edge-case integration tests for the VM: cross-thread deadlock, the
//! defensive step limit and the fuel budget, reentrant locking through
//! helper calls, and blocked-thread wakeup.

use snowcat_kernel::gen::KernelBuilder;
use snowcat_kernel::{CmpOp, Instr, Kernel, Reg, SyscallId, ThreadId};
use snowcat_vm::{
    run_ct, run_sequential, Cti, ExitReason, ScheduleHints, Sti, SwitchPoint, SyscallInvocation,
    VmConfig,
};

/// Kernel with two syscalls that acquire two locks in opposite orders, plus
/// one self-looping syscall, plus one that locks recursively via a helper.
fn crafted_kernel() -> Kernel {
    let mut kb = KernelBuilder::new();
    let sub = kb.add_subsystem("crafted");
    let _region =
        kb.alloc_region(sub, snowcat_kernel::program::RegionKind::Flags, 8, "crafted.flags", 0);
    let l1 = kb.alloc_lock(sub);
    let l2 = kb.alloc_lock(sub);

    // lock_ab: L1 then (after a window) L2.
    let f_ab = kb.begin_func("crafted_lock_ab", sub);
    kb.emit(Instr::Lock { lock: l1 });
    for _ in 0..5 {
        kb.emit(Instr::Nop);
    }
    kb.emit(Instr::Lock { lock: l2 });
    kb.emit(Instr::Unlock { lock: l2 });
    kb.emit(Instr::Unlock { lock: l1 });
    kb.end_func();
    kb.add_syscall("crafted_lock_ab", f_ab, sub, vec![]);

    // lock_ba: L2 then L1.
    let f_ba = kb.begin_func("crafted_lock_ba", sub);
    kb.emit(Instr::Lock { lock: l2 });
    for _ in 0..5 {
        kb.emit(Instr::Nop);
    }
    kb.emit(Instr::Lock { lock: l1 });
    kb.emit(Instr::Unlock { lock: l1 });
    kb.emit(Instr::Unlock { lock: l2 });
    kb.end_func();
    kb.add_syscall("crafted_lock_ba", f_ba, sub, vec![]);

    // spin: a block that jumps to itself forever.
    let f_spin = kb.begin_func("crafted_spin", sub);
    let entry = kb.cur();
    kb.emit(Instr::Nop);
    kb.jump_to(entry);
    // `end_func` would overwrite the terminator; close manually by opening a
    // dead block.
    let dead = kb.new_block();
    kb.set_cur(dead);
    kb.end_func();
    kb.add_syscall("crafted_spin", f_spin, sub, vec![]);

    // helper that takes L1 again (tests reentrancy).
    let f_help = kb.begin_func("crafted_inner_helper", sub);
    kb.emit(Instr::Lock { lock: l1 });
    kb.emit(Instr::Unlock { lock: l1 });
    kb.end_func();

    let f_reent = kb.begin_func("crafted_reentrant", sub);
    kb.emit(Instr::Lock { lock: l1 });
    kb.emit(Instr::Call { func: f_help });
    kb.emit(Instr::Unlock { lock: l1 });
    kb.end_func();
    kb.add_syscall("crafted_reentrant", f_reent, sub, vec![]);

    // waiter: loads a flag and branches (exercises wakeup-then-continue).
    let f_wait = kb.begin_func("crafted_waiter", sub);
    kb.emit(Instr::Lock { lock: l1 });
    kb.emit(Instr::Load {
        dst: Reg(4),
        addr: snowcat_kernel::AddrExpr::Fixed(snowcat_kernel::Addr(0)),
    });
    kb.emit(Instr::Unlock { lock: l1 });
    let (t, e) = kb.branch(Reg(4), CmpOp::Eq, 0);
    let merge = kb.new_block();
    kb.set_cur(t);
    kb.jump_to(merge);
    kb.set_cur(e);
    kb.jump_to(merge);
    kb.set_cur(merge);
    kb.end_func();
    kb.add_syscall("crafted_waiter", f_wait, sub, vec![]);

    kb.finish("crafted")
}

fn sti(idx: u32) -> Sti {
    Sti::new(vec![SyscallInvocation { syscall: SyscallId(idx), args: [0; 3] }])
}

#[test]
fn opposite_lock_orders_deadlock_under_interleaving() {
    let k = crafted_kernel();
    // Switch A inside its L1-held window so B acquires L2, then both block.
    let hints = ScheduleHints {
        first: ThreadId(0),
        switches: vec![
            SwitchPoint { thread: ThreadId(0), after: 4 },
            SwitchPoint { thread: ThreadId(1), after: 4 },
        ],
    };
    let r = run_ct(&k, &Cti::new(sti(0), sti(1)), hints, VmConfig::default());
    assert_eq!(r.exit, ExitReason::Deadlock, "ABBA locking must deadlock mid-window");
}

#[test]
fn opposite_lock_orders_complete_when_serialized() {
    let k = crafted_kernel();
    let r = run_ct(
        &k,
        &Cti::new(sti(0), sti(1)),
        ScheduleHints::sequential(ThreadId(0)),
        VmConfig::default(),
    );
    assert_eq!(r.exit, ExitReason::Completed);
}

#[test]
fn infinite_loop_hits_step_limit() {
    let k = crafted_kernel();
    let r =
        snowcat_vm::Vm::new(&k, vec![sti(2)], VmConfig { collect_accesses: false, max_steps: 500 })
            .run(&mut snowcat_vm::SequentialScheduler);
    assert_eq!(r.exit, ExitReason::StepLimit);
    assert!(r.steps >= 500);
}

#[test]
fn fuel_limited_run_stops_at_its_budget() {
    let k = crafted_kernel();
    let fuel = 500;
    let r = run_ct(
        &k,
        &Cti::new(sti(2), sti(2)),
        ScheduleHints::sequential(ThreadId(0)),
        VmConfig::with_fuel(fuel),
    );
    assert!(r.hung(), "an infinite loop must exhaust its fuel, got {:?}", r.exit);
    assert!(r.steps <= fuel, "the run must stop at the fuel budget, ran {} steps", r.steps);
}

#[test]
fn generated_kernel_completes_under_the_default_fuel() {
    use snowcat_kernel::{generate, GenConfig};
    let k = generate(&GenConfig::default());
    let r = run_ct(
        &k,
        &Cti::new(sti(0), sti(0)),
        ScheduleHints::sequential(ThreadId(0)),
        VmConfig::default(),
    );
    assert!(!r.hung(), "loop-free kernels never exhaust the default fuel, got {:?}", r.exit);
}

#[test]
fn reentrant_locking_through_helper_completes() {
    let k = crafted_kernel();
    let r = run_sequential(&k, &sti(3));
    assert_eq!(r.exit, ExitReason::Completed);
}

#[test]
fn blocked_thread_wakes_after_unlock() {
    let k = crafted_kernel();
    // Thread 0 holds L1 across a 5-nop window; switch to thread 1 (waiter)
    // inside the window so it blocks on L1, forcing a switch back; when
    // thread 0 unlocks, thread 1 must wake and complete.
    let hints = ScheduleHints {
        first: ThreadId(0),
        switches: vec![SwitchPoint { thread: ThreadId(0), after: 3 }],
    };
    let r = run_ct(&k, &Cti::new(sti(0), sti(4)), hints, VmConfig::default());
    assert_eq!(r.exit, ExitReason::Completed);
    assert!(r.thread_steps[1] > 0);
}

#[test]
fn reentrant_cross_thread_contention_still_blocks() {
    let k = crafted_kernel();
    // Reentrant syscall vs ab-locker: no deadlock possible (single shared
    // lock ordering), any schedule completes.
    for x in [1u64, 2, 3, 5, 8] {
        let hints = ScheduleHints {
            first: ThreadId(0),
            switches: vec![
                SwitchPoint { thread: ThreadId(0), after: x },
                SwitchPoint { thread: ThreadId(1), after: 2 },
            ],
        };
        let r = run_ct(&k, &Cti::new(sti(3), sti(0)), hints, VmConfig::default());
        assert_eq!(r.exit, ExitReason::Completed, "switch at {x}");
    }
}
