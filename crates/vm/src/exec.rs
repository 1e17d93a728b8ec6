//! The interpreter: a deterministic uniprocessor VM over the synthetic
//! kernel, playing the role of the paper's modified SKI/QEMU.
//!
//! Exactly one thread runs at a time; a [`Scheduler`] picks the thread before every step. A *step* is one of:
//!
//! * executing one body instruction,
//! * evaluating a block terminator (moving to the next block), or
//! * dispatching the next syscall of the thread's STI.
//!
//! All three advance the thread's `executed` counter, which is the coordinate
//! system scheduling hints use ("switch when thread A executes its i-th
//! instruction").
//!
//! Locks are reentrant (per-thread depth counter): the code generator can
//! compose helper calls freely without self-deadlock, while cross-thread
//! circular waits still deadlock and abort the run (recorded as
//! [`ExitReason::Deadlock`]).

use crate::bitset::BitSet;
use crate::sched::{Scheduler, SequentialScheduler, ThreadView};
use crate::sti::{Cti, Sti};
use crate::trace::{BugHit, ExecResult, ExitReason, MemAccess};
use snowcat_kernel::ids::NUM_REGS;
use snowcat_kernel::{BlockId, Instr, InstrLoc, Kernel, LockId, Terminator, ThreadId};

/// VM configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Record the memory-access stream (needed for race detection and graph
    /// building; skipping it speeds up pure-coverage runs).
    pub collect_accesses: bool,
    /// Defensive bound on total steps.
    pub max_steps: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self { collect_accesses: true, max_steps: 1 << 20 }
    }
}

impl VmConfig {
    /// Config with an explicit fuel (step) budget. Supervised campaigns use
    /// this to bound wedged executions: once the budget is exhausted the run
    /// exits with [`ExitReason::StepLimit`](crate::trace::ExitReason) and the
    /// watchdog classifies it as hung.
    pub fn with_fuel(fuel: u64) -> Self {
        Self { max_steps: fuel, ..Self::default() }
    }
}

#[derive(Debug, Clone)]
struct Frame {
    block: BlockId,
    instr_idx: usize,
    regs: [i64; NUM_REGS],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked(LockId),
    Done,
}

#[derive(Debug)]
struct Thread {
    sti: Sti,
    next_call: usize,
    stack: Vec<Frame>,
    status: Status,
    executed: u64,
    held: u64, // lockset bitmask
}

impl Thread {
    fn new(sti: Sti) -> Self {
        Self {
            sti,
            next_call: 0,
            stack: Vec::new(),
            status: Status::Runnable,
            executed: 0,
            held: 0,
        }
    }
}

/// The virtual machine for one dynamic execution.
pub struct Vm<'k> {
    kernel: &'k Kernel,
    cfg: VmConfig,
    mem: Vec<i64>,
    lock_owner: Vec<Option<(ThreadId, u32)>>,
    threads: Vec<Thread>,
    // trace
    coverage: BitSet,
    per_thread_coverage: Vec<BitSet>,
    block_trace: Vec<Vec<BlockId>>,
    block_entry_steps: Vec<Vec<u64>>,
    accesses: Vec<MemAccess>,
    bugs: Vec<BugHit>,
    steps: u64,
}

impl<'k> Vm<'k> {
    /// Create a VM booting `kernel` with one thread per STI.
    ///
    /// # Panics
    /// Panics if the kernel uses more than 64 locks (locksets are `u64`
    /// bitmasks) or no STIs are given.
    pub fn new(kernel: &'k Kernel, stis: Vec<Sti>, cfg: VmConfig) -> Self {
        assert!(kernel.num_locks <= 64, "lockset bitmask supports at most 64 locks");
        assert!(!stis.is_empty(), "need at least one thread");
        let n = stis.len();
        Self {
            kernel,
            cfg,
            mem: kernel.init_mem.clone(),
            lock_owner: vec![None; kernel.num_locks as usize],
            threads: stis.into_iter().map(Thread::new).collect(),
            coverage: BitSet::new(kernel.num_blocks()),
            per_thread_coverage: vec![BitSet::new(kernel.num_blocks()); n],
            block_trace: vec![Vec::new(); n],
            block_entry_steps: vec![Vec::new(); n],
            accesses: Vec::new(),
            bugs: Vec::new(),
            steps: 0,
        }
    }

    fn enter_block(&mut self, tid: ThreadId, block: BlockId) {
        self.coverage.insert(block.index());
        self.per_thread_coverage[tid.index()].insert(block.index());
        self.block_trace[tid.index()].push(block);
        self.block_entry_steps[tid.index()].push(self.threads[tid.index()].executed);
    }

    /// Dispatch the next syscall for every idle runnable thread; threads out
    /// of syscalls become `Done`.
    fn dispatch(&mut self) {
        for i in 0..self.threads.len() {
            let tid = ThreadId(i as u8);
            let t = &mut self.threads[i];
            if t.status != Status::Runnable || !t.stack.is_empty() {
                continue;
            }
            if t.next_call >= t.sti.calls.len() {
                t.status = Status::Done;
                continue;
            }
            let call = t.sti.calls[t.next_call];
            t.next_call += 1;
            let func = self.kernel.syscall(call.syscall).func;
            let entry = self.kernel.func(func).entry;
            let mut regs = [0i64; NUM_REGS];
            regs[..3].copy_from_slice(&call.args);
            self.threads[i].stack.push(Frame { block: entry, instr_idx: 0, regs });
            self.enter_block(tid, entry);
        }
    }

    fn views(&self) -> Vec<ThreadView> {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, t)| ThreadView {
                id: ThreadId(i as u8),
                runnable: t.status == Status::Runnable,
                done: t.status == Status::Done,
                executed: t.executed,
            })
            .collect()
    }

    /// Execute one step of thread `tid`. Returns false if the thread blocked
    /// instead of making progress.
    fn step(&mut self, tid: ThreadId) -> bool {
        let ti = tid.index();
        let frame = self.threads[ti].stack.last().cloned().expect("step on idle thread");
        let block = self.kernel.block(frame.block);

        if frame.instr_idx < block.instrs.len() {
            let ins = block.instrs[frame.instr_idx];
            match ins {
                Instr::Const { dst, val } => {
                    self.threads[ti].stack.last_mut().unwrap().regs[dst.index()] = val;
                }
                Instr::BinOp { op, dst, lhs, rhs } => {
                    let f = self.threads[ti].stack.last_mut().unwrap();
                    f.regs[dst.index()] = op.eval(f.regs[lhs.index()], f.regs[rhs.index()]);
                }
                Instr::Load { dst, addr } => {
                    let a = addr.resolve(&frame.regs);
                    let v = self.mem[a.index()];
                    self.threads[ti].stack.last_mut().unwrap().regs[dst.index()] = v;
                    if self.cfg.collect_accesses {
                        self.accesses.push(MemAccess {
                            thread: tid,
                            loc: InstrLoc::new(frame.block, frame.instr_idx as u16),
                            addr: a,
                            is_write: false,
                            lockset: self.threads[ti].held,
                            step: self.steps,
                        });
                    }
                }
                Instr::Store { addr, src } => {
                    let a = addr.resolve(&frame.regs);
                    self.mem[a.index()] = frame.regs[src.index()];
                    if self.cfg.collect_accesses {
                        self.accesses.push(MemAccess {
                            thread: tid,
                            loc: InstrLoc::new(frame.block, frame.instr_idx as u16),
                            addr: a,
                            is_write: true,
                            lockset: self.threads[ti].held,
                            step: self.steps,
                        });
                    }
                }
                Instr::Lock { lock } => {
                    match self.lock_owner[lock.index()] {
                        None => {
                            self.lock_owner[lock.index()] = Some((tid, 1));
                            self.threads[ti].held |= 1 << lock.0;
                        }
                        Some((owner, depth)) if owner == tid => {
                            self.lock_owner[lock.index()] = Some((owner, depth + 1));
                        }
                        Some(_) => {
                            // Contended: block without consuming the step.
                            self.threads[ti].status = Status::Blocked(lock);
                            return false;
                        }
                    }
                }
                Instr::Unlock { lock } => {
                    match self.lock_owner[lock.index()] {
                        Some((owner, depth)) if owner == tid => {
                            if depth == 1 {
                                self.lock_owner[lock.index()] = None;
                                self.threads[ti].held &= !(1 << lock.0);
                                // Wake threads blocked on this lock.
                                for t in &mut self.threads {
                                    if t.status == Status::Blocked(lock) {
                                        t.status = Status::Runnable;
                                    }
                                }
                            } else {
                                self.lock_owner[lock.index()] = Some((owner, depth - 1));
                            }
                        }
                        _ => debug_assert!(false, "unlock of lock not held by {tid}"),
                    }
                }
                Instr::Call { func } => {
                    let entry = self.kernel.func(func).entry;
                    // Return to the instruction after the call.
                    self.threads[ti].stack.last_mut().unwrap().instr_idx += 1;
                    self.threads[ti].stack.push(Frame {
                        block: entry,
                        instr_idx: 0,
                        regs: frame.regs,
                    });
                    self.enter_block(tid, entry);
                    self.threads[ti].executed += 1;
                    self.steps += 1;
                    return true;
                }
                Instr::BugIf { bug, reg, cmp, imm } => {
                    if cmp.eval(frame.regs[reg.index()], imm) {
                        self.bugs.push(BugHit {
                            bug,
                            thread: tid,
                            loc: InstrLoc::new(frame.block, frame.instr_idx as u16),
                            step: self.steps,
                        });
                    }
                }
                Instr::Nop => {}
            }
            self.threads[ti].stack.last_mut().unwrap().instr_idx += 1;
        } else {
            // Terminator.
            match block.term {
                Terminator::Jump(target) => {
                    let f = self.threads[ti].stack.last_mut().unwrap();
                    f.block = target;
                    f.instr_idx = 0;
                    self.enter_block(tid, target);
                }
                Terminator::Branch { lhs, cmp, imm, then_blk, else_blk } => {
                    let taken = cmp.eval(frame.regs[lhs.index()], imm);
                    let target = if taken { then_blk } else { else_blk };
                    let f = self.threads[ti].stack.last_mut().unwrap();
                    f.block = target;
                    f.instr_idx = 0;
                    self.enter_block(tid, target);
                }
                Terminator::Ret => {
                    self.threads[ti].stack.pop();
                }
            }
        }
        self.threads[ti].executed += 1;
        self.steps += 1;
        true
    }

    /// Run to completion under `scheduler`.
    pub fn run(mut self, scheduler: &mut dyn Scheduler) -> ExecResult {
        let exit = loop {
            self.dispatch();
            if self.threads.iter().all(|t| t.status == Status::Done) {
                break ExitReason::Completed;
            }
            if !self.threads.iter().any(|t| t.status == Status::Runnable) {
                break ExitReason::Deadlock;
            }
            if self.steps >= self.cfg.max_steps {
                break ExitReason::StepLimit;
            }
            let views = self.views();
            let mut tid = scheduler.choose(&views);
            if self.threads[tid.index()].status != Status::Runnable {
                tid = views.iter().find(|v| v.runnable).unwrap().id;
            }
            self.step(tid);
        };
        let thread_steps = self.threads.iter().map(|t| t.executed).collect();
        ExecResult {
            coverage: self.coverage,
            per_thread_coverage: self.per_thread_coverage,
            block_trace: self.block_trace,
            block_entry_steps: self.block_entry_steps,
            accesses: self.accesses,
            bugs: self.bugs,
            steps: self.steps,
            thread_steps,
            exit,
        }
    }
}

/// Run a single STI on one thread (the paper's "single-thread execution" used
/// to profile sequential coverage and flows).
pub fn run_sequential(kernel: &Kernel, sti: &Sti) -> ExecResult {
    let vm = Vm::new(kernel, vec![sti.clone()], VmConfig::default());
    vm.run(&mut SequentialScheduler)
}

/// Run a CTI under a hint schedule (a full concurrent test).
pub fn run_ct(
    kernel: &Kernel,
    cti: &Cti,
    hints: crate::sched::ScheduleHints,
    cfg: VmConfig,
) -> ExecResult {
    let vm = Vm::new(kernel, vec![cti.a.clone(), cti.b.clone()], cfg);
    let mut sched = crate::sched::HintScheduler::new(hints);
    vm.run(&mut sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{ScheduleHints, SwitchPoint};
    use crate::sti::SyscallInvocation;
    use snowcat_kernel::{generate, GenConfig, SyscallId};

    fn kernel() -> Kernel {
        generate(&GenConfig::default())
    }

    fn sti(k: &Kernel, idx: usize) -> Sti {
        let id = SyscallId(idx as u32 % k.syscalls.len() as u32);
        Sti::new(vec![SyscallInvocation { syscall: id, args: [0, 0, 0] }])
    }

    #[test]
    fn sequential_run_completes_and_covers() {
        let k = kernel();
        for i in 0..k.syscalls.len() {
            let r = run_sequential(&k, &sti(&k, i));
            assert_eq!(r.exit, ExitReason::Completed, "syscall {i} did not complete");
            assert!(r.coverage.count() > 0);
            assert!(r.steps > 0);
        }
    }

    #[test]
    fn sequential_run_is_deterministic() {
        let k = kernel();
        let a = run_sequential(&k, &sti(&k, 0));
        let b = run_sequential(&k, &sti(&k, 0));
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_run_with_hints_completes() {
        let k = kernel();
        let cti = Cti::new(sti(&k, 0), sti(&k, 1));
        let ra = run_sequential(&k, &cti.a);
        let hints = ScheduleHints {
            first: ThreadId(0),
            switches: vec![
                SwitchPoint { thread: ThreadId(0), after: ra.steps / 2 },
                SwitchPoint { thread: ThreadId(1), after: 3 },
            ],
        };
        let r = run_ct(&k, &cti, hints, VmConfig::default());
        assert_eq!(r.exit, ExitReason::Completed);
        // Both threads made progress.
        assert!(r.thread_steps[0] > 0 && r.thread_steps[1] > 0);
    }

    #[test]
    fn memory_accesses_are_recorded_with_locksets() {
        let k = kernel();
        let r = run_sequential(&k, &sti(&k, 0));
        assert!(!r.accesses.is_empty(), "syscall should touch shared memory");
        for a in &r.accesses {
            assert!(a.addr.index() < k.mem_words as usize);
        }
    }

    #[test]
    fn collect_accesses_false_suppresses_stream() {
        let k = kernel();
        let cti = Cti::new(sti(&k, 0), sti(&k, 1));
        let r = run_ct(
            &k,
            &cti,
            ScheduleHints::sequential(ThreadId(0)),
            VmConfig { collect_accesses: false, ..VmConfig::default() },
        );
        assert!(r.accesses.is_empty());
    }

    #[test]
    fn coverage_union_matches_per_thread() {
        let k = kernel();
        let cti = Cti::new(sti(&k, 2), sti(&k, 3));
        let r = run_ct(&k, &cti, ScheduleHints::sequential(ThreadId(0)), VmConfig::default());
        let mut union = crate::bitset::BitSet::new(k.num_blocks());
        union.union_with(&r.per_thread_coverage[0]);
        union.union_with(&r.per_thread_coverage[1]);
        assert_eq!(union, r.coverage);
    }

    #[test]
    fn block_trace_starts_with_entry_block() {
        let k = kernel();
        let s = sti(&k, 0);
        let r = run_sequential(&k, &s);
        let entry = k.func(k.syscall(s.calls[0].syscall).func).entry;
        assert_eq!(r.block_trace[0][0], entry);
    }

    #[test]
    fn empty_sti_completes_immediately() {
        let k = kernel();
        let r = run_sequential(&k, &Sti::default());
        assert_eq!(r.exit, ExitReason::Completed);
        assert_eq!(r.steps, 0);
        assert_eq!(r.coverage.count(), 0);
    }

    #[test]
    fn order_violation_bug_fires_under_crafted_schedule() {
        // Find an OV bug, then brute-force switch points until the oracle
        // fires — proving planted bugs are dynamically exposable.
        let k = kernel();
        let bug = k
            .bugs
            .iter()
            .find(|b| b.kind == snowcat_kernel::BugKind::OrderViolation)
            .expect("default config plants an OV bug");
        let producer = Sti::new(vec![SyscallInvocation { syscall: bug.syscalls.0, args: [0; 3] }]);
        let consumer = Sti::new(vec![SyscallInvocation { syscall: bug.syscalls.1, args: [0; 3] }]);
        let cti = Cti::new(producer.clone(), consumer);
        let len_a = run_sequential(&k, &producer).steps;
        let mut fired = false;
        'outer: for x in 1..=len_a {
            for y in 1..40u64 {
                let hints = ScheduleHints {
                    first: ThreadId(0),
                    switches: vec![
                        SwitchPoint { thread: ThreadId(0), after: x },
                        SwitchPoint { thread: ThreadId(1), after: y },
                    ],
                };
                let r = run_ct(&k, &cti, hints, VmConfig::default());
                if r.hit_bug(bug.id) {
                    fired = true;
                    break 'outer;
                }
            }
        }
        assert!(fired, "order-violation bug should be exposable by some 2-switch schedule");
    }

    #[test]
    fn bug_does_not_fire_sequentially() {
        let k = kernel();
        for bug in &k.bugs {
            for sc in [bug.syscalls.0, bug.syscalls.1] {
                let s = Sti::new(vec![SyscallInvocation { syscall: sc, args: [0; 3] }]);
                let r = run_sequential(&k, &s);
                assert!(
                    !r.hit_bug(bug.id),
                    "bug {} fired in sequential run of {}",
                    bug.id,
                    k.syscall(sc).name
                );
            }
        }
    }
}
