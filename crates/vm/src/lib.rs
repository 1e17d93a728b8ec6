//! # snowcat-vm — deterministic uniprocessor VM with controllable scheduling
//!
//! This crate plays the role of the paper's modified SKI/QEMU: it executes
//! synthetic-kernel concurrent tests one thread at a time under a pluggable
//! [`sched::Scheduler`], enforcing SKI-style best-effort *scheduling hints*,
//! and records block coverage, the shared-memory access stream (with
//! locksets), and planted-bug oracle hits.
//!
//! Entry points:
//! * [`run_sequential`] — profile a single STI (sequential coverage/flows),
//! * [`run_ct`] — execute a concurrent test (CTI + hints),
//! * [`Vm`] — the underlying machine for custom setups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod exec;
pub mod sched;
pub mod sti;
pub mod trace;

pub use bitset::BitSet;
pub use exec::{run_ct, run_sequential, Vm, VmConfig};
pub use sched::{
    propose_hints, HintScheduler, PctScheduler, ScheduleHints, Scheduler, SequentialScheduler,
    SwitchPoint, ThreadView,
};
pub use sti::{Cti, Sti, SyscallInvocation};
pub use trace::{BugHit, ExecResult, ExitReason, MemAccess};
