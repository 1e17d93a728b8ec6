//! The synthetic kernel's instruction set.
//!
//! The instruction set is deliberately small but sufficient to express the
//! concurrency structures kernel testing cares about: shared-memory loads and
//! stores (direct and object-indexed), mutex acquire/release, arithmetic to
//! derive predicates, calls to helper functions, and a bug-oracle instruction
//! that models kernel assertion/consistency-check sites.
//!
//! Control flow lives in the block [`Terminator`], so a block is a maximal
//! straight-line instruction sequence, exactly matching the paper's notion of
//! a basic block ("sequences of assembly instructions uninterrupted by
//! control-flow entry or exit").

use crate::ids::{Addr, BlockId, BugId, FuncId, LockId, Reg};
use serde::{Deserialize, Serialize};

/// Binary arithmetic/logic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOp {
    /// Evaluate the operation on two word values.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
        }
    }

    /// Assembly mnemonic used by the renderer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        }
    }
}

/// Comparison operators used by branches and bug oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-than.
    Gt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Gt => a > b,
            CmpOp::Le => a <= b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Assembly mnemonic used by the renderer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Gt => "gt",
            CmpOp::Le => "le",
            CmpOp::Ge => "ge",
        }
    }
}

/// An effective-address expression for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddrExpr {
    /// A fixed kernel address (global flag, counter, …).
    Fixed(Addr),
    /// An object-indexed address: `base + (reg mod len) * stride`.
    ///
    /// This models per-object state (inodes, sockets, devices): the object
    /// index usually comes from a syscall argument register, so different
    /// invocations touch different but overlapping-by-class memory.
    Indexed {
        /// Start of the object array.
        base: Addr,
        /// Register holding the object index.
        reg: Reg,
        /// Words per object.
        stride: u32,
        /// Number of objects (index is taken modulo this, so any register
        /// value yields an in-bounds address).
        len: u32,
    },
}

impl AddrExpr {
    /// Resolve the effective address given a register file.
    ///
    /// Indexed addresses wrap the index modulo the array length, so the
    /// result is always within the region the generator allocated.
    #[inline]
    pub fn resolve(self, regs: &[i64]) -> Addr {
        match self {
            AddrExpr::Fixed(a) => a,
            AddrExpr::Indexed { base, reg, stride, len } => {
                let idx = (regs[reg.index()].rem_euclid(i64::from(len.max(1)))) as u32;
                Addr(base.0 + idx * stride)
            }
        }
    }

    /// The full range of words this expression may touch, `[start, end)`.
    ///
    /// Used by the static race analysis ("potential data flow occurs between
    /// two instructions … that address overlapping memory ranges").
    pub fn static_range(self) -> (Addr, Addr) {
        match self {
            AddrExpr::Fixed(a) => (a, Addr(a.0 + 1)),
            AddrExpr::Indexed { base, stride, len, .. } => {
                (base, Addr(base.0 + stride * len.max(1)))
            }
        }
    }
}

/// One instruction of the synthetic kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// `dst = val`
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        val: i64,
    },
    /// `dst = lhs <op> rhs`
    BinOp {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `dst = mem[addr]` — a shared-memory read.
    Load {
        /// Destination register.
        dst: Reg,
        /// Effective address.
        addr: AddrExpr,
    },
    /// `mem[addr] = src` — a shared-memory write.
    Store {
        /// Effective address.
        addr: AddrExpr,
        /// Source register.
        src: Reg,
    },
    /// Acquire a kernel mutex; blocks the thread if held by another thread.
    Lock {
        /// The mutex.
        lock: LockId,
    },
    /// Release a kernel mutex held by this thread.
    Unlock {
        /// The mutex.
        lock: LockId,
    },
    /// Call a helper function; execution resumes after this instruction when
    /// the callee returns.
    Call {
        /// Callee.
        func: FuncId,
    },
    /// A bug oracle: if `reg <cmp> imm` holds when executed, planted bug
    /// `bug` has been triggered (modelled on kernel consistency checks:
    /// double-init detection, use-of-uninitialized, state-machine violation).
    ///
    /// Triggering records a bug event in the trace; execution continues, like
    /// a KASAN/KCSAN report rather than a panic, so one run can witness
    /// multiple bugs.
    BugIf {
        /// Which planted bug fires.
        bug: BugId,
        /// Register holding the checked value.
        reg: Reg,
        /// Comparison operator.
        cmp: CmpOp,
        /// Immediate compared against.
        imm: i64,
    },
    /// No operation (padding; keeps generated block sizes diverse).
    Nop,
}

impl Instr {
    /// Whether this instruction reads or writes shared kernel memory.
    #[inline]
    pub fn is_mem_access(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Store { .. })
    }

    /// The address expression of a memory access, if this is one.
    #[inline]
    pub fn addr_expr(&self) -> Option<AddrExpr> {
        match self {
            Instr::Load { addr, .. } | Instr::Store { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// The fixed address a memory access certainly touches, if its address
    /// expression is [`AddrExpr::Fixed`].
    #[inline]
    pub fn fixed_addr(&self) -> Option<Addr> {
        match self.addr_expr() {
            Some(AddrExpr::Fixed(a)) => Some(a),
            _ => None,
        }
    }
}

/// Block terminator — the only place control flow happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `lhs <cmp> imm`.
    Branch {
        /// Register holding the tested value (often freshly loaded from
        /// shared memory, making the branch interleaving-dependent).
        lhs: Reg,
        /// Comparison operator.
        cmp: CmpOp,
        /// Immediate operand.
        imm: i64,
        /// Successor when the comparison holds.
        then_blk: BlockId,
        /// Successor when it does not.
        else_blk: BlockId,
    },
    /// Return from the current function (or finish the syscall if this is the
    /// outermost frame).
    Ret,
}

impl Terminator {
    /// Static successor blocks within the same function.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match *self {
            Terminator::Jump(t) => (Some(t), None),
            Terminator::Branch { then_blk, else_blk, .. } => (Some(then_blk), Some(else_blk)),
            Terminator::Ret => (None, None),
        };
        a.into_iter().chain(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_wraps() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Sub.eval(3, 5), -2);
        assert_eq!(BinOp::Xor.eval(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Eq.eval(4, 4));
        assert!(CmpOp::Ne.eval(4, 5));
        assert!(CmpOp::Lt.eval(-1, 0));
        assert!(CmpOp::Ge.eval(0, 0));
        assert!(!CmpOp::Gt.eval(0, 0));
        assert!(CmpOp::Le.eval(-5, -5));
    }

    #[test]
    fn fixed_addr_resolves_to_itself() {
        let regs = [0i64; 16];
        assert_eq!(AddrExpr::Fixed(Addr(7)).resolve(&regs), Addr(7));
    }

    #[test]
    fn indexed_addr_wraps_modulo_len() {
        let mut regs = [0i64; 16];
        regs[2] = 5; // index 5 mod 4 == 1
        let e = AddrExpr::Indexed { base: Addr(100), reg: Reg(2), stride: 8, len: 4 };
        assert_eq!(e.resolve(&regs), Addr(108));
        regs[2] = -1; // rem_euclid keeps the index non-negative
        assert_eq!(e.resolve(&regs), Addr(124));
    }

    #[test]
    fn indexed_static_range_covers_whole_array() {
        let e = AddrExpr::Indexed { base: Addr(100), reg: Reg(0), stride: 8, len: 4 };
        assert_eq!(e.static_range(), (Addr(100), Addr(132)));
    }

    #[test]
    fn instr_memory_queries() {
        let load = Instr::Load { dst: Reg(1), addr: AddrExpr::Fixed(Addr(9)) };
        let store = Instr::Store {
            addr: AddrExpr::Indexed { base: Addr(4), reg: Reg(0), stride: 2, len: 3 },
            src: Reg(1),
        };
        assert!(load.is_mem_access() && store.is_mem_access());
        assert_eq!(load.fixed_addr(), Some(Addr(9)));
        assert_eq!(store.fixed_addr(), None, "indexed addresses are not fixed");
        assert!(store.addr_expr().is_some());
        assert_eq!(Instr::Nop.addr_expr(), None);
        assert_eq!(Instr::Nop.fixed_addr(), None);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            lhs: Reg(0),
            cmp: CmpOp::Eq,
            imm: 0,
            then_blk: BlockId(1),
            else_blk: BlockId(2),
        };
        let succ: Vec<_> = t.successors().collect();
        assert_eq!(succ, vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Ret.successors().count(), 0);
    }
}
