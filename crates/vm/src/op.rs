//! The interpreter's predecoded instruction form.
//!
//! The loader lowers every instruction of a module to an [`Op`] once, after
//! symbol resolution, so the interpreter loop decodes nothing: registers
//! are indices into its local register file, each ALU operation and branch
//! condition is a variant of its own, jump and call targets are absolute
//! addresses, and symbol and TLS references are resolved.

use lfi_arch::{Addr, AluOp, Cond, Insn, Reg, Word};

use crate::loader::Resolution;

/// Entries in the interpreter's local register file: [`Reg::COUNT`]
/// rounded up to a power of two, so [`reg`] can mask an index into it.
pub(crate) const REG_FILE: usize = 32;

/// Position of lowered register index `index` in the local register
/// file. The mask keeps it in bounds, so indexing needs no check.
#[inline(always)]
pub(crate) fn reg(index: u8) -> usize {
    usize::from(index) % REG_FILE
}

const _: () = assert!(Reg::COUNT <= REG_FILE && REG_FILE.is_power_of_two());

// Two ops to a cache line of the predecoded array.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// One lowered instruction. Register fields are [`Reg::index`] values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Nop,
    Halt,
    Brk,
    /// Also a `leasym` whose symbol resolved to an address.
    MovI {
        dst: u8,
        imm: Word,
    },
    MovR {
        dst: u8,
        src: u8,
    },
    Load {
        dst: u8,
        base: u8,
        off: Word,
    },
    Store {
        base: u8,
        src: u8,
        off: Word,
    },
    Load8 {
        dst: u8,
        base: u8,
        off: Word,
    },
    Store8 {
        base: u8,
        src: u8,
        off: Word,
    },
    Lea {
        dst: u8,
        base: u8,
        off: Word,
    },
    /// A `leasym` of a symbol with no address: faults.
    LeaUnresolved {
        sym: u32,
    },
    Push {
        src: u8,
    },
    Pop {
        dst: u8,
    },
    Add {
        dst: u8,
        src: u8,
    },
    AddI {
        dst: u8,
        imm: Word,
    },
    Sub {
        dst: u8,
        src: u8,
    },
    SubI {
        dst: u8,
        imm: Word,
    },
    Mul {
        dst: u8,
        src: u8,
    },
    MulI {
        dst: u8,
        imm: Word,
    },
    Div {
        dst: u8,
        src: u8,
    },
    DivI {
        dst: u8,
        imm: Word,
    },
    Mod {
        dst: u8,
        src: u8,
    },
    ModI {
        dst: u8,
        imm: Word,
    },
    And {
        dst: u8,
        src: u8,
    },
    AndI {
        dst: u8,
        imm: Word,
    },
    Or {
        dst: u8,
        src: u8,
    },
    OrI {
        dst: u8,
        imm: Word,
    },
    Xor {
        dst: u8,
        src: u8,
    },
    XorI {
        dst: u8,
        imm: Word,
    },
    Shl {
        dst: u8,
        src: u8,
    },
    ShlI {
        dst: u8,
        imm: Word,
    },
    Shr {
        dst: u8,
        src: u8,
    },
    ShrI {
        dst: u8,
        imm: Word,
    },
    Neg {
        dst: u8,
    },
    Not {
        dst: u8,
    },
    Cmp {
        a: u8,
        b: u8,
    },
    CmpI {
        a: u8,
        imm: Word,
    },
    Jmp {
        target: Addr,
    },
    Je {
        target: Addr,
    },
    Jne {
        target: Addr,
    },
    Jlt {
        target: Addr,
    },
    Jle {
        target: Addr,
    },
    Jgt {
        target: Addr,
    },
    Jge {
        target: Addr,
    },
    /// A direct call, or a `callsym` whose symbol resolved to a function.
    Call {
        target: Addr,
    },
    CallR {
        reg: u8,
    },
    /// A `callsym` through an interposition hook: runs out of line.
    CallHooked {
        sym: u32,
    },
    /// A `callsym` of a symbol that is no function: counts as a call,
    /// then faults.
    CallUnresolved {
        sym: u32,
    },
    Ret,
    TlsLoad {
        dst: u8,
        slot: u32,
    },
    TlsStore {
        slot: u32,
        src: u8,
    },
    /// Runs out of line.
    Sys {
        num: Word,
    },
}

impl Op {
    /// Lower `insn` of the module at `code_base`, whose symbol references
    /// resolve to `resolutions`. `tls_slot` gives the TLS slot a
    /// `tlsld`/`tlsst` through a symref accesses.
    ///
    /// Targets are resolved with wrapping arithmetic: a target before the
    /// code or past the top of the address space lands outside every
    /// module, and the jump faults with `BadPc` when it executes.
    pub(crate) fn lower(
        insn: Insn,
        code_base: Addr,
        resolutions: &[Resolution],
        tls_slot: &mut dyn FnMut(u32) -> usize,
    ) -> Op {
        let r = |reg: Reg| reg.index() as u8;
        let at = |target: Word| code_base.wrapping_add(target as Addr);
        match insn {
            Insn::Nop => Op::Nop,
            Insn::Halt => Op::Halt,
            Insn::Brk => Op::Brk,
            Insn::MovI { dst, imm } => Op::MovI { dst: r(dst), imm },
            Insn::MovR { dst, src } => Op::MovR {
                dst: r(dst),
                src: r(src),
            },
            Insn::Load { dst, base, off } => Op::Load {
                dst: r(dst),
                base: r(base),
                off,
            },
            Insn::Store { base, off, src } => Op::Store {
                base: r(base),
                src: r(src),
                off,
            },
            Insn::Load8 { dst, base, off } => Op::Load8 {
                dst: r(dst),
                base: r(base),
                off,
            },
            Insn::Store8 { base, off, src } => Op::Store8 {
                base: r(base),
                src: r(src),
                off,
            },
            Insn::Lea { dst, base, off } => Op::Lea {
                dst: r(dst),
                base: r(base),
                off,
            },
            Insn::LeaSym { dst, sym } => match resolutions[sym as usize] {
                Resolution::Data { addr }
                | Resolution::Func { addr }
                | Resolution::Hooked {
                    original: Some(addr),
                    ..
                } => Op::MovI {
                    dst: r(dst),
                    imm: addr as Word,
                },
                Resolution::Tls { .. }
                | Resolution::Hooked { original: None, .. }
                | Resolution::Unresolved { .. } => Op::LeaUnresolved { sym },
            },
            Insn::Push { src } => Op::Push { src: r(src) },
            Insn::Pop { dst } => Op::Pop { dst: r(dst) },
            Insn::Alu { op, dst, src } => {
                let (dst, src) = (r(dst), r(src));
                match op {
                    AluOp::Add => Op::Add { dst, src },
                    AluOp::Sub => Op::Sub { dst, src },
                    AluOp::Mul => Op::Mul { dst, src },
                    AluOp::Div => Op::Div { dst, src },
                    AluOp::Mod => Op::Mod { dst, src },
                    AluOp::And => Op::And { dst, src },
                    AluOp::Or => Op::Or { dst, src },
                    AluOp::Xor => Op::Xor { dst, src },
                    AluOp::Shl => Op::Shl { dst, src },
                    AluOp::Shr => Op::Shr { dst, src },
                }
            }
            Insn::AluI { op, dst, imm } => {
                let dst = r(dst);
                match op {
                    AluOp::Add => Op::AddI { dst, imm },
                    AluOp::Sub => Op::SubI { dst, imm },
                    AluOp::Mul => Op::MulI { dst, imm },
                    AluOp::Div => Op::DivI { dst, imm },
                    AluOp::Mod => Op::ModI { dst, imm },
                    AluOp::And => Op::AndI { dst, imm },
                    AluOp::Or => Op::OrI { dst, imm },
                    AluOp::Xor => Op::XorI { dst, imm },
                    AluOp::Shl => Op::ShlI { dst, imm },
                    AluOp::Shr => Op::ShrI { dst, imm },
                }
            }
            Insn::Neg { dst } => Op::Neg { dst: r(dst) },
            Insn::Not { dst } => Op::Not { dst: r(dst) },
            Insn::Cmp { a, b } => Op::Cmp { a: r(a), b: r(b) },
            Insn::CmpI { a, imm } => Op::CmpI { a: r(a), imm },
            Insn::Jmp { target } => Op::Jmp { target: at(target) },
            Insn::J { cond, target } => {
                let target = at(target);
                match cond {
                    Cond::Eq => Op::Je { target },
                    Cond::Ne => Op::Jne { target },
                    Cond::Lt => Op::Jlt { target },
                    Cond::Le => Op::Jle { target },
                    Cond::Gt => Op::Jgt { target },
                    Cond::Ge => Op::Jge { target },
                }
            }
            Insn::Call { target } => Op::Call { target: at(target) },
            Insn::CallSym { sym } => match resolutions[sym as usize] {
                Resolution::Func { addr } => Op::Call { target: addr },
                Resolution::Hooked { .. } => Op::CallHooked { sym },
                Resolution::Data { .. }
                | Resolution::Tls { .. }
                | Resolution::Unresolved { .. } => Op::CallUnresolved { sym },
            },
            Insn::CallR { reg } => Op::CallR { reg: r(reg) },
            Insn::Ret => Op::Ret,
            Insn::TlsLoad { dst, sym } => Op::TlsLoad {
                dst: r(dst),
                slot: tls_slot(sym) as u32,
            },
            Insn::TlsStore { sym, src } => Op::TlsStore {
                slot: tls_slot(sym) as u32,
                src: r(src),
            },
            Insn::Sys { num } => Op::Sys { num },
        }
    }
}
