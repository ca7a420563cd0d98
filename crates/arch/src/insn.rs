//! Instruction set, binary encoding and decoding.
//!
//! Every instruction occupies exactly [`INSN_SIZE`] bytes:
//! `[opcode, a, b, c, imm as i64 little-endian]`. The fixed width keeps the
//! disassembly step of the profiler and call-site analyzer trivial and
//! reliable (the paper notes >99% disassembly accuracy is achievable on x86;
//! our substrate makes it exact), while preserving the properties the
//! analyses actually exploit: explicit `CMP`/`Jcc` sequences, calls to
//! imported symbols, and TLS stores for `errno`.

use std::fmt;

use crate::{Reg, Word};

/// Size in bytes of every encoded instruction.
pub const INSN_SIZE: u64 = 12;

/// Arithmetic / logical operation selector for [`Insn::Alu`] and [`Insn::AluI`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division (division by zero faults).
    Div,
    /// Signed remainder (division by zero faults).
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl AluOp {
    /// All operations, in encoding order.
    pub const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
    ];

    fn encode(self) -> u8 {
        AluOp::ALL.iter().position(|&op| op == self).unwrap() as u8
    }

    fn decode(byte: u8) -> Option<AluOp> {
        AluOp::ALL.get(byte as usize).copied()
    }

    /// Mnemonic suffix used by the textual assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Mod => "mod",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
        }
    }
}

/// Branch condition, evaluated against the flags set by the last `CMP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// All conditions, in encoding order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    fn encode(self) -> u8 {
        Cond::ALL.iter().position(|&c| c == self).unwrap() as u8
    }

    fn decode(byte: u8) -> Option<Cond> {
        Cond::ALL.get(byte as usize).copied()
    }

    /// Whether the comparison outcome `ordering` (of `a` versus `b`) satisfies
    /// this condition.
    pub fn holds(self, ordering: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Cond::Eq => ordering == Equal,
            Cond::Ne => ordering != Equal,
            Cond::Lt => ordering == Less,
            Cond::Le => ordering != Greater,
            Cond::Gt => ordering == Greater,
            Cond::Ge => ordering != Less,
        }
    }

    /// Is this an equality-style check (`==` / `!=`)?
    ///
    /// Algorithm 1 in the paper distinguishes error codes checked via
    /// equality from those checked via inequality; the analyzer uses this.
    pub fn is_equality(self) -> bool {
        matches!(self, Cond::Eq | Cond::Ne)
    }

    /// Mnemonic suffix used by the textual assembler (`je`, `jne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "e",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        }
    }

    /// The condition with operands' roles preserved but outcome negated.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

/// A decoded machine instruction.
///
/// Code offsets (`target` fields) are byte offsets from the start of the
/// containing module's code section; symbol references (`sym` fields) are
/// indices into the containing module's symbol-reference table
/// (see `lfi-obj`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// Do nothing.
    Nop,
    /// Stop the machine (normally unreachable; `exit` goes through a syscall).
    Halt,
    /// Debug trap; faults the process.
    Brk,
    /// `dst = imm`.
    MovI { dst: Reg, imm: Word },
    /// `dst = src`.
    MovR { dst: Reg, src: Reg },
    /// `dst = *(word*)(base + off)`.
    Load { dst: Reg, base: Reg, off: Word },
    /// `*(word*)(base + off) = src`.
    Store { base: Reg, off: Word, src: Reg },
    /// `dst = *(byte*)(base + off)`, zero-extended.
    Load8 { dst: Reg, base: Reg, off: Word },
    /// `*(byte*)(base + off) = low byte of src`.
    Store8 { base: Reg, off: Word, src: Reg },
    /// `dst = base + off` (address arithmetic without a memory access).
    Lea { dst: Reg, base: Reg, off: Word },
    /// `dst = address of symbol` (data or function symbol; relocated at load).
    LeaSym { dst: Reg, sym: u32 },
    /// Push `src` on the stack.
    Push { src: Reg },
    /// Pop the top of the stack into `dst`.
    Pop { dst: Reg },
    /// `dst = dst op src`.
    Alu { op: AluOp, dst: Reg, src: Reg },
    /// `dst = dst op imm`.
    AluI { op: AluOp, dst: Reg, imm: Word },
    /// `dst = -dst`.
    Neg { dst: Reg },
    /// `dst = !dst` (bitwise not).
    Not { dst: Reg },
    /// Compare `a` with `b` and set the flags.
    Cmp { a: Reg, b: Reg },
    /// Compare `a` with an immediate and set the flags.
    CmpI { a: Reg, imm: Word },
    /// Unconditional jump to a module-local code offset.
    Jmp { target: Word },
    /// Conditional jump to a module-local code offset.
    J { cond: Cond, target: Word },
    /// Direct call to a module-local code offset.
    Call { target: Word },
    /// Call through the symbol table (imported or exported function).
    ///
    /// This is the instruction the call-site analyzer looks for: calls to
    /// library functions are always `CallSym` referencing an import, exactly
    /// like PLT-mediated calls in ELF binaries.
    CallSym { sym: u32 },
    /// Indirect call through a register holding an absolute address.
    CallR { reg: Reg },
    /// Return to the caller.
    Ret,
    /// `dst = value of thread-local variable sym` (e.g. `errno`).
    TlsLoad { dst: Reg, sym: u32 },
    /// `thread-local variable sym = src`.
    TlsStore { sym: u32, src: Reg },
    /// Invoke VM syscall `num`; arguments in `r1..r6`, result in `r0`.
    Sys { num: Word },
}

mod opcode {
    pub const NOP: u8 = 0;
    pub const HALT: u8 = 1;
    pub const BRK: u8 = 2;
    pub const MOVI: u8 = 3;
    pub const MOVR: u8 = 4;
    pub const LOAD: u8 = 5;
    pub const STORE: u8 = 6;
    pub const LOAD8: u8 = 7;
    pub const STORE8: u8 = 8;
    pub const LEA: u8 = 9;
    pub const LEASYM: u8 = 10;
    pub const PUSH: u8 = 11;
    pub const POP: u8 = 12;
    pub const ALU: u8 = 13;
    pub const ALUI: u8 = 14;
    pub const NEG: u8 = 15;
    pub const NOT: u8 = 16;
    pub const CMP: u8 = 17;
    pub const CMPI: u8 = 18;
    pub const JMP: u8 = 19;
    pub const JCC: u8 = 20;
    pub const CALL: u8 = 21;
    pub const CALLSYM: u8 = 22;
    pub const CALLR: u8 = 23;
    pub const RET: u8 = 24;
    pub const TLSLOAD: u8 = 25;
    pub const TLSSTORE: u8 = 26;
    pub const SYS: u8 = 27;
}

/// Error produced when decoding an invalid instruction encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte slice was shorter than [`INSN_SIZE`].
    Truncated {
        /// Number of bytes that were available.
        available: usize,
    },
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// A register field held an invalid register encoding.
    BadRegister(u8),
    /// The ALU sub-opcode field held an invalid value.
    BadAluOp(u8),
    /// The condition field of a conditional jump held an invalid value.
    BadCondition(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { available } => {
                write!(f, "truncated instruction: {available} bytes available")
            }
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadRegister(b) => write!(f, "invalid register encoding {b}"),
            DecodeError::BadAluOp(b) => write!(f, "invalid ALU sub-opcode {b}"),
            DecodeError::BadCondition(b) => write!(f, "invalid branch condition {b}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn reg(byte: u8) -> Result<Reg, DecodeError> {
    Reg::decode(byte).ok_or(DecodeError::BadRegister(byte))
}

impl Insn {
    /// Encode the instruction into its fixed-width binary form.
    pub fn encode(&self) -> [u8; INSN_SIZE as usize] {
        let (op, a, b, c, imm): (u8, u8, u8, u8, i64) = match *self {
            Insn::Nop => (opcode::NOP, 0, 0, 0, 0),
            Insn::Halt => (opcode::HALT, 0, 0, 0, 0),
            Insn::Brk => (opcode::BRK, 0, 0, 0, 0),
            Insn::MovI { dst, imm } => (opcode::MOVI, dst.encode(), 0, 0, imm),
            Insn::MovR { dst, src } => (opcode::MOVR, dst.encode(), src.encode(), 0, 0),
            Insn::Load { dst, base, off } => (opcode::LOAD, dst.encode(), base.encode(), 0, off),
            Insn::Store { base, off, src } => (opcode::STORE, base.encode(), src.encode(), 0, off),
            Insn::Load8 { dst, base, off } => (opcode::LOAD8, dst.encode(), base.encode(), 0, off),
            Insn::Store8 { base, off, src } => {
                (opcode::STORE8, base.encode(), src.encode(), 0, off)
            }
            Insn::Lea { dst, base, off } => (opcode::LEA, dst.encode(), base.encode(), 0, off),
            Insn::LeaSym { dst, sym } => (opcode::LEASYM, dst.encode(), 0, 0, sym as i64),
            Insn::Push { src } => (opcode::PUSH, src.encode(), 0, 0, 0),
            Insn::Pop { dst } => (opcode::POP, dst.encode(), 0, 0, 0),
            Insn::Alu { op, dst, src } => (opcode::ALU, dst.encode(), src.encode(), op.encode(), 0),
            Insn::AluI { op, dst, imm } => (opcode::ALUI, dst.encode(), 0, op.encode(), imm),
            Insn::Neg { dst } => (opcode::NEG, dst.encode(), 0, 0, 0),
            Insn::Not { dst } => (opcode::NOT, dst.encode(), 0, 0, 0),
            Insn::Cmp { a, b } => (opcode::CMP, a.encode(), b.encode(), 0, 0),
            Insn::CmpI { a, imm } => (opcode::CMPI, a.encode(), 0, 0, imm),
            Insn::Jmp { target } => (opcode::JMP, 0, 0, 0, target),
            Insn::J { cond, target } => (opcode::JCC, cond.encode(), 0, 0, target),
            Insn::Call { target } => (opcode::CALL, 0, 0, 0, target),
            Insn::CallSym { sym } => (opcode::CALLSYM, 0, 0, 0, sym as i64),
            Insn::CallR { reg } => (opcode::CALLR, reg.encode(), 0, 0, 0),
            Insn::Ret => (opcode::RET, 0, 0, 0, 0),
            Insn::TlsLoad { dst, sym } => (opcode::TLSLOAD, dst.encode(), 0, 0, sym as i64),
            Insn::TlsStore { sym, src } => (opcode::TLSSTORE, src.encode(), 0, 0, sym as i64),
            Insn::Sys { num } => (opcode::SYS, 0, 0, 0, num),
        };
        let mut bytes = [0u8; INSN_SIZE as usize];
        bytes[0] = op;
        bytes[1] = a;
        bytes[2] = b;
        bytes[3] = c;
        bytes[4..].copy_from_slice(&imm.to_le_bytes());
        bytes
    }

    /// Decode one instruction from the start of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Insn, DecodeError> {
        if bytes.len() < INSN_SIZE as usize {
            return Err(DecodeError::Truncated {
                available: bytes.len(),
            });
        }
        let (op, a, b, c) = (bytes[0], bytes[1], bytes[2], bytes[3]);
        let imm = i64::from_le_bytes(bytes[4..12].try_into().expect("length checked"));
        let insn = match op {
            opcode::NOP => Insn::Nop,
            opcode::HALT => Insn::Halt,
            opcode::BRK => Insn::Brk,
            opcode::MOVI => Insn::MovI { dst: reg(a)?, imm },
            opcode::MOVR => Insn::MovR {
                dst: reg(a)?,
                src: reg(b)?,
            },
            opcode::LOAD => Insn::Load {
                dst: reg(a)?,
                base: reg(b)?,
                off: imm,
            },
            opcode::STORE => Insn::Store {
                base: reg(a)?,
                src: reg(b)?,
                off: imm,
            },
            opcode::LOAD8 => Insn::Load8 {
                dst: reg(a)?,
                base: reg(b)?,
                off: imm,
            },
            opcode::STORE8 => Insn::Store8 {
                base: reg(a)?,
                src: reg(b)?,
                off: imm,
            },
            opcode::LEA => Insn::Lea {
                dst: reg(a)?,
                base: reg(b)?,
                off: imm,
            },
            opcode::LEASYM => Insn::LeaSym {
                dst: reg(a)?,
                sym: imm as u32,
            },
            opcode::PUSH => Insn::Push { src: reg(a)? },
            opcode::POP => Insn::Pop { dst: reg(a)? },
            opcode::ALU => Insn::Alu {
                op: AluOp::decode(c).ok_or(DecodeError::BadAluOp(c))?,
                dst: reg(a)?,
                src: reg(b)?,
            },
            opcode::ALUI => Insn::AluI {
                op: AluOp::decode(c).ok_or(DecodeError::BadAluOp(c))?,
                dst: reg(a)?,
                imm,
            },
            opcode::NEG => Insn::Neg { dst: reg(a)? },
            opcode::NOT => Insn::Not { dst: reg(a)? },
            opcode::CMP => Insn::Cmp {
                a: reg(a)?,
                b: reg(b)?,
            },
            opcode::CMPI => Insn::CmpI { a: reg(a)?, imm },
            opcode::JMP => Insn::Jmp { target: imm },
            opcode::JCC => Insn::J {
                cond: Cond::decode(a).ok_or(DecodeError::BadCondition(a))?,
                target: imm,
            },
            opcode::CALL => Insn::Call { target: imm },
            opcode::CALLSYM => Insn::CallSym { sym: imm as u32 },
            opcode::CALLR => Insn::CallR { reg: reg(a)? },
            opcode::RET => Insn::Ret,
            opcode::TLSLOAD => Insn::TlsLoad {
                dst: reg(a)?,
                sym: imm as u32,
            },
            opcode::TLSSTORE => Insn::TlsStore {
                sym: imm as u32,
                src: reg(a)?,
            },
            opcode::SYS => Insn::Sys { num: imm },
            other => return Err(DecodeError::UnknownOpcode(other)),
        };
        Ok(insn)
    }

    /// The register this instruction writes, if exactly one and statically known.
    pub fn written_reg(&self) -> Option<Reg> {
        match *self {
            Insn::MovI { dst, .. }
            | Insn::MovR { dst, .. }
            | Insn::Load { dst, .. }
            | Insn::Load8 { dst, .. }
            | Insn::Lea { dst, .. }
            | Insn::LeaSym { dst, .. }
            | Insn::Pop { dst }
            | Insn::Alu { dst, .. }
            | Insn::AluI { dst, .. }
            | Insn::Neg { dst }
            | Insn::Not { dst }
            | Insn::TlsLoad { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Is this instruction a control-flow terminator of a basic block?
    pub fn is_block_terminator(&self) -> bool {
        matches!(
            self,
            Insn::Jmp { .. } | Insn::J { .. } | Insn::Ret | Insn::Halt | Insn::Brk
        )
    }

    /// Is this any kind of call?
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            Insn::Call { .. } | Insn::CallSym { .. } | Insn::CallR { .. }
        )
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::Nop => write!(f, "nop"),
            Insn::Halt => write!(f, "halt"),
            Insn::Brk => write!(f, "brk"),
            Insn::MovI { dst, imm } => write!(f, "movi {dst}, {imm}"),
            Insn::MovR { dst, src } => write!(f, "mov {dst}, {src}"),
            Insn::Load { dst, base, off } => write!(f, "ld {dst}, [{base}{off:+}]"),
            Insn::Store { base, off, src } => write!(f, "st [{base}{off:+}], {src}"),
            Insn::Load8 { dst, base, off } => write!(f, "ld8 {dst}, [{base}{off:+}]"),
            Insn::Store8 { base, off, src } => write!(f, "st8 [{base}{off:+}], {src}"),
            Insn::Lea { dst, base, off } => write!(f, "lea {dst}, [{base}{off:+}]"),
            Insn::LeaSym { dst, sym } => write!(f, "leasym {dst}, sym#{sym}"),
            Insn::Push { src } => write!(f, "push {src}"),
            Insn::Pop { dst } => write!(f, "pop {dst}"),
            Insn::Alu { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Insn::AluI { op, dst, imm } => write!(f, "{}i {dst}, {imm}", op.mnemonic()),
            Insn::Neg { dst } => write!(f, "neg {dst}"),
            Insn::Not { dst } => write!(f, "not {dst}"),
            Insn::Cmp { a, b } => write!(f, "cmp {a}, {b}"),
            Insn::CmpI { a, imm } => write!(f, "cmpi {a}, {imm}"),
            Insn::Jmp { target } => write!(f, "jmp {target:#x}"),
            Insn::J { cond, target } => write!(f, "j{} {target:#x}", cond.mnemonic()),
            Insn::Call { target } => write!(f, "call {target:#x}"),
            Insn::CallSym { sym } => write!(f, "callsym sym#{sym}"),
            Insn::CallR { reg } => write!(f, "callr {reg}"),
            Insn::Ret => write!(f, "ret"),
            Insn::TlsLoad { dst, sym } => write!(f, "tlsld {dst}, tls#{sym}"),
            Insn::TlsStore { sym, src } => write!(f, "tlsst tls#{sym}, {src}"),
            Insn::Sys { num } => write!(f, "sys {num}"),
        }
    }
}

/// Instructions decoded so far, plus the first decoding error (if any) with
/// its offset.
pub type DecodeAllResult = (Vec<(u64, Insn)>, Option<(u64, DecodeError)>);

/// Decode an entire code section into `(offset, instruction)` pairs.
///
/// Stops at the first decoding error, returning the instructions decoded so
/// far along with the error offset.
pub fn decode_all(code: &[u8]) -> DecodeAllResult {
    let mut out = Vec::with_capacity(code.len() / INSN_SIZE as usize);
    let mut off = 0u64;
    while (off as usize) < code.len() {
        match Insn::decode(&code[off as usize..]) {
            Ok(insn) => {
                out.push((off, insn));
                off += INSN_SIZE;
            }
            Err(err) => return (out, Some((off, err))),
        }
    }
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instructions() -> Vec<Insn> {
        vec![
            Insn::Nop,
            Insn::Halt,
            Insn::Brk,
            Insn::MovI {
                dst: Reg::R(0),
                imm: -1,
            },
            Insn::MovR {
                dst: Reg::R(3),
                src: Reg::Sp,
            },
            Insn::Load {
                dst: Reg::R(1),
                base: Reg::Fp,
                off: -16,
            },
            Insn::Store {
                base: Reg::Fp,
                off: -24,
                src: Reg::R(0),
            },
            Insn::Load8 {
                dst: Reg::R(2),
                base: Reg::R(4),
                off: 7,
            },
            Insn::Store8 {
                base: Reg::R(4),
                off: 0,
                src: Reg::R(2),
            },
            Insn::Lea {
                dst: Reg::R(5),
                base: Reg::Sp,
                off: 32,
            },
            Insn::LeaSym {
                dst: Reg::R(1),
                sym: 12,
            },
            Insn::Push { src: Reg::R(10) },
            Insn::Pop { dst: Reg::R(10) },
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg::R(0),
                src: Reg::R(1),
            },
            Insn::AluI {
                op: AluOp::Shl,
                dst: Reg::R(7),
                imm: 3,
            },
            Insn::Neg { dst: Reg::R(9) },
            Insn::Not { dst: Reg::R(9) },
            Insn::Cmp {
                a: Reg::R(0),
                b: Reg::R(1),
            },
            Insn::CmpI {
                a: Reg::R(0),
                imm: -1,
            },
            Insn::Jmp { target: 0x180 },
            Insn::J {
                cond: Cond::Ne,
                target: 0x24,
            },
            Insn::Call { target: 0x3c0 },
            Insn::CallSym { sym: 3 },
            Insn::CallR { reg: Reg::R(8) },
            Insn::Ret,
            Insn::TlsLoad {
                dst: Reg::R(0),
                sym: 0,
            },
            Insn::TlsStore {
                sym: 0,
                src: Reg::R(2),
            },
            Insn::Sys { num: 4 },
        ]
    }

    #[test]
    fn encode_decode_roundtrip_all_forms() {
        for insn in sample_instructions() {
            let bytes = insn.encode();
            let back = Insn::decode(&bytes).expect("decode");
            assert_eq!(back, insn, "roundtrip failed for {insn}");
        }
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let err = Insn::decode(&[0u8; 5]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { available: 5 }));
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        let mut bytes = [0u8; INSN_SIZE as usize];
        bytes[0] = 0xEE;
        assert!(matches!(
            Insn::decode(&bytes),
            Err(DecodeError::UnknownOpcode(0xEE))
        ));
    }

    #[test]
    fn decode_rejects_bad_register() {
        let mut bytes = Insn::MovR {
            dst: Reg::R(0),
            src: Reg::R(1),
        }
        .encode();
        bytes[1] = 200;
        assert!(matches!(
            Insn::decode(&bytes),
            Err(DecodeError::BadRegister(200))
        ));
    }

    #[test]
    fn decode_rejects_bad_alu_and_condition() {
        let mut alu = Insn::Alu {
            op: AluOp::Add,
            dst: Reg::R(0),
            src: Reg::R(1),
        }
        .encode();
        alu[3] = 99;
        assert!(matches!(Insn::decode(&alu), Err(DecodeError::BadAluOp(99))));

        let mut jcc = Insn::J {
            cond: Cond::Eq,
            target: 0,
        }
        .encode();
        jcc[1] = 42;
        assert!(matches!(
            Insn::decode(&jcc),
            Err(DecodeError::BadCondition(42))
        ));
    }

    #[test]
    fn decode_all_walks_a_section() {
        let insns = sample_instructions();
        let mut code = Vec::new();
        for insn in &insns {
            code.extend_from_slice(&insn.encode());
        }
        let (decoded, err) = decode_all(&code);
        assert!(err.is_none());
        assert_eq!(decoded.len(), insns.len());
        for (i, (off, insn)) in decoded.iter().enumerate() {
            assert_eq!(*off, i as u64 * INSN_SIZE);
            assert_eq!(insn, &insns[i]);
        }
    }

    #[test]
    fn decode_all_reports_error_offset() {
        let mut code = Insn::Nop.encode().to_vec();
        let mut bad = [0u8; INSN_SIZE as usize];
        bad[0] = 0xEE;
        code.extend_from_slice(&bad);
        let (decoded, err) = decode_all(&code);
        assert_eq!(decoded.len(), 1);
        let (off, err) = err.expect("error expected");
        assert_eq!(off, INSN_SIZE);
        assert!(matches!(err, DecodeError::UnknownOpcode(0xEE)));
    }

    #[test]
    fn cond_semantics() {
        use std::cmp::Ordering::*;
        assert!(Cond::Eq.holds(Equal));
        assert!(!Cond::Eq.holds(Less));
        assert!(Cond::Ne.holds(Greater));
        assert!(Cond::Lt.holds(Less));
        assert!(!Cond::Lt.holds(Equal));
        assert!(Cond::Le.holds(Equal));
        assert!(Cond::Gt.holds(Greater));
        assert!(Cond::Ge.holds(Equal));
        assert!(!Cond::Ge.holds(Less));
    }

    #[test]
    fn cond_negation_is_involutive_and_complementary() {
        use std::cmp::Ordering;
        for cond in Cond::ALL {
            assert_eq!(cond.negate().negate(), cond);
            for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_ne!(cond.holds(ord), cond.negate().holds(ord));
            }
        }
    }

    #[test]
    fn equality_classification() {
        assert!(Cond::Eq.is_equality());
        assert!(Cond::Ne.is_equality());
        assert!(!Cond::Lt.is_equality());
        assert!(!Cond::Ge.is_equality());
    }

    #[test]
    fn written_reg_identifies_definitions() {
        assert_eq!(
            Insn::MovI {
                dst: Reg::R(4),
                imm: 9
            }
            .written_reg(),
            Some(Reg::R(4))
        );
        assert_eq!(Insn::Ret.written_reg(), None);
        assert_eq!(
            Insn::Store {
                base: Reg::Fp,
                off: 0,
                src: Reg::R(1)
            }
            .written_reg(),
            None
        );
    }

    #[test]
    fn block_terminators_and_calls() {
        assert!(Insn::Ret.is_block_terminator());
        assert!(Insn::Jmp { target: 0 }.is_block_terminator());
        assert!(!Insn::CallSym { sym: 1 }.is_block_terminator());
        assert!(Insn::CallSym { sym: 1 }.is_call());
        assert!(Insn::CallR { reg: Reg::R(1) }.is_call());
        assert!(!Insn::Nop.is_call());
    }
}
