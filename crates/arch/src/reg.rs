//! Register file definition and the calling convention register roles.

use std::fmt;

/// A machine register.
///
/// There are 16 general-purpose registers plus the stack pointer and the
/// frame pointer. The calling convention (see [`crate::abi::CallConv`]) gives
/// `R0` the return-value role and `R1..=R6` the argument roles, mirroring the
/// x86-64 System V convention the paper's analyses implicitly rely on
/// (the return value of a library call lives in one well-known register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// General purpose register `rN` for `N` in `0..16`.
    R(u8),
    /// Stack pointer.
    Sp,
    /// Frame pointer.
    Fp,
}

impl Reg {
    /// Number of encodable registers (16 GPRs + SP + FP).
    pub const COUNT: usize = 18;

    /// The return-value register (`r0`).
    pub const RET: Reg = Reg::R(0);

    /// Argument registers, in order.
    pub const ARGS: [Reg; 6] = [
        Reg::R(1),
        Reg::R(2),
        Reg::R(3),
        Reg::R(4),
        Reg::R(5),
        Reg::R(6),
    ];

    /// Encode the register into its one-byte binary representation.
    pub fn encode(self) -> u8 {
        match self {
            Reg::R(n) => {
                debug_assert!(n < 16, "general register index out of range: {n}");
                n
            }
            Reg::Sp => 16,
            Reg::Fp => 17,
        }
    }

    /// Decode a register from its one-byte binary representation.
    pub fn decode(byte: u8) -> Option<Reg> {
        match byte {
            0..=15 => Some(Reg::R(byte)),
            16 => Some(Reg::Sp),
            17 => Some(Reg::Fp),
            _ => None,
        }
    }

    /// A dense index in `0..Reg::COUNT`, usable for register-file arrays.
    pub fn index(self) -> usize {
        self.encode() as usize
    }

    /// Iterate over every register.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..Reg::COUNT as u8).map(|b| Reg::decode(b).expect("index in range"))
    }

    /// Whether the register is callee-saved under the default calling
    /// convention (`r10..r15`, `fp`).
    pub fn is_callee_saved(self) -> bool {
        matches!(self, Reg::R(10..=15) | Reg::Fp)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::R(n) => write!(f, "r{n}"),
            Reg::Sp => write!(f, "sp"),
            Reg::Fp => write!(f, "fp"),
        }
    }
}

impl std::str::FromStr for Reg {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sp" => Ok(Reg::Sp),
            "fp" => Ok(Reg::Fp),
            _ => {
                let rest = s
                    .strip_prefix('r')
                    .ok_or_else(|| format!("unknown register `{s}`"))?;
                let n: u8 = rest
                    .parse()
                    .map_err(|_| format!("unknown register `{s}`"))?;
                if n < 16 {
                    Ok(Reg::R(n))
                } else {
                    Err(format!("register index out of range `{s}`"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for reg in Reg::all() {
            assert_eq!(Reg::decode(reg.encode()), Some(reg));
        }
    }

    #[test]
    fn decode_rejects_out_of_range() {
        assert_eq!(Reg::decode(18), None);
        assert_eq!(Reg::decode(255), None);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for reg in Reg::all() {
            let text = reg.to_string();
            let parsed: Reg = text.parse().expect("parse back");
            assert_eq!(parsed, reg);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("r16".parse::<Reg>().is_err());
        assert!("x3".parse::<Reg>().is_err());
        assert!("".parse::<Reg>().is_err());
    }

    #[test]
    fn callee_saved_set() {
        assert!(Reg::R(10).is_callee_saved());
        assert!(Reg::Fp.is_callee_saved());
        assert!(!Reg::R(0).is_callee_saved());
        assert!(!Reg::R(1).is_callee_saved());
        assert!(!Reg::Sp.is_callee_saved());
    }

    #[test]
    fn ret_and_args_are_distinct() {
        for a in Reg::ARGS {
            assert_ne!(a, Reg::RET);
        }
    }
}
