//! Symbol references, exports, and data relocations.

/// The namespace a symbol lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymKind {
    /// A function entry point in some module's code section.
    Func,
    /// A data object in some module's data or BSS section.
    Data,
    /// A thread-local variable (e.g. `errno`).
    Tls,
}

impl SymKind {
    /// Stable one-byte encoding used by the binary format.
    pub fn encode(self) -> u8 {
        match self {
            SymKind::Func => 0,
            SymKind::Data => 1,
            SymKind::Tls => 2,
        }
    }

    /// Decode from the one-byte encoding.
    pub fn decode(byte: u8) -> Option<SymKind> {
        match byte {
            0 => Some(SymKind::Func),
            1 => Some(SymKind::Data),
            2 => Some(SymKind::Tls),
            _ => None,
        }
    }
}

/// A symbol reference used by `callsym`, `leasym`, `tlsld` and `tlsst`
/// instructions. The instruction stores an index into the module's
/// symbol-reference table; resolution to an address happens at load time.
///
/// References to functions not defined in the module play the role of PLT
/// entries in ELF: they are exactly the points the LFI call-site analyzer
/// scans for, and the points the interposition runtime can redirect.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymRef {
    /// Symbol name (`read`, `malloc`, string-literal labels, ...).
    pub name: String,
    /// Which namespace the symbol lives in.
    pub kind: SymKind,
}

impl SymRef {
    /// Convenience constructor for a function reference.
    pub fn func(name: impl Into<String>) -> SymRef {
        SymRef {
            name: name.into(),
            kind: SymKind::Func,
        }
    }

    /// Convenience constructor for a data reference.
    pub fn data(name: impl Into<String>) -> SymRef {
        SymRef {
            name: name.into(),
            kind: SymKind::Data,
        }
    }

    /// Convenience constructor for a TLS reference.
    pub fn tls(name: impl Into<String>) -> SymRef {
        SymRef {
            name: name.into(),
            kind: SymKind::Tls,
        }
    }
}

/// An exported symbol definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Export {
    /// Symbol name visible to other modules.
    pub name: String,
    /// Namespace of the definition.
    pub kind: SymKind,
    /// Offset of the definition: into the code section for [`SymKind::Func`],
    /// into data (or past it, for BSS) for [`SymKind::Data`]. Unused for TLS.
    pub offset: u64,
    /// Size in bytes (functions: code length if known; data: object size).
    pub size: u64,
}

/// A relocation applied to the data section at load time: the 8-byte word at
/// `data_offset` is replaced with the absolute address of `sym` (an index
/// into the module's symbol-reference table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataReloc {
    /// Offset into the data section of the word to patch.
    pub data_offset: u64,
    /// Index into the symbol-reference table.
    pub sym: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symkind_roundtrip() {
        for kind in [SymKind::Func, SymKind::Data, SymKind::Tls] {
            assert_eq!(SymKind::decode(kind.encode()), Some(kind));
        }
        assert_eq!(SymKind::decode(9), None);
    }

    #[test]
    fn symref_constructors() {
        assert_eq!(SymRef::func("read").kind, SymKind::Func);
        assert_eq!(SymRef::data("table").kind, SymKind::Data);
        assert_eq!(SymRef::tls("errno").kind, SymKind::Tls);
        assert_eq!(SymRef::func("read").name, "read");
    }
}
