//! Binary (on-disk) serialization of [`Module`].
//!
//! The format is a straightforward length-prefixed layout with a magic number
//! and a version field, so target binaries and shared libraries can be written
//! to disk, shipped, and analyzed without the producing tool chain.

use std::fmt;

use crate::module::{LineEntry, Module, ModuleKind};
use crate::symbol::{DataReloc, Export, SymKind, SymRef};

/// Magic bytes at the start of every serialized module.
pub const MAGIC: [u8; 4] = *b"LFIM";

/// Current format version.
pub const VERSION: u32 = 1;

/// Errors produced while decoding a serialized module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant byte was invalid.
    BadEnum(&'static str, u8),
    /// A length field was implausibly large for the remaining buffer.
    LengthOutOfRange(u64),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not an LFI module (bad magic)"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::Truncated => write!(f, "truncated module"),
            FormatError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            FormatError::BadEnum(what, b) => write!(f, "invalid {what} discriminant {b}"),
            FormatError::LengthOutOfRange(n) => write!(f, "length field {n} exceeds buffer"),
        }
    }
}

impl std::error::Error for FormatError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u64(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Take the next `N` bytes, or fail with [`FormatError::Truncated`].
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], FormatError> {
    let (head, rest) = buf.split_first_chunk().ok_or(FormatError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, FormatError> {
    take(buf).map(|[b]| b)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, FormatError> {
    take(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, FormatError> {
    take(buf).map(u64::from_le_bytes)
}

/// Take the `len` bytes a length prefix announced, or fail with
/// [`FormatError::LengthOutOfRange`].
fn take_len<'a>(buf: &mut &'a [u8], len: u64) -> Result<&'a [u8], FormatError> {
    if len > buf.len() as u64 {
        return Err(FormatError::LengthOutOfRange(len));
    }
    let (head, rest) = buf.split_at(len as usize);
    *buf = rest;
    Ok(head)
}

fn get_string(buf: &mut &[u8]) -> Result<String, FormatError> {
    let len = get_u32(buf)?;
    let bytes = take_len(buf, len.into())?;
    String::from_utf8(bytes.to_vec()).map_err(|_| FormatError::InvalidUtf8)
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, FormatError> {
    let len = get_u64(buf)?;
    Ok(take_len(buf, len)?.to_vec())
}

impl Module {
    /// Serialize the module to its binary on-disk representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.code.len() + self.data.len());
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        put_string(&mut buf, &self.name);
        buf.push(match self.kind {
            ModuleKind::Executable => 0,
            ModuleKind::SharedLib => 1,
        });
        put_u32(&mut buf, self.needed.len() as u32);
        for n in &self.needed {
            put_string(&mut buf, n);
        }
        put_bytes(&mut buf, &self.code);
        put_bytes(&mut buf, &self.data);
        put_u64(&mut buf, self.bss_size);
        put_u32(&mut buf, self.symrefs.len() as u32);
        for s in &self.symrefs {
            buf.push(s.kind.encode());
            put_string(&mut buf, &s.name);
        }
        put_u32(&mut buf, self.exports.len() as u32);
        for e in &self.exports {
            buf.push(e.kind.encode());
            put_u64(&mut buf, e.offset);
            put_u64(&mut buf, e.size);
            put_string(&mut buf, &e.name);
        }
        put_u32(&mut buf, self.data_relocs.len() as u32);
        for r in &self.data_relocs {
            put_u64(&mut buf, r.data_offset);
            put_u32(&mut buf, r.sym);
        }
        put_u32(&mut buf, self.files.len() as u32);
        for f in &self.files {
            put_string(&mut buf, f);
        }
        put_u32(&mut buf, self.line_table.len() as u32);
        for l in &self.line_table {
            put_u64(&mut buf, l.code_offset);
            put_u32(&mut buf, l.file);
            put_u32(&mut buf, l.line);
        }
        buf
    }

    /// Decode a module from its binary representation.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Module, FormatError> {
        let buf = &mut buf;
        if take(buf)? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = get_u32(buf)?;
        if version != VERSION {
            return Err(FormatError::UnsupportedVersion(version));
        }
        let name = get_string(buf)?;
        let kind = match get_u8(buf)? {
            0 => ModuleKind::Executable,
            1 => ModuleKind::SharedLib,
            other => return Err(FormatError::BadEnum("module kind", other)),
        };
        let needed_count = get_u32(buf)?;
        let mut needed = Vec::with_capacity(needed_count.min(1024) as usize);
        for _ in 0..needed_count {
            needed.push(get_string(buf)?);
        }
        let code = get_bytes(buf)?;
        let data = get_bytes(buf)?;
        let bss_size = get_u64(buf)?;
        let symref_count = get_u32(buf)?;
        let mut symrefs = Vec::with_capacity(symref_count.min(65536) as usize);
        for _ in 0..symref_count {
            let kind = get_u8(buf)?;
            let kind = SymKind::decode(kind).ok_or(FormatError::BadEnum("symbol kind", kind))?;
            let name = get_string(buf)?;
            symrefs.push(SymRef { name, kind });
        }
        let export_count = get_u32(buf)?;
        let mut exports = Vec::with_capacity(export_count.min(65536) as usize);
        for _ in 0..export_count {
            let kind = get_u8(buf)?;
            let kind = SymKind::decode(kind).ok_or(FormatError::BadEnum("symbol kind", kind))?;
            let offset = get_u64(buf)?;
            let size = get_u64(buf)?;
            let name = get_string(buf)?;
            exports.push(Export {
                name,
                kind,
                offset,
                size,
            });
        }
        let reloc_count = get_u32(buf)?;
        let mut data_relocs = Vec::with_capacity(reloc_count.min(65536) as usize);
        for _ in 0..reloc_count {
            let data_offset = get_u64(buf)?;
            let sym = get_u32(buf)?;
            data_relocs.push(DataReloc { data_offset, sym });
        }
        let file_count = get_u32(buf)?;
        let mut files = Vec::with_capacity(file_count.min(65536) as usize);
        for _ in 0..file_count {
            files.push(get_string(buf)?);
        }
        let line_count = get_u32(buf)?;
        let mut line_table = Vec::with_capacity(line_count.min(1 << 20) as usize);
        for _ in 0..line_count {
            let code_offset = get_u64(buf)?;
            let file = get_u32(buf)?;
            let line = get_u32(buf)?;
            line_table.push(LineEntry {
                code_offset,
                file,
                line,
            });
        }
        Ok(Module {
            name,
            kind,
            needed,
            code,
            data,
            bss_size,
            symrefs,
            exports,
            data_relocs,
            files,
            line_table,
        })
    }
}

#[cfg(test)]
mod tests {
    use lfi_arch::{Insn, Reg};

    use super::*;

    fn sample_module() -> Module {
        let mut m = Module::new("libdemo", ModuleKind::SharedLib);
        m.needed.push("libc".into());
        m.symrefs.push(SymRef::func("read"));
        m.symrefs.push(SymRef::tls("errno"));
        m.symrefs.push(SymRef::data("table"));
        for insn in [
            Insn::MovI {
                dst: Reg::R(0),
                imm: -1,
            },
            Insn::TlsStore {
                sym: 1,
                src: Reg::R(0),
            },
            Insn::Ret,
        ] {
            m.code.extend_from_slice(&insn.encode());
        }
        m.data = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        m.bss_size = 128;
        m.exports.push(Export {
            name: "fail_read".into(),
            kind: SymKind::Func,
            offset: 0,
            size: 36,
        });
        m.exports.push(Export {
            name: "table".into(),
            kind: SymKind::Data,
            offset: 0,
            size: 16,
        });
        m.data_relocs.push(DataReloc {
            data_offset: 8,
            sym: 2,
        });
        m.files.push("libdemo.c".into());
        m.line_table.push(LineEntry {
            code_offset: 0,
            file: 0,
            line: 10,
        });
        m
    }

    #[test]
    fn roundtrip() {
        let module = sample_module();
        let bytes = module.to_bytes();
        let back = Module::from_bytes(&bytes).expect("decode");
        assert_eq!(back, module);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_module().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Module::from_bytes(&bytes), Err(FormatError::BadMagic));
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut bytes = sample_module().to_bytes();
        bytes[4] = 0xFF;
        assert!(matches!(
            Module::from_bytes(&bytes),
            Err(FormatError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample_module().to_bytes();
        // Chop the serialized form at every point; decoding must error out,
        // never panic and never succeed with partial data.
        for cut in 0..bytes.len() {
            let result = Module::from_bytes(&bytes[..cut]);
            assert!(result.is_err(), "cut at {cut} unexpectedly decoded");
        }
    }

    #[test]
    fn rejects_string_length_past_the_buffer() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        bytes.extend_from_slice(b"abc");
        assert_eq!(
            Module::from_bytes(&bytes),
            Err(FormatError::LengthOutOfRange(1000))
        );
    }

    #[test]
    fn empty_module_roundtrips() {
        let m = Module::new("empty", ModuleKind::Executable);
        assert_eq!(Module::from_bytes(&m.to_bytes()), Ok(m));
    }
}
