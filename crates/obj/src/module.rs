//! The [`Module`] container and its invariants.

use std::collections::HashMap;
use std::fmt;

use lfi_arch::{decode_all, Insn, INSN_SIZE};

use crate::symbol::{DataReloc, Export, SymKind, SymRef};

/// Whether a module is a program entry point or a shared library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleKind {
    /// An executable; must export `main`.
    Executable,
    /// A shared library; interposable via the preload mechanism.
    SharedLib,
}

/// A DWARF-like line-table entry: instructions at or after `code_offset`
/// (until the next entry) originate from `files[file] : line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEntry {
    /// Byte offset into the code section.
    pub code_offset: u64,
    /// Index into [`Module::files`].
    pub file: u32,
    /// 1-based source line number.
    pub line: u32,
}

/// A loadable unit: executable or shared library.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name (`libc`, `bind-lite`, ...). Used in backtraces, triggers
    /// and injection scenarios, like the object-file name in the paper.
    pub name: String,
    /// Executable or shared library.
    pub kind: ModuleKind,
    /// Names of libraries this module needs at load time (like `DT_NEEDED`).
    pub needed: Vec<String>,
    /// Encoded instructions; length is a multiple of [`INSN_SIZE`].
    pub code: Vec<u8>,
    /// Initialized data.
    pub data: Vec<u8>,
    /// Size of the zero-initialized region following the data section.
    pub bss_size: u64,
    /// Symbol references used by `callsym`/`leasym`/`tls*` instructions.
    pub symrefs: Vec<SymRef>,
    /// Exported definitions.
    pub exports: Vec<Export>,
    /// Data-section relocations.
    pub data_relocs: Vec<DataReloc>,
    /// Source files referenced by the line table.
    pub files: Vec<String>,
    /// Line table, sorted by `code_offset`.
    pub line_table: Vec<LineEntry>,
}

/// Problems detected by [`Module::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// Code section length is not a multiple of the instruction size.
    MisalignedCode { len: usize },
    /// An instruction failed to decode.
    BadInstruction { offset: u64, message: String },
    /// An instruction references a symbol index outside the symref table.
    SymRefOutOfRange { offset: u64, sym: u32 },
    /// An export points outside the section it claims to live in.
    ExportOutOfRange { name: String },
    /// A function export is not aligned to an instruction boundary.
    ExportMisaligned { name: String },
    /// A data relocation's patch site is out of range or misaligned.
    BadDataReloc { data_offset: u64 },
    /// A line-table entry references a file index outside `files`.
    LineFileOutOfRange { entry: usize },
    /// Two exports share the same name and namespace.
    DuplicateExport { name: String },
    /// An executable does not export `main`.
    MissingMain,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::MisalignedCode { len } => {
                write!(
                    f,
                    "code section length {len} is not a multiple of {INSN_SIZE}"
                )
            }
            ValidateError::BadInstruction { offset, message } => {
                write!(f, "undecodable instruction at {offset:#x}: {message}")
            }
            ValidateError::SymRefOutOfRange { offset, sym } => {
                write!(
                    f,
                    "instruction at {offset:#x} references missing symbol #{sym}"
                )
            }
            ValidateError::ExportOutOfRange { name } => {
                write!(f, "export `{name}` points outside its section")
            }
            ValidateError::ExportMisaligned { name } => {
                write!(f, "function export `{name}` is not instruction-aligned")
            }
            ValidateError::BadDataReloc { data_offset } => {
                write!(
                    f,
                    "data relocation at {data_offset:#x} is out of range or misaligned"
                )
            }
            ValidateError::LineFileOutOfRange { entry } => {
                write!(f, "line-table entry {entry} references a missing file")
            }
            ValidateError::DuplicateExport { name } => {
                write!(f, "duplicate export `{name}`")
            }
            ValidateError::MissingMain => write!(f, "executable does not export `main`"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl Module {
    /// Create an empty module of the given kind.
    pub fn new(name: impl Into<String>, kind: ModuleKind) -> Module {
        Module {
            name: name.into(),
            kind,
            needed: Vec::new(),
            code: Vec::new(),
            data: Vec::new(),
            bss_size: 0,
            symrefs: Vec::new(),
            exports: Vec::new(),
            data_relocs: Vec::new(),
            files: Vec::new(),
            line_table: Vec::new(),
        }
    }

    /// Decode the whole code section. Panics only if the module is invalid;
    /// callers that work with untrusted modules should [`Module::validate`]
    /// first.
    pub fn decode_code(&self) -> Vec<(u64, Insn)> {
        let (insns, err) = decode_all(&self.code);
        debug_assert!(err.is_none(), "decode_code on an invalid module");
        insns
    }

    /// Decode the single instruction at `offset`, if any.
    pub fn insn_at(&self, offset: u64) -> Option<Insn> {
        if !offset.is_multiple_of(INSN_SIZE) {
            return None;
        }
        let start = offset as usize;
        if start + INSN_SIZE as usize > self.code.len() {
            return None;
        }
        Insn::decode(&self.code[start..]).ok()
    }

    /// Number of instructions in the code section.
    pub fn insn_count(&self) -> usize {
        self.code.len() / INSN_SIZE as usize
    }

    /// Look up an export by name and kind.
    pub fn export(&self, name: &str, kind: SymKind) -> Option<&Export> {
        self.exports
            .iter()
            .find(|e| e.kind == kind && e.name == name)
    }

    /// Look up a function export by name.
    pub fn func_export(&self, name: &str) -> Option<&Export> {
        self.export(name, SymKind::Func)
    }

    /// All code offsets whose instruction is a `callsym` referencing the given
    /// function name. This is the call-site discovery primitive used by the
    /// analyzer (the analogue of scanning PLT relocations in an ELF binary).
    pub fn call_sites_of(&self, func_name: &str) -> Vec<u64> {
        self.decode_code()
            .into_iter()
            .filter_map(|(off, insn)| match insn {
                Insn::CallSym { sym } => {
                    let symref = self.symrefs.get(sym as usize)?;
                    if symref.kind == SymKind::Func && symref.name == func_name {
                        Some(off)
                    } else {
                        None
                    }
                }
                _ => None,
            })
            .collect()
    }

    /// All distinct function names referenced by `callsym` instructions that
    /// are *not* defined by this module (i.e. true imports).
    pub fn imported_functions(&self) -> Vec<String> {
        let defined: HashMap<&str, ()> = self
            .exports
            .iter()
            .filter(|e| e.kind == SymKind::Func)
            .map(|e| (e.name.as_str(), ()))
            .collect();
        let mut names: Vec<String> = self
            .symrefs
            .iter()
            .filter(|s| s.kind == SymKind::Func && !defined.contains_key(s.name.as_str()))
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The function export whose code range contains `offset`, determined by
    /// taking the export with the greatest offset that is `<= offset`.
    pub fn containing_function(&self, offset: u64) -> Option<&Export> {
        self.exports
            .iter()
            .filter(|e| e.kind == SymKind::Func && e.offset <= offset)
            .max_by_key(|e| e.offset)
    }

    /// Source file and line for a code offset, using the line table.
    pub fn line_for_offset(&self, offset: u64) -> Option<(&str, u32)> {
        if self.line_table.is_empty() {
            return None;
        }
        let idx = match self
            .line_table
            .binary_search_by_key(&offset, |e| e.code_offset)
        {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let entry = &self.line_table[idx];
        let file = self.files.get(entry.file as usize)?;
        Some((file.as_str(), entry.line))
    }

    /// Code offsets attributed to a given `file:line`, per the line table.
    pub fn offsets_for_line(&self, file: &str, line: u32) -> Vec<u64> {
        let Some(file_idx) = self.files.iter().position(|f| f == file) else {
            return Vec::new();
        };
        self.line_table
            .iter()
            .filter(|e| e.file as usize == file_idx && e.line == line)
            .map(|e| e.code_offset)
            .collect()
    }

    /// Check every structural invariant of the module.
    pub fn validate(&self) -> Result<(), Vec<ValidateError>> {
        let mut errors = Vec::new();
        if !self.code.len().is_multiple_of(INSN_SIZE as usize) {
            errors.push(ValidateError::MisalignedCode {
                len: self.code.len(),
            });
        }
        let (insns, decode_err) = decode_all(&self.code);
        if let Some((offset, err)) = decode_err {
            errors.push(ValidateError::BadInstruction {
                offset,
                message: err.to_string(),
            });
        }
        for (off, insn) in &insns {
            let sym = match insn {
                Insn::CallSym { sym }
                | Insn::LeaSym { sym, .. }
                | Insn::TlsLoad { sym, .. }
                | Insn::TlsStore { sym, .. } => Some(*sym),
                _ => None,
            };
            if let Some(sym) = sym {
                if sym as usize >= self.symrefs.len() {
                    errors.push(ValidateError::SymRefOutOfRange { offset: *off, sym });
                }
            }
        }
        let mut seen = HashMap::new();
        for export in &self.exports {
            if seen
                .insert((export.name.clone(), export.kind), ())
                .is_some()
            {
                errors.push(ValidateError::DuplicateExport {
                    name: export.name.clone(),
                });
            }
            match export.kind {
                SymKind::Func => {
                    if export.offset as usize >= self.code.len().max(1) {
                        errors.push(ValidateError::ExportOutOfRange {
                            name: export.name.clone(),
                        });
                    } else if export.offset % INSN_SIZE != 0 {
                        errors.push(ValidateError::ExportMisaligned {
                            name: export.name.clone(),
                        });
                    }
                }
                SymKind::Data => {
                    let limit = self.data.len() as u64 + self.bss_size;
                    if export.offset >= limit.max(1) {
                        errors.push(ValidateError::ExportOutOfRange {
                            name: export.name.clone(),
                        });
                    }
                }
                SymKind::Tls => {}
            }
        }
        for reloc in &self.data_relocs {
            let end = reloc.data_offset.checked_add(8);
            let ok = end.is_some_and(|e| e as usize <= self.data.len());
            if !ok {
                errors.push(ValidateError::BadDataReloc {
                    data_offset: reloc.data_offset,
                });
            }
        }
        for (i, entry) in self.line_table.iter().enumerate() {
            if entry.file as usize >= self.files.len() {
                errors.push(ValidateError::LineFileOutOfRange { entry: i });
            }
        }
        if self.kind == ModuleKind::Executable && self.func_export("main").is_none() {
            errors.push(ValidateError::MissingMain);
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Render a human-readable disassembly listing of the code section,
    /// annotated with function labels and source lines where available.
    pub fn disassembly(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let func_at: HashMap<u64, &str> = self
            .exports
            .iter()
            .filter(|e| e.kind == SymKind::Func)
            .map(|e| (e.offset, e.name.as_str()))
            .collect();
        let mut last_line: Option<(&str, u32)> = None;
        for (off, insn) in self.decode_code() {
            if let Some(name) = func_at.get(&off) {
                let _ = writeln!(out, "\n{name}:");
            }
            let loc = self.line_for_offset(off);
            if loc != last_line {
                if let Some((file, line)) = loc {
                    let _ = writeln!(out, "  ; {file}:{line}");
                }
                last_line = loc;
            }
            let annotated = match insn {
                Insn::CallSym { sym } | Insn::LeaSym { sym, .. } => {
                    let name = self
                        .symrefs
                        .get(sym as usize)
                        .map(|s| s.name.as_str())
                        .unwrap_or("?");
                    format!("{insn}  ; -> {name}")
                }
                _ => insn.to_string(),
            };
            let _ = writeln!(out, "  {off:#06x}: {annotated}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use lfi_arch::Reg;

    use super::*;

    fn push_insn(module: &mut Module, insn: Insn) -> u64 {
        let off = module.code.len() as u64;
        module.code.extend_from_slice(&insn.encode());
        off
    }

    fn tiny_module() -> Module {
        let mut m = Module::new("demo", ModuleKind::Executable);
        m.symrefs.push(SymRef::func("read"));
        m.symrefs.push(SymRef::tls("errno"));
        m.files.push("demo.c".to_string());
        let main_off = push_insn(
            &mut m,
            Insn::MovI {
                dst: Reg::R(1),
                imm: 3,
            },
        );
        m.line_table.push(LineEntry {
            code_offset: main_off,
            file: 0,
            line: 1,
        });
        push_insn(&mut m, Insn::CallSym { sym: 0 });
        push_insn(
            &mut m,
            Insn::CmpI {
                a: Reg::R(0),
                imm: -1,
            },
        );
        m.line_table.push(LineEntry {
            code_offset: 2 * INSN_SIZE,
            file: 0,
            line: 2,
        });
        push_insn(&mut m, Insn::Ret);
        m.exports.push(Export {
            name: "main".into(),
            kind: SymKind::Func,
            offset: main_off,
            size: m.code.len() as u64,
        });
        m
    }

    #[test]
    fn validate_accepts_well_formed_module() {
        assert_eq!(tiny_module().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_main() {
        let mut m = tiny_module();
        m.exports.clear();
        let errs = m.validate().unwrap_err();
        assert!(errs.contains(&ValidateError::MissingMain));
    }

    #[test]
    fn validate_rejects_symref_out_of_range() {
        let mut m = tiny_module();
        push_insn(&mut m, Insn::CallSym { sym: 99 });
        let errs = m.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::SymRefOutOfRange { sym: 99, .. })));
    }

    #[test]
    fn validate_rejects_misaligned_code() {
        let mut m = tiny_module();
        m.code.push(0);
        let errs = m.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::MisalignedCode { .. })));
    }

    #[test]
    fn validate_rejects_bad_data_reloc() {
        let mut m = tiny_module();
        m.data = vec![0; 4];
        m.data_relocs.push(DataReloc {
            data_offset: 2,
            sym: 0,
        });
        let errs = m.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::BadDataReloc { data_offset: 2 })));
    }

    #[test]
    fn call_sites_and_imports() {
        let m = tiny_module();
        assert_eq!(m.call_sites_of("read"), vec![INSN_SIZE]);
        assert_eq!(m.call_sites_of("write"), Vec::<u64>::new());
        assert_eq!(m.imported_functions(), vec!["read".to_string()]);
    }

    #[test]
    fn line_lookup_uses_preceding_entry() {
        let m = tiny_module();
        assert_eq!(m.line_for_offset(0), Some(("demo.c", 1)));
        assert_eq!(m.line_for_offset(INSN_SIZE), Some(("demo.c", 1)));
        assert_eq!(m.line_for_offset(2 * INSN_SIZE), Some(("demo.c", 2)));
        assert_eq!(m.line_for_offset(3 * INSN_SIZE), Some(("demo.c", 2)));
        assert_eq!(m.offsets_for_line("demo.c", 2), vec![2 * INSN_SIZE]);
        assert!(m.offsets_for_line("other.c", 2).is_empty());
    }

    #[test]
    fn containing_function_lookup() {
        let m = tiny_module();
        assert_eq!(m.containing_function(2 * INSN_SIZE).unwrap().name, "main");
        let mut m2 = m.clone();
        m2.exports.push(Export {
            name: "helper".into(),
            kind: SymKind::Func,
            offset: 2 * INSN_SIZE,
            size: 0,
        });
        assert_eq!(m2.containing_function(INSN_SIZE).unwrap().name, "main");
        assert_eq!(
            m2.containing_function(3 * INSN_SIZE).unwrap().name,
            "helper"
        );
    }

    #[test]
    fn disassembly_mentions_symbols_and_lines() {
        let text = tiny_module().disassembly();
        assert!(text.contains("main:"));
        assert!(text.contains("-> read"));
        assert!(text.contains("demo.c:1"));
    }
}
