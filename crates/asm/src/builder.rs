//! Programmatic module builder with labels, fixups and symbol management.

use std::collections::HashMap;
use std::fmt;

use lfi_arch::{Cond, Insn, Reg, Word, INSN_SIZE};
use lfi_obj::{Export, LineEntry, Module, ModuleKind, SymKind, SymRef};

/// Errors reported by [`AsmBuilder::finish`] or by individual emit calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A branch or local call referenced a label that was never bound.
    UndefinedLabel(String),
    /// The same label was bound twice.
    DuplicateLabel(String),
    /// The same symbol was exported twice.
    DuplicateExport(String),
    /// The finished module failed structural validation.
    Invalid(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::DuplicateExport(n) => write!(f, "duplicate export `{n}`"),
            AsmError::Invalid(msg) => write!(f, "invalid module: {msg}"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone, Copy)]
enum FixupKind {
    Jmp,
    J(Cond),
    Call,
}

#[derive(Debug, Clone)]
struct Fixup {
    insn_index: usize,
    kind: FixupKind,
    label: String,
}

/// Incremental builder for a [`Module`].
#[derive(Debug, Clone)]
pub struct AsmBuilder {
    name: String,
    kind: ModuleKind,
    needed: Vec<String>,
    insns: Vec<Insn>,
    labels: HashMap<String, u64>,
    fixups: Vec<Fixup>,
    symrefs: Vec<SymRef>,
    symref_index: HashMap<(String, SymKind), u32>,
    data: Vec<u8>,
    bss_size: u64,
    exports: Vec<Export>,
    files: Vec<String>,
    line_table: Vec<LineEntry>,
    current_file: Option<u32>,
    errors: Vec<AsmError>,
}

impl AsmBuilder {
    /// Start building a module.
    pub fn new(name: impl Into<String>, kind: ModuleKind) -> AsmBuilder {
        AsmBuilder {
            name: name.into(),
            kind,
            needed: Vec::new(),
            insns: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            symrefs: Vec::new(),
            symref_index: HashMap::new(),
            data: Vec::new(),
            bss_size: 0,
            exports: Vec::new(),
            files: Vec::new(),
            line_table: Vec::new(),
            current_file: None,
            errors: Vec::new(),
        }
    }

    /// Declare a library dependency (like `DT_NEEDED`).
    pub fn needs(&mut self, lib: impl Into<String>) -> &mut Self {
        let lib = lib.into();
        if !self.needed.contains(&lib) {
            self.needed.push(lib);
        }
        self
    }

    /// Byte offset of the next instruction to be emitted.
    pub fn here(&self) -> u64 {
        self.insns.len() as u64 * INSN_SIZE
    }

    /// Bind a label at the current code offset.
    pub fn bind(&mut self, label: impl Into<String>) -> &mut Self {
        let label = label.into();
        if self.labels.insert(label.clone(), self.here()).is_some() {
            self.errors.push(AsmError::DuplicateLabel(label));
        }
        self
    }

    /// Append a raw instruction.
    pub fn emit(&mut self, insn: Insn) -> &mut Self {
        self.insns.push(insn);
        self
    }

    /// Emit an unconditional jump to a label (forward references allowed).
    pub fn jmp(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups.push(Fixup {
            insn_index: self.insns.len(),
            kind: FixupKind::Jmp,
            label: label.into(),
        });
        self.insns.push(Insn::Jmp { target: 0 });
        self
    }

    /// Emit a conditional jump to a label.
    pub fn j(&mut self, cond: Cond, label: impl Into<String>) -> &mut Self {
        self.fixups.push(Fixup {
            insn_index: self.insns.len(),
            kind: FixupKind::J(cond),
            label: label.into(),
        });
        self.insns.push(Insn::J { cond, target: 0 });
        self
    }

    /// Emit a direct call to a module-local label.
    pub fn call_local(&mut self, label: impl Into<String>) -> &mut Self {
        self.fixups.push(Fixup {
            insn_index: self.insns.len(),
            kind: FixupKind::Call,
            label: label.into(),
        });
        self.insns.push(Insn::Call { target: 0 });
        self
    }

    /// Intern a symbol reference, returning its index.
    pub fn symref(&mut self, name: impl Into<String>, kind: SymKind) -> u32 {
        let name = name.into();
        if let Some(&idx) = self.symref_index.get(&(name.clone(), kind)) {
            return idx;
        }
        let idx = self.symrefs.len() as u32;
        self.symrefs.push(SymRef {
            name: name.clone(),
            kind,
        });
        self.symref_index.insert((name, kind), idx);
        idx
    }

    /// Emit a call through the symbol table (imported or exported function).
    pub fn call_sym(&mut self, name: impl Into<String>) -> &mut Self {
        let sym = self.symref(name, SymKind::Func);
        self.insns.push(Insn::CallSym { sym });
        self
    }

    /// Emit `leasym dst, <symbol>`.
    pub fn lea_sym(&mut self, dst: Reg, name: impl Into<String>, kind: SymKind) -> &mut Self {
        let sym = self.symref(name, kind);
        self.insns.push(Insn::LeaSym { dst, sym });
        self
    }

    /// Emit a TLS load.
    pub fn tls_load(&mut self, dst: Reg, name: impl Into<String>) -> &mut Self {
        let sym = self.symref(name, SymKind::Tls);
        self.insns.push(Insn::TlsLoad { dst, sym });
        self
    }

    /// Emit a TLS store.
    pub fn tls_store(&mut self, name: impl Into<String>, src: Reg) -> &mut Self {
        let sym = self.symref(name, SymKind::Tls);
        self.insns.push(Insn::TlsStore { sym, src });
        self
    }

    /// Export a function starting at the current code offset, and bind a label
    /// of the same name so local calls can reach it directly.
    pub fn export_func(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        if self
            .exports
            .iter()
            .any(|e| e.name == name && e.kind == SymKind::Func)
        {
            self.errors.push(AsmError::DuplicateExport(name.clone()));
            return self;
        }
        self.exports.push(Export {
            name: name.clone(),
            kind: SymKind::Func,
            offset: self.here(),
            size: 0,
        });
        self.bind(name);
        self
    }

    /// Append raw bytes to the data section, returning their offset.
    pub fn add_data(&mut self, bytes: &[u8]) -> u64 {
        // Keep words naturally aligned so data relocations stay simple.
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        let off = self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        off
    }

    /// Append a NUL-terminated string to the data section, returning its offset.
    pub fn add_cstring(&mut self, s: &str) -> u64 {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.add_data(&bytes)
    }

    /// Append 64-bit words to the data section, returning their offset.
    pub fn add_words(&mut self, words: &[Word]) -> u64 {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.add_data(&bytes)
    }

    /// Reserve zero-initialized space, returning its offset (which lies past
    /// the end of the initialized data section).
    pub fn reserve_bss(&mut self, size: u64) -> u64 {
        let data_end = (self.data.len() as u64 + 7) & !7;
        let off = data_end + self.bss_size;
        self.bss_size += (size + 7) & !7;
        off
    }

    /// Export a data symbol at the given data/BSS offset.
    pub fn export_data(&mut self, name: impl Into<String>, offset: u64, size: u64) -> &mut Self {
        let name = name.into();
        if self
            .exports
            .iter()
            .any(|e| e.name == name && e.kind == SymKind::Data)
        {
            self.errors.push(AsmError::DuplicateExport(name));
            return self;
        }
        self.exports.push(Export {
            name,
            kind: SymKind::Data,
            offset,
            size,
        });
        self
    }

    /// Switch the current source file for subsequent [`AsmBuilder::mark_line`] calls.
    pub fn set_file(&mut self, path: impl Into<String>) -> &mut Self {
        let path = path.into();
        let idx = match self.files.iter().position(|f| *f == path) {
            Some(i) => i as u32,
            None => {
                self.files.push(path);
                (self.files.len() - 1) as u32
            }
        };
        self.current_file = Some(idx);
        self
    }

    /// Record that code emitted from the current offset onward originates from
    /// the given 1-based line of the current source file.
    pub fn mark_line(&mut self, line: u32) -> &mut Self {
        if let Some(file) = self.current_file {
            let offset = self.here();
            if let Some(last) = self.line_table.last_mut() {
                if last.code_offset == offset {
                    last.file = file;
                    last.line = line;
                    return self;
                }
                if last.file == file && last.line == line {
                    return self;
                }
            }
            self.line_table.push(LineEntry {
                code_offset: offset,
                file,
                line,
            });
        }
        self
    }

    /// Resolve all fixups and produce the final module.
    pub fn finish(mut self) -> Result<Module, Vec<AsmError>> {
        let mut errors = std::mem::take(&mut self.errors);
        for fixup in &self.fixups {
            let Some(&target) = self.labels.get(&fixup.label) else {
                errors.push(AsmError::UndefinedLabel(fixup.label.clone()));
                continue;
            };
            let insn = match fixup.kind {
                FixupKind::Jmp => Insn::Jmp {
                    target: target as Word,
                },
                FixupKind::J(cond) => Insn::J {
                    cond,
                    target: target as Word,
                },
                FixupKind::Call => Insn::Call {
                    target: target as Word,
                },
            };
            self.insns[fixup.insn_index] = insn;
        }
        // Fill in function export sizes now that the layout is final.
        let code_len = self.insns.len() as u64 * INSN_SIZE;
        let mut func_offsets: Vec<u64> = self
            .exports
            .iter()
            .filter(|e| e.kind == SymKind::Func)
            .map(|e| e.offset)
            .collect();
        func_offsets.sort_unstable();
        for export in &mut self.exports {
            if export.kind == SymKind::Func {
                let next = func_offsets
                    .iter()
                    .copied()
                    .find(|&o| o > export.offset)
                    .unwrap_or(code_len);
                export.size = next.saturating_sub(export.offset);
            }
        }
        let mut code = Vec::with_capacity(self.insns.len() * INSN_SIZE as usize);
        for insn in &self.insns {
            code.extend_from_slice(&insn.encode());
        }
        let module = Module {
            name: self.name,
            kind: self.kind,
            needed: self.needed,
            code,
            data: self.data,
            bss_size: self.bss_size,
            symrefs: self.symrefs,
            exports: self.exports,
            data_relocs: Vec::new(),
            files: self.files,
            line_table: self.line_table,
        };
        if errors.is_empty() {
            if let Err(verrs) = module.validate() {
                errors.extend(verrs.into_iter().map(|e| AsmError::Invalid(e.to_string())));
            }
        }
        if errors.is_empty() {
            Ok(module)
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use lfi_arch::AluOp;

    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = AsmBuilder::new("demo", ModuleKind::Executable);
        b.export_func("main");
        b.emit(Insn::MovI {
            dst: Reg::R(0),
            imm: 0,
        });
        b.bind("loop");
        b.emit(Insn::AluI {
            op: AluOp::Add,
            dst: Reg::R(0),
            imm: 1,
        });
        b.emit(Insn::CmpI {
            a: Reg::R(0),
            imm: 10,
        });
        b.j(Cond::Lt, "loop");
        b.j(Cond::Ge, "done");
        b.bind("done");
        b.emit(Insn::Ret);
        let module = b.finish().expect("assemble");
        let insns = module.decode_code();
        // The backward branch targets the `loop` label (offset of insn 1).
        assert_eq!(
            insns[3].1,
            Insn::J {
                cond: Cond::Lt,
                target: INSN_SIZE as Word
            }
        );
        // The forward branch targets `done` (offset of the `ret`).
        assert_eq!(
            insns[4].1,
            Insn::J {
                cond: Cond::Ge,
                target: (5 * INSN_SIZE) as Word
            }
        );
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = AsmBuilder::new("demo", ModuleKind::SharedLib);
        b.export_func("f");
        b.jmp("nowhere");
        b.emit(Insn::Ret);
        let errs = b.finish().unwrap_err();
        assert!(errs.contains(&AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn duplicate_label_and_export_are_errors() {
        let mut b = AsmBuilder::new("demo", ModuleKind::SharedLib);
        b.export_func("f");
        b.emit(Insn::Ret);
        b.bind("f");
        let errs = b.finish().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, AsmError::DuplicateLabel(_))));

        let mut b = AsmBuilder::new("demo", ModuleKind::SharedLib);
        b.export_func("f");
        b.emit(Insn::Ret);
        b.exports.push(Export {
            name: "f".into(),
            kind: SymKind::Func,
            offset: 0,
            size: 0,
        });
        assert!(b.finish().is_err());
    }

    #[test]
    fn symrefs_are_deduplicated() {
        let mut b = AsmBuilder::new("demo", ModuleKind::SharedLib);
        b.export_func("f");
        b.call_sym("read");
        b.call_sym("read");
        b.call_sym("write");
        b.tls_store("errno", Reg::R(0));
        b.tls_load(Reg::R(1), "errno");
        b.emit(Insn::Ret);
        let module = b.finish().expect("assemble");
        assert_eq!(module.symrefs.len(), 3);
        assert_eq!(module.call_sites_of("read").len(), 2);
        assert_eq!(module.call_sites_of("write").len(), 1);
    }

    #[test]
    fn data_strings_words_and_bss_are_laid_out_aligned() {
        let mut b = AsmBuilder::new("demo", ModuleKind::SharedLib);
        b.export_func("f");
        b.emit(Insn::Ret);
        let s = b.add_cstring("hi");
        let w = b.add_words(&[1, 2, 3]);
        let bss = b.reserve_bss(10);
        b.export_data("words", w, 24);
        let module = b.finish().expect("assemble");
        assert_eq!(s, 0);
        assert_eq!(w % 8, 0);
        assert!(bss >= module.data.len() as u64);
        assert_eq!(module.bss_size, 16); // rounded up to 8-byte multiple
        assert_eq!(
            &module.data[w as usize..w as usize + 8],
            &1i64.to_le_bytes()
        );
    }

    #[test]
    fn function_sizes_are_computed() {
        let mut b = AsmBuilder::new("demo", ModuleKind::SharedLib);
        b.export_func("first");
        b.emit(Insn::Nop);
        b.emit(Insn::Ret);
        b.export_func("second");
        b.emit(Insn::Ret);
        let module = b.finish().expect("assemble");
        assert_eq!(module.func_export("first").unwrap().size, 2 * INSN_SIZE);
        assert_eq!(module.func_export("second").unwrap().size, INSN_SIZE);
    }

    #[test]
    fn line_table_deduplicates_consecutive_marks() {
        let mut b = AsmBuilder::new("demo", ModuleKind::SharedLib);
        b.export_func("f");
        b.set_file("f.c");
        b.mark_line(1);
        b.emit(Insn::Nop);
        b.mark_line(1);
        b.emit(Insn::Nop);
        b.mark_line(2);
        b.emit(Insn::Ret);
        let module = b.finish().expect("assemble");
        assert_eq!(module.line_table.len(), 2);
        assert_eq!(module.line_for_offset(INSN_SIZE), Some(("f.c", 1)));
        assert_eq!(module.line_for_offset(2 * INSN_SIZE), Some(("f.c", 2)));
    }
}
