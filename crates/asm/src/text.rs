//! Textual assembler.
//!
//! The textual form exists for tests and for small hand-written modules (the
//! profiler and analyzer test suites construct precise binary patterns with
//! it). The syntax mirrors the disassembly printed by `lfi-obj`:
//!
//! ```text
//! .module libdemo lib
//! .needed libc
//! .file "demo.c"
//!
//! .func my_read
//! .line 10
//!     movi r1, 3
//!     callsym read
//!     cmpi r0, -1
//!     je fail
//!     ret
//! fail:
//!     movi r0, -1
//!     tlsst errno, r0
//!     ret
//!
//! .string msg "hello"
//! .word table 1 2 3
//! .bss buffer 4096
//! ```

use std::fmt;

use lfi_arch::{errno, sys, AluOp, Cond, Insn, Reg, Word};
use lfi_obj::{Module, ModuleKind, SymKind};

use crate::builder::{AsmBuilder, AsmError};

/// Errors produced by [`assemble_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextAsmError {
    /// 1-based line number in the assembly source.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for TextAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextAsmError {}

fn err(line: usize, message: impl Into<String>) -> TextAsmError {
    TextAsmError {
        line,
        message: message.into(),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, TextAsmError> {
    tok.parse::<Reg>().map_err(|e| err(line, e))
}

fn parse_imm(tok: &str, line: usize) -> Result<Word, TextAsmError> {
    let tok = tok.trim();
    if let Some(value) = errno::from_name(tok) {
        return Ok(value);
    }
    if let Some(name) = tok.strip_prefix("SYS_") {
        if let Some(num) = sys_by_name(&name.to_lowercase()) {
            return Ok(num);
        }
    }
    let (neg, digits) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let value = if let Some(hex) = digits.strip_prefix("0x") {
        i64::from_str_radix(hex, 16).map_err(|_| err(line, format!("bad immediate `{tok}`")))?
    } else if let Some(ch) = digits.strip_prefix('\'') {
        let ch = ch.strip_suffix('\'').unwrap_or(ch);
        let mut chars = ch.chars();
        let c = chars
            .next()
            .ok_or_else(|| err(line, "empty character literal"))?;
        c as i64
    } else {
        digits
            .parse::<i64>()
            .map_err(|_| err(line, format!("bad immediate `{tok}`")))?
    };
    Ok(if neg { -value } else { value })
}

fn sys_by_name(name: &str) -> Option<Word> {
    (sys::EXIT..=sys::LAST).find(|&n| sys::name(n) == Some(name))
}

/// Parse a `[reg+off]` or `[reg-off]` or `[reg]` memory operand.
fn parse_mem(tok: &str, line: usize) -> Result<(Reg, Word), TextAsmError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected memory operand, got `{tok}`")))?;
    let (reg_part, off) = if let Some(pos) = inner.rfind(['+', '-']) {
        if pos == 0 {
            (inner, 0)
        } else {
            let (r, o) = inner.split_at(pos);
            (r, parse_imm(o, line)?)
        }
    } else {
        (inner, 0)
    };
    Ok((parse_reg(reg_part.trim(), line)?, off))
}

fn unquote(tok: &str, line: usize) -> Result<String, TextAsmError> {
    let inner = tok
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected quoted string, got `{tok}`")))?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('0') => out.push('\0'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => return Err(err(line, format!("bad escape `\\{other:?}`"))),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn alu_by_name(name: &str) -> Option<AluOp> {
    AluOp::ALL.iter().copied().find(|op| op.mnemonic() == name)
}

fn cond_by_name(name: &str) -> Option<Cond> {
    Cond::ALL.iter().copied().find(|c| c.mnemonic() == name)
}

/// Assemble a textual module into a [`Module`].
pub fn assemble_text(source: &str) -> Result<Module, TextAsmError> {
    let mut builder: Option<AsmBuilder> = None;
    let mut pending: Vec<(usize, String)> = Vec::new();

    for (idx, raw_line) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw_line.find(';') {
            // Keep semicolons inside string literals.
            Some(pos) if !raw_line[..pos].contains('"') => &raw_line[..pos],
            _ => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = line.strip_prefix(".module") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| err(lineno, ".module needs a name"))?;
            let kind = match parts.next() {
                Some("exe") | Some("executable") | None => ModuleKind::Executable,
                Some("lib") | Some("shared") => ModuleKind::SharedLib,
                Some(other) => return Err(err(lineno, format!("unknown module kind `{other}`"))),
            };
            builder = Some(AsmBuilder::new(name, kind));
            continue;
        }

        let b = builder
            .as_mut()
            .ok_or_else(|| err(lineno, "missing .module directive"))?;

        // Directives.
        if let Some(rest) = line.strip_prefix('.') {
            let mut parts = rest.splitn(2, char::is_whitespace);
            let directive = parts.next().unwrap_or_default();
            let args = parts.next().unwrap_or("").trim();
            match directive {
                "needed" => {
                    b.needs(args);
                }
                "file" => {
                    let path = if args.starts_with('"') {
                        unquote(args, lineno)?
                    } else {
                        args.to_string()
                    };
                    b.set_file(path);
                }
                "line" => {
                    let n = parse_imm(args, lineno)? as u32;
                    b.mark_line(n);
                }
                "func" => {
                    if args.is_empty() {
                        return Err(err(lineno, ".func needs a name"));
                    }
                    b.export_func(args);
                }
                "string" => {
                    let (name, value) = args
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| err(lineno, ".string needs a name and a value"))?;
                    let text = unquote(value.trim(), lineno)?;
                    let off = b.add_cstring(&text);
                    b.export_data(name, off, text.len() as u64 + 1);
                }
                "word" => {
                    let mut parts = args.split_whitespace();
                    let name = parts
                        .next()
                        .ok_or_else(|| err(lineno, ".word needs a name"))?;
                    let words: Result<Vec<Word>, _> = parts.map(|t| parse_imm(t, lineno)).collect();
                    let words = words?;
                    let off = b.add_words(&words);
                    b.export_data(name, off, words.len() as u64 * 8);
                }
                "bss" => {
                    let (name, size) = args
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| err(lineno, ".bss needs a name and a size"))?;
                    let size = parse_imm(size.trim(), lineno)? as u64;
                    let off = b.reserve_bss(size);
                    b.export_data(name, off, size);
                }
                other => return Err(err(lineno, format!("unknown directive `.{other}`"))),
            }
            continue;
        }

        // Labels.
        if let Some(label) = line.strip_suffix(':') {
            if label.split_whitespace().count() != 1 {
                return Err(err(lineno, format!("bad label `{label}`")));
            }
            b.bind(label.trim());
            continue;
        }

        // Instructions.
        let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (line, ""),
        };
        let ops: Vec<String> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(|s| s.trim().to_string()).collect()
        };
        let expect = |n: usize| -> Result<(), TextAsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(
                    lineno,
                    format!("`{mnemonic}` expects {n} operands, got {}", ops.len()),
                ))
            }
        };

        match mnemonic {
            "nop" => {
                expect(0)?;
                b.emit(Insn::Nop);
            }
            "halt" => {
                expect(0)?;
                b.emit(Insn::Halt);
            }
            "brk" => {
                expect(0)?;
                b.emit(Insn::Brk);
            }
            "ret" => {
                expect(0)?;
                b.emit(Insn::Ret);
            }
            "movi" => {
                expect(2)?;
                b.emit(Insn::MovI {
                    dst: parse_reg(&ops[0], lineno)?,
                    imm: parse_imm(&ops[1], lineno)?,
                });
            }
            "mov" => {
                expect(2)?;
                b.emit(Insn::MovR {
                    dst: parse_reg(&ops[0], lineno)?,
                    src: parse_reg(&ops[1], lineno)?,
                });
            }
            "ld" | "ld8" => {
                expect(2)?;
                let dst = parse_reg(&ops[0], lineno)?;
                let (base, off) = parse_mem(&ops[1], lineno)?;
                b.emit(if mnemonic == "ld" {
                    Insn::Load { dst, base, off }
                } else {
                    Insn::Load8 { dst, base, off }
                });
            }
            "st" | "st8" => {
                expect(2)?;
                let (base, off) = parse_mem(&ops[0], lineno)?;
                let src = parse_reg(&ops[1], lineno)?;
                b.emit(if mnemonic == "st" {
                    Insn::Store { base, off, src }
                } else {
                    Insn::Store8 { base, off, src }
                });
            }
            "lea" => {
                expect(2)?;
                let dst = parse_reg(&ops[0], lineno)?;
                let (base, off) = parse_mem(&ops[1], lineno)?;
                b.emit(Insn::Lea { dst, base, off });
            }
            "leasym" => {
                expect(2)?;
                let dst = parse_reg(&ops[0], lineno)?;
                b.lea_sym(dst, ops[1].clone(), SymKind::Data);
            }
            "leafn" => {
                expect(2)?;
                let dst = parse_reg(&ops[0], lineno)?;
                b.lea_sym(dst, ops[1].clone(), SymKind::Func);
            }
            "push" => {
                expect(1)?;
                b.emit(Insn::Push {
                    src: parse_reg(&ops[0], lineno)?,
                });
            }
            "pop" => {
                expect(1)?;
                b.emit(Insn::Pop {
                    dst: parse_reg(&ops[0], lineno)?,
                });
            }
            "neg" => {
                expect(1)?;
                b.emit(Insn::Neg {
                    dst: parse_reg(&ops[0], lineno)?,
                });
            }
            "not" => {
                expect(1)?;
                b.emit(Insn::Not {
                    dst: parse_reg(&ops[0], lineno)?,
                });
            }
            "cmp" => {
                expect(2)?;
                b.emit(Insn::Cmp {
                    a: parse_reg(&ops[0], lineno)?,
                    b: parse_reg(&ops[1], lineno)?,
                });
            }
            "cmpi" => {
                expect(2)?;
                b.emit(Insn::CmpI {
                    a: parse_reg(&ops[0], lineno)?,
                    imm: parse_imm(&ops[1], lineno)?,
                });
            }
            "jmp" => {
                expect(1)?;
                b.jmp(ops[0].clone());
            }
            "call" => {
                expect(1)?;
                b.call_local(ops[0].clone());
            }
            "callsym" => {
                expect(1)?;
                b.call_sym(ops[0].clone());
            }
            "callr" => {
                expect(1)?;
                b.emit(Insn::CallR {
                    reg: parse_reg(&ops[0], lineno)?,
                });
            }
            "tlsld" => {
                expect(2)?;
                let dst = parse_reg(&ops[0], lineno)?;
                b.tls_load(dst, ops[1].clone());
            }
            "tlsst" => {
                expect(2)?;
                let src = parse_reg(&ops[1], lineno)?;
                b.tls_store(ops[0].clone(), src);
            }
            "sys" => {
                expect(1)?;
                let num = if let Some(n) = sys_by_name(&ops[0]) {
                    n
                } else {
                    parse_imm(&ops[0], lineno)?
                };
                b.emit(Insn::Sys { num });
            }
            other => {
                // Conditional jumps (`je`, `jne`, ...), ALU reg-reg and reg-imm forms.
                if let Some(cond) = other.strip_prefix('j').and_then(cond_by_name) {
                    expect(1)?;
                    b.j(cond, ops[0].clone());
                } else if let Some(op) = other.strip_suffix('i').and_then(alu_by_name) {
                    expect(2)?;
                    b.emit(Insn::AluI {
                        op,
                        dst: parse_reg(&ops[0], lineno)?,
                        imm: parse_imm(&ops[1], lineno)?,
                    });
                } else if let Some(op) = alu_by_name(other) {
                    expect(2)?;
                    b.emit(Insn::Alu {
                        op,
                        dst: parse_reg(&ops[0], lineno)?,
                        src: parse_reg(&ops[1], lineno)?,
                    });
                } else {
                    return Err(err(lineno, format!("unknown mnemonic `{other}`")));
                }
            }
        }
        pending.clear();
    }

    let builder = builder.ok_or_else(|| err(0, "missing .module directive"))?;
    builder
        .finish()
        .map_err(|errors: Vec<AsmError>| TextAsmError {
            line: 0,
            message: errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        })
}

#[cfg(test)]
mod tests {
    use lfi_arch::INSN_SIZE;

    use super::*;

    const DEMO: &str = r#"
        .module libdemo lib
        .needed libc
        .file "demo.c"

        .func safe_read
        .line 5
            movi r1, 3
            callsym read
            cmpi r0, -1
            je fail
            ret
        fail:
        .line 8
            movi r0, -1
            tlsst errno, r0
            ret

        .string msg "hi\n"
        .word tbl 1 2 3
        .bss buf 64
    "#;

    #[test]
    fn assembles_a_full_module() {
        let m = assemble_text(DEMO).expect("assemble");
        assert_eq!(m.kind, ModuleKind::SharedLib);
        assert_eq!(m.needed, vec!["libc".to_string()]);
        assert_eq!(m.call_sites_of("read"), vec![INSN_SIZE]);
        assert!(m.func_export("safe_read").is_some());
        assert!(m.export("msg", SymKind::Data).is_some());
        assert!(m.export("tbl", SymKind::Data).is_some());
        assert!(m.export("buf", SymKind::Data).is_some());
        assert_eq!(m.line_for_offset(0), Some(("demo.c", 5)));
        assert_eq!(m.line_for_offset(6 * INSN_SIZE), Some(("demo.c", 8)));
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn errno_and_sys_names_are_recognized() {
        let src = r#"
            .module t lib
            .func f
                movi r0, EINVAL
                sys read
                sys SYS_WRITE
                ret
        "#;
        let m = assemble_text(src).expect("assemble");
        let insns = m.decode_code();
        assert_eq!(
            insns[0].1,
            Insn::MovI {
                dst: Reg::R(0),
                imm: errno::EINVAL
            }
        );
        assert_eq!(insns[1].1, Insn::Sys { num: sys::READ });
        assert_eq!(insns[2].1, Insn::Sys { num: sys::WRITE });
    }

    #[test]
    fn memory_operands_parse_offsets() {
        let src = r#"
            .module t lib
            .func f
                ld r1, [fp-16]
                st [sp+8], r2
                lea r3, [fp+0]
                ret
        "#;
        let m = assemble_text(src).expect("assemble");
        let insns = m.decode_code();
        assert_eq!(
            insns[0].1,
            Insn::Load {
                dst: Reg::R(1),
                base: Reg::Fp,
                off: -16
            }
        );
        assert_eq!(
            insns[1].1,
            Insn::Store {
                base: Reg::Sp,
                off: 8,
                src: Reg::R(2)
            }
        );
    }

    #[test]
    fn reports_unknown_mnemonics_with_line_numbers() {
        let src = ".module t lib\n.func f\n  frobnicate r1, r2\n  ret\n";
        let e = assemble_text(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn reports_undefined_labels() {
        let src = ".module t lib\n.func f\n  jmp nowhere\n  ret\n";
        let e = assemble_text(src).unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn reports_missing_module_directive() {
        let e = assemble_text("  ret\n").unwrap_err();
        assert!(e.message.contains(".module"));
    }

    #[test]
    fn alu_mnemonics_cover_reg_and_imm_forms() {
        let src = r#"
            .module t lib
            .func f
                add r1, r2
                subi r1, 4
                shli r1, 2
                xor r1, r1
                ret
        "#;
        let m = assemble_text(src).expect("assemble");
        let insns = m.decode_code();
        assert_eq!(
            insns[0].1,
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg::R(1),
                src: Reg::R(2)
            }
        );
        assert_eq!(
            insns[1].1,
            Insn::AluI {
                op: AluOp::Sub,
                dst: Reg::R(1),
                imm: 4
            }
        );
        assert_eq!(
            insns[2].1,
            Insn::AluI {
                op: AluOp::Shl,
                dst: Reg::R(1),
                imm: 2
            }
        );
    }
}
