//! Code generation: AST to `lfi-asm` builder calls.
//!
//! The generated code is deliberately simple (all locals spilled to the
//! stack, intermediates pushed/popped), but it preserves the binary patterns
//! the LFI analyses depend on:
//!
//! * calls to functions not defined in the module become `callsym`
//!   instructions (the analyzer's call sites),
//! * `x == CONST` / `x < CONST` comparisons compile to `cmpi` + `jcc`
//!   (the dataflow analysis classifies them as equality/inequality checks),
//! * the return value of a call lands in `r0` and is spilled to a fixed
//!   frame slot when stored in a local (the analyzer tracks those copies),
//! * `errno` reads/writes become TLS loads/stores.

use std::collections::HashMap;

use lfi_arch::{AluOp, Cond, Insn, Reg};
use lfi_asm::AsmBuilder;
use lfi_obj::{Module, ModuleKind, SymKind};

use crate::ast::{BinOp, Expr, Function, Item, Program, Stmt, UnOp};
use crate::consts::predefined;
use crate::CompileError;

/// Scratch register for the left operand / addresses.
const SCRATCH_A: Reg = Reg::R(7);
/// Scratch register for the right operand / stored values.
const SCRATCH_B: Reg = Reg::R(8);
/// Result register.
const RESULT: Reg = Reg::R(0);

#[derive(Debug, Clone, Copy)]
struct LocalSlot {
    /// Positive displacement below the frame pointer.
    offset: i64,
    /// Arrays evaluate to their address rather than a loaded value.
    is_array: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GlobalKind {
    Scalar,
    Array,
}

struct ModuleCtx {
    consts: HashMap<String, i64>,
    globals: HashMap<String, GlobalKind>,
    defined_funcs: HashMap<String, usize>,
    str_count: usize,
}

/// Generate a module from parsed programs.
pub fn generate(
    name: &str,
    kind: ModuleKind,
    needed: &[String],
    programs: &[(String, Program)],
) -> Result<Module, CompileError> {
    let mut builder = AsmBuilder::new(name, kind);
    for lib in needed {
        builder.needs(lib.clone());
    }

    let mut ctx = ModuleCtx {
        consts: HashMap::new(),
        globals: HashMap::new(),
        defined_funcs: HashMap::new(),
        str_count: 0,
    };

    // Pass 1: collect constants, globals and function names across all files.
    for (file, program) in programs {
        for item in &program.items {
            match item {
                Item::Const { name, value } => {
                    ctx.consts.insert(name.clone(), *value);
                }
                Item::Global { name, init } => {
                    if ctx.globals.contains_key(name) {
                        return Err(err(file, 0, format!("duplicate global `{name}`")));
                    }
                    let off = builder.add_words(&[*init]);
                    builder.export_data(name.clone(), off, 8);
                    ctx.globals.insert(name.clone(), GlobalKind::Scalar);
                }
                Item::GlobalArray { name, words } => {
                    if ctx.globals.contains_key(name) {
                        return Err(err(file, 0, format!("duplicate global `{name}`")));
                    }
                    // Global arrays are laid out in the (zero-initialized)
                    // data section rather than BSS so their offsets stay
                    // stable while later passes append string literals.
                    let off = builder.add_words(&vec![0; *words as usize]);
                    builder.export_data(name.clone(), off, *words as u64 * 8);
                    ctx.globals.insert(name.clone(), GlobalKind::Array);
                }
                Item::Func(func) => {
                    if ctx
                        .defined_funcs
                        .insert(func.name.clone(), func.params.len())
                        .is_some()
                    {
                        return Err(err(
                            file,
                            func.line,
                            format!("duplicate function `{}`", func.name),
                        ));
                    }
                }
            }
        }
    }

    // Pass 2: generate code for every function.
    for (file, program) in programs {
        for item in &program.items {
            if let Item::Func(func) = item {
                let mut gen = FuncGen::new(&mut builder, &mut ctx, file, func)?;
                gen.generate()?;
            }
        }
    }

    builder.finish().map_err(|errors| CompileError {
        file: name.to_string(),
        line: 0,
        message: errors
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("; "),
    })
}

fn err(file: &str, line: u32, message: impl Into<String>) -> CompileError {
    CompileError {
        file: file.to_string(),
        line,
        message: message.into(),
    }
}

struct FuncGen<'a> {
    builder: &'a mut AsmBuilder,
    ctx: &'a mut ModuleCtx,
    file: &'a str,
    func: &'a Function,
    locals: HashMap<String, LocalSlot>,
    frame_size: i64,
    label_count: usize,
    loop_stack: Vec<(String, String)>, // (continue target, break target)
}

impl<'a> FuncGen<'a> {
    fn new(
        builder: &'a mut AsmBuilder,
        ctx: &'a mut ModuleCtx,
        file: &'a str,
        func: &'a Function,
    ) -> Result<FuncGen<'a>, CompileError> {
        let mut gen = FuncGen {
            builder,
            ctx,
            file,
            func,
            locals: HashMap::new(),
            frame_size: 0,
            label_count: 0,
            loop_stack: Vec::new(),
        };
        if func.params.len() > 6 {
            return Err(gen.error(func.line, "functions take at most 6 parameters"));
        }
        for param in &func.params {
            gen.declare_local(param, 1, false, func.line)?;
        }
        gen.collect_locals(&func.body)?;
        Ok(gen)
    }

    fn error(&self, line: u32, message: impl Into<String>) -> CompileError {
        err(self.file, line, message)
    }

    fn declare_local(
        &mut self,
        name: &str,
        words: i64,
        is_array: bool,
        line: u32,
    ) -> Result<(), CompileError> {
        if name == "errno" {
            return Err(self.error(line, "`errno` cannot be redeclared"));
        }
        if self.locals.contains_key(name) {
            return Err(self.error(line, format!("duplicate local `{name}`")));
        }
        self.frame_size += words * 8;
        self.locals.insert(
            name.to_string(),
            LocalSlot {
                offset: self.frame_size,
                is_array,
            },
        );
        Ok(())
    }

    fn collect_locals(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        for stmt in body {
            match stmt {
                Stmt::Local { name, line, .. } => self.declare_local(name, 1, false, *line)?,
                Stmt::LocalArray { name, words, line } => {
                    self.declare_local(name, *words, true, *line)?
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.collect_locals(then_body)?;
                    self.collect_locals(else_body)?;
                }
                Stmt::While { body, .. } => self.collect_locals(body)?,
                _ => {}
            }
        }
        Ok(())
    }

    fn fresh_label(&mut self, hint: &str) -> String {
        self.label_count += 1;
        format!("__{}_{}_{}", self.func.name, hint, self.label_count)
    }

    fn generate(&mut self) -> Result<(), CompileError> {
        self.builder.set_file(self.file.to_string());
        self.builder.export_func(self.func.name.clone());
        self.builder.mark_line(self.func.line);
        // Prologue.
        self.builder.emit(Insn::Push { src: Reg::Fp });
        self.builder.emit(Insn::MovR {
            dst: Reg::Fp,
            src: Reg::Sp,
        });
        if self.frame_size > 0 {
            self.builder.emit(Insn::AluI {
                op: AluOp::Sub,
                dst: Reg::Sp,
                imm: self.frame_size,
            });
        }
        // Spill parameters.
        for (i, param) in self.func.params.iter().enumerate() {
            let slot = self.locals[param];
            self.builder.emit(Insn::Store {
                base: Reg::Fp,
                off: -slot.offset,
                src: Reg::ARGS[i],
            });
        }
        let body = self.func.body.clone();
        self.gen_block(&body)?;
        // Implicit `return 0`.
        self.builder.emit(Insn::MovI {
            dst: RESULT,
            imm: 0,
        });
        self.gen_epilogue();
        Ok(())
    }

    fn gen_epilogue(&mut self) {
        self.builder.emit(Insn::MovR {
            dst: Reg::Sp,
            src: Reg::Fp,
        });
        self.builder.emit(Insn::Pop { dst: Reg::Fp });
        self.builder.emit(Insn::Ret);
    }

    fn gen_block(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        for stmt in body {
            self.gen_stmt(stmt)?;
        }
        Ok(())
    }

    fn gen_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Local { name, init, line } => {
                self.builder.mark_line(*line);
                let slot = self.locals[name.as_str()];
                if let Some(init) = init {
                    self.gen_expr(init, *line)?;
                } else {
                    self.builder.emit(Insn::MovI {
                        dst: RESULT,
                        imm: 0,
                    });
                }
                self.builder.emit(Insn::Store {
                    base: Reg::Fp,
                    off: -slot.offset,
                    src: RESULT,
                });
            }
            Stmt::LocalArray { name, words, line } => {
                self.builder.mark_line(*line);
                // Zero the array so repeated frames behave deterministically.
                let slot = self.locals[name.as_str()];
                let loop_label = self.fresh_label("zero");
                let done_label = self.fresh_label("zero_done");
                self.builder.emit(Insn::Lea {
                    dst: SCRATCH_A,
                    base: Reg::Fp,
                    off: -slot.offset,
                });
                self.builder.emit(Insn::MovI {
                    dst: SCRATCH_B,
                    imm: *words,
                });
                self.builder.bind(loop_label.clone());
                self.builder.emit(Insn::CmpI {
                    a: SCRATCH_B,
                    imm: 0,
                });
                self.builder.j(Cond::Eq, done_label.clone());
                self.builder.emit(Insn::MovI {
                    dst: RESULT,
                    imm: 0,
                });
                self.builder.emit(Insn::Store {
                    base: SCRATCH_A,
                    off: 0,
                    src: RESULT,
                });
                self.builder.emit(Insn::AluI {
                    op: AluOp::Add,
                    dst: SCRATCH_A,
                    imm: 8,
                });
                self.builder.emit(Insn::AluI {
                    op: AluOp::Sub,
                    dst: SCRATCH_B,
                    imm: 1,
                });
                self.builder.jmp(loop_label);
                self.builder.bind(done_label);
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                self.builder.mark_line(*line);
                self.gen_assign(target, value, *line)?;
            }
            Stmt::Expr { expr, line } => {
                self.builder.mark_line(*line);
                self.gen_expr(expr, *line)?;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                self.builder.mark_line(*line);
                let else_label = self.fresh_label("else");
                let end_label = self.fresh_label("endif");
                self.gen_branch_if_false(cond, &else_label, *line)?;
                self.gen_block(then_body)?;
                if else_body.is_empty() {
                    self.builder.bind(else_label);
                } else {
                    self.builder.jmp(end_label.clone());
                    self.builder.bind(else_label);
                    self.gen_block(else_body)?;
                    self.builder.bind(end_label);
                }
            }
            Stmt::While { cond, body, line } => {
                self.builder.mark_line(*line);
                let start = self.fresh_label("loop");
                let end = self.fresh_label("endloop");
                self.builder.bind(start.clone());
                self.gen_branch_if_false(cond, &end, *line)?;
                self.loop_stack.push((start.clone(), end.clone()));
                self.gen_block(body)?;
                self.loop_stack.pop();
                self.builder.jmp(start);
                self.builder.bind(end);
            }
            Stmt::Return { value, line } => {
                self.builder.mark_line(*line);
                if let Some(value) = value {
                    self.gen_expr(value, *line)?;
                } else {
                    self.builder.emit(Insn::MovI {
                        dst: RESULT,
                        imm: 0,
                    });
                }
                self.gen_epilogue();
            }
            Stmt::Break { line } => {
                let Some((_, end)) = self.loop_stack.last().cloned() else {
                    return Err(self.error(*line, "`break` outside of a loop"));
                };
                self.builder.jmp(end);
            }
            Stmt::Continue { line } => {
                let Some((start, _)) = self.loop_stack.last().cloned() else {
                    return Err(self.error(*line, "`continue` outside of a loop"));
                };
                self.builder.jmp(start);
            }
        }
        Ok(())
    }

    fn gen_assign(&mut self, target: &Expr, value: &Expr, line: u32) -> Result<(), CompileError> {
        match target {
            Expr::Ident(name) if name == "errno" => {
                self.gen_expr(value, line)?;
                self.builder.tls_store("errno", RESULT);
            }
            Expr::Ident(name) => {
                if let Some(slot) = self.locals.get(name).copied() {
                    if slot.is_array {
                        return Err(self.error(line, format!("cannot assign to array `{name}`")));
                    }
                    self.gen_expr(value, line)?;
                    self.builder.emit(Insn::Store {
                        base: Reg::Fp,
                        off: -slot.offset,
                        src: RESULT,
                    });
                } else if let Some(kind) = self.ctx.globals.get(name).copied() {
                    if kind == GlobalKind::Array {
                        return Err(self.error(line, format!("cannot assign to array `{name}`")));
                    }
                    self.gen_expr(value, line)?;
                    self.builder.lea_sym(SCRATCH_A, name.clone(), SymKind::Data);
                    self.builder.emit(Insn::Store {
                        base: SCRATCH_A,
                        off: 0,
                        src: RESULT,
                    });
                } else if self.ctx.consts.contains_key(name) || predefined(name).is_some() {
                    return Err(self.error(line, format!("cannot assign to constant `{name}`")));
                } else {
                    return Err(self.error(line, format!("unknown variable `{name}`")));
                }
            }
            Expr::Unary {
                op: UnOp::Deref,
                expr,
            } => {
                self.gen_expr(expr, line)?;
                self.builder.emit(Insn::Push { src: RESULT });
                self.gen_expr(value, line)?;
                self.builder.emit(Insn::Pop { dst: SCRATCH_A });
                self.builder.emit(Insn::Store {
                    base: SCRATCH_A,
                    off: 0,
                    src: RESULT,
                });
            }
            Expr::Index { base, index } => {
                self.gen_address_of_index(base, index, line)?;
                self.builder.emit(Insn::Push { src: RESULT });
                self.gen_expr(value, line)?;
                self.builder.emit(Insn::Pop { dst: SCRATCH_A });
                self.builder.emit(Insn::Store {
                    base: SCRATCH_A,
                    off: 0,
                    src: RESULT,
                });
            }
            _ => return Err(self.error(line, "invalid assignment target")),
        }
        Ok(())
    }

    /// Leave the address `base + 8*index` in `RESULT`.
    fn gen_address_of_index(
        &mut self,
        base: &Expr,
        index: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        self.gen_expr(base, line)?;
        if let Expr::Int(i) = index {
            self.builder.emit(Insn::AluI {
                op: AluOp::Add,
                dst: RESULT,
                imm: i * 8,
            });
            return Ok(());
        }
        self.builder.emit(Insn::Push { src: RESULT });
        self.gen_expr(index, line)?;
        self.builder.emit(Insn::AluI {
            op: AluOp::Shl,
            dst: RESULT,
            imm: 3,
        });
        self.builder.emit(Insn::Pop { dst: SCRATCH_A });
        self.builder.emit(Insn::Alu {
            op: AluOp::Add,
            dst: RESULT,
            src: SCRATCH_A,
        });
        Ok(())
    }

    fn cond_of(op: BinOp) -> Cond {
        match op {
            BinOp::Eq => Cond::Eq,
            BinOp::Ne => Cond::Ne,
            BinOp::Lt => Cond::Lt,
            BinOp::Le => Cond::Le,
            BinOp::Gt => Cond::Gt,
            BinOp::Ge => Cond::Ge,
            _ => unreachable!("not a comparison"),
        }
    }

    /// Evaluate a comparison's operands and set the machine flags.
    fn gen_compare_flags(&mut self, lhs: &Expr, rhs: &Expr, line: u32) -> Result<(), CompileError> {
        // Fold a constant right-hand side (including named constants) into a
        // `cmpi`, which is both what a real compiler does and the pattern the
        // call-site analyzer classifies.
        if let Some(value) = self.const_value(rhs) {
            self.gen_expr(lhs, line)?;
            self.builder.emit(Insn::CmpI {
                a: RESULT,
                imm: value,
            });
            return Ok(());
        }
        self.gen_expr(lhs, line)?;
        self.builder.emit(Insn::Push { src: RESULT });
        self.gen_expr(rhs, line)?;
        self.builder.emit(Insn::Pop { dst: SCRATCH_A });
        self.builder.emit(Insn::Cmp {
            a: SCRATCH_A,
            b: RESULT,
        });
        Ok(())
    }

    /// Jump to `target` when `cond` evaluates to false.
    fn gen_branch_if_false(
        &mut self,
        cond: &Expr,
        target: &str,
        line: u32,
    ) -> Result<(), CompileError> {
        match cond {
            Expr::Binary { op, lhs, rhs } if op.is_comparison() => {
                self.gen_compare_flags(lhs, rhs, line)?;
                self.builder.j(Self::cond_of(*op).negate(), target);
            }
            Expr::Binary {
                op: BinOp::LogAnd,
                lhs,
                rhs,
            } => {
                self.gen_branch_if_false(lhs, target, line)?;
                self.gen_branch_if_false(rhs, target, line)?;
            }
            Expr::Unary {
                op: UnOp::Not,
                expr,
            } => {
                self.gen_expr(expr, line)?;
                self.builder.emit(Insn::CmpI { a: RESULT, imm: 0 });
                self.builder.j(Cond::Ne, target);
            }
            other => {
                self.gen_expr(other, line)?;
                self.builder.emit(Insn::CmpI { a: RESULT, imm: 0 });
                self.builder.j(Cond::Eq, target);
            }
        }
        Ok(())
    }

    /// The compile-time value of an expression, if it is a constant.
    fn const_value(&self, expr: &Expr) -> Option<i64> {
        match expr {
            Expr::Int(v) => Some(*v),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => self.const_value(expr).map(|v| v.wrapping_neg()),
            Expr::Unary {
                op: UnOp::BitNot,
                expr,
            } => self.const_value(expr).map(|v| !v),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.const_value(lhs)?;
                let b = self.const_value(rhs)?;
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div if b != 0 => a.wrapping_div(b),
                    BinOp::Mod if b != 0 => a.wrapping_rem(b),
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32),
                    BinOp::Shr => a.wrapping_shr(b as u32),
                    _ => return None,
                })
            }
            Expr::Ident(name) => {
                if self.locals.contains_key(name) || self.ctx.globals.contains_key(name) {
                    None
                } else {
                    self.ctx
                        .consts
                        .get(name)
                        .copied()
                        .or_else(|| predefined(name))
                }
            }
            _ => None,
        }
    }

    /// Evaluate an expression into `RESULT` (`r0`).
    fn gen_expr(&mut self, expr: &Expr, line: u32) -> Result<(), CompileError> {
        // Fold constant expressions (including `-1`, `-ENOENT`, `A | B`) into
        // a single immediate load; this is what a real compiler does and it
        // keeps error-return constants visible to the binary analyses.
        if let Some(value) = self.const_value(expr) {
            self.builder.emit(Insn::MovI {
                dst: RESULT,
                imm: value,
            });
            return Ok(());
        }
        match expr {
            Expr::Int(value) => {
                self.builder.emit(Insn::MovI {
                    dst: RESULT,
                    imm: *value,
                });
            }
            Expr::Str(text) => {
                let symbol = format!("__str_{}", self.ctx.str_count);
                self.ctx.str_count += 1;
                let off = self.builder.add_cstring(text);
                self.builder
                    .export_data(symbol.clone(), off, text.len() as u64 + 1);
                self.builder.lea_sym(RESULT, symbol, SymKind::Data);
            }
            Expr::Ident(name) => self.gen_ident(name, line)?,
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => {
                    self.gen_expr(expr, line)?;
                    self.builder.emit(Insn::Neg { dst: RESULT });
                }
                UnOp::BitNot => {
                    self.gen_expr(expr, line)?;
                    self.builder.emit(Insn::Not { dst: RESULT });
                }
                UnOp::Not => {
                    self.gen_expr(expr, line)?;
                    let one = self.fresh_label("one");
                    let end = self.fresh_label("end");
                    self.builder.emit(Insn::CmpI { a: RESULT, imm: 0 });
                    self.builder.j(Cond::Eq, one.clone());
                    self.builder.emit(Insn::MovI {
                        dst: RESULT,
                        imm: 0,
                    });
                    self.builder.jmp(end.clone());
                    self.builder.bind(one);
                    self.builder.emit(Insn::MovI {
                        dst: RESULT,
                        imm: 1,
                    });
                    self.builder.bind(end);
                }
                UnOp::Deref => {
                    self.gen_expr(expr, line)?;
                    self.builder.emit(Insn::Load {
                        dst: RESULT,
                        base: RESULT,
                        off: 0,
                    });
                }
                UnOp::Addr => self.gen_addr_of(expr, line)?,
            },
            Expr::Binary { op, lhs, rhs } => self.gen_binary(*op, lhs, rhs, line)?,
            Expr::Index { base, index } => {
                self.gen_address_of_index(base, index, line)?;
                self.builder.emit(Insn::Load {
                    dst: RESULT,
                    base: RESULT,
                    off: 0,
                });
            }
            Expr::Call { name, args } => self.gen_call(name, args, line)?,
        }
        Ok(())
    }

    fn gen_ident(&mut self, name: &str, line: u32) -> Result<(), CompileError> {
        if name == "errno" {
            self.builder.tls_load(RESULT, "errno");
            return Ok(());
        }
        if let Some(slot) = self.locals.get(name).copied() {
            if slot.is_array {
                self.builder.emit(Insn::Lea {
                    dst: RESULT,
                    base: Reg::Fp,
                    off: -slot.offset,
                });
            } else {
                self.builder.emit(Insn::Load {
                    dst: RESULT,
                    base: Reg::Fp,
                    off: -slot.offset,
                });
            }
            return Ok(());
        }
        if let Some(value) = self.ctx.consts.get(name).copied() {
            self.builder.emit(Insn::MovI {
                dst: RESULT,
                imm: value,
            });
            return Ok(());
        }
        if let Some(kind) = self.ctx.globals.get(name).copied() {
            match kind {
                GlobalKind::Scalar => {
                    self.builder.lea_sym(SCRATCH_A, name, SymKind::Data);
                    self.builder.emit(Insn::Load {
                        dst: RESULT,
                        base: SCRATCH_A,
                        off: 0,
                    });
                }
                GlobalKind::Array => {
                    self.builder.lea_sym(RESULT, name, SymKind::Data);
                }
            }
            return Ok(());
        }
        if let Some(value) = predefined(name) {
            self.builder.emit(Insn::MovI {
                dst: RESULT,
                imm: value,
            });
            return Ok(());
        }
        Err(self.error(line, format!("unknown identifier `{name}`")))
    }

    fn gen_addr_of(&mut self, expr: &Expr, line: u32) -> Result<(), CompileError> {
        match expr {
            Expr::Ident(name) => {
                if let Some(slot) = self.locals.get(name).copied() {
                    self.builder.emit(Insn::Lea {
                        dst: RESULT,
                        base: Reg::Fp,
                        off: -slot.offset,
                    });
                    Ok(())
                } else if self.ctx.globals.contains_key(name) {
                    self.builder.lea_sym(RESULT, name, SymKind::Data);
                    Ok(())
                } else {
                    Err(self.error(line, format!("cannot take the address of `{name}`")))
                }
            }
            Expr::Index { base, index } => self.gen_address_of_index(base, index, line),
            _ => Err(self.error(line, "cannot take the address of this expression")),
        }
    }

    fn gen_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        if op.is_comparison() {
            self.gen_compare_flags(lhs, rhs, line)?;
            let yes = self.fresh_label("true");
            let end = self.fresh_label("cmp_end");
            self.builder.j(Self::cond_of(op), yes.clone());
            self.builder.emit(Insn::MovI {
                dst: RESULT,
                imm: 0,
            });
            self.builder.jmp(end.clone());
            self.builder.bind(yes);
            self.builder.emit(Insn::MovI {
                dst: RESULT,
                imm: 1,
            });
            self.builder.bind(end);
            return Ok(());
        }
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            let short = self.fresh_label("short");
            let end = self.fresh_label("logic_end");
            self.gen_expr(lhs, line)?;
            self.builder.emit(Insn::CmpI { a: RESULT, imm: 0 });
            match op {
                BinOp::LogAnd => self.builder.j(Cond::Eq, short.clone()),
                BinOp::LogOr => self.builder.j(Cond::Ne, short.clone()),
                _ => unreachable!(),
            };
            // Left side did not decide the result; the right side does.
            self.gen_expr(rhs, line)?;
            self.builder.emit(Insn::CmpI { a: RESULT, imm: 0 });
            let yes = self.fresh_label("logic_one");
            self.builder.j(Cond::Ne, yes.clone());
            self.builder.emit(Insn::MovI {
                dst: RESULT,
                imm: 0,
            });
            self.builder.jmp(end.clone());
            self.builder.bind(yes);
            self.builder.emit(Insn::MovI {
                dst: RESULT,
                imm: 1,
            });
            self.builder.jmp(end.clone());
            self.builder.bind(short);
            self.builder.emit(Insn::MovI {
                dst: RESULT,
                imm: match op {
                    BinOp::LogAnd => 0,
                    BinOp::LogOr => 1,
                    _ => unreachable!(),
                },
            });
            self.builder.bind(end);
            return Ok(());
        }
        let alu = match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div => AluOp::Div,
            BinOp::Mod => AluOp::Mod,
            BinOp::And => AluOp::And,
            BinOp::Or => AluOp::Or,
            BinOp::Xor => AluOp::Xor,
            BinOp::Shl => AluOp::Shl,
            BinOp::Shr => AluOp::Shr,
            _ => unreachable!(),
        };
        if let Some(value) = self.const_value(rhs) {
            self.gen_expr(lhs, line)?;
            self.builder.emit(Insn::AluI {
                op: alu,
                dst: RESULT,
                imm: value,
            });
            return Ok(());
        }
        self.gen_expr(lhs, line)?;
        self.builder.emit(Insn::Push { src: RESULT });
        self.gen_expr(rhs, line)?;
        self.builder.emit(Insn::MovR {
            dst: SCRATCH_B,
            src: RESULT,
        });
        self.builder.emit(Insn::Pop { dst: RESULT });
        self.builder.emit(Insn::Alu {
            op: alu,
            dst: RESULT,
            src: SCRATCH_B,
        });
        Ok(())
    }

    fn gen_call(&mut self, name: &str, args: &[Expr], line: u32) -> Result<(), CompileError> {
        // Builtins first.
        match name {
            "__sys" => {
                if args.is_empty() || args.len() > 7 {
                    return Err(self.error(line, "__sys takes 1 to 7 arguments"));
                }
                let Some(num) = self.const_value(&args[0]) else {
                    return Err(self.error(line, "__sys number must be a constant"));
                };
                let rest = &args[1..];
                for arg in rest {
                    self.gen_expr(arg, line)?;
                    self.builder.emit(Insn::Push { src: RESULT });
                }
                for i in (0..rest.len()).rev() {
                    self.builder.emit(Insn::Pop { dst: Reg::ARGS[i] });
                }
                self.builder.emit(Insn::Sys { num });
                return Ok(());
            }
            "__fnaddr" => {
                let [Expr::Ident(func)] = args else {
                    return Err(self.error(line, "__fnaddr takes a single function name"));
                };
                self.builder.lea_sym(RESULT, func.clone(), SymKind::Func);
                return Ok(());
            }
            "__load8" => {
                let [ptr] = args else {
                    return Err(self.error(line, "__load8 takes a single pointer"));
                };
                self.gen_expr(ptr, line)?;
                self.builder.emit(Insn::Load8 {
                    dst: RESULT,
                    base: RESULT,
                    off: 0,
                });
                return Ok(());
            }
            "__store8" => {
                let [ptr, value] = args else {
                    return Err(self.error(line, "__store8 takes a pointer and a value"));
                };
                self.gen_expr(ptr, line)?;
                self.builder.emit(Insn::Push { src: RESULT });
                self.gen_expr(value, line)?;
                self.builder.emit(Insn::Pop { dst: SCRATCH_A });
                self.builder.emit(Insn::Store8 {
                    base: SCRATCH_A,
                    off: 0,
                    src: RESULT,
                });
                return Ok(());
            }
            _ => {}
        }
        if args.len() > 6 {
            return Err(self.error(line, "calls take at most 6 arguments"));
        }
        for arg in args {
            self.gen_expr(arg, line)?;
            self.builder.emit(Insn::Push { src: RESULT });
        }
        for i in (0..args.len()).rev() {
            self.builder.emit(Insn::Pop { dst: Reg::ARGS[i] });
        }
        if self.ctx.defined_funcs.contains_key(name) {
            // Defined in this module: a direct call, not interposable —
            // exactly like an intra-module call on a real system.
            self.builder.call_local(name.to_string());
        } else {
            // Imported: a `callsym` with a relocation, the unit the LFI
            // call-site analyzer and interposition runtime operate on.
            self.builder.call_sym(name.to_string());
        }
        Ok(())
    }
}

#[allow(unused_imports)]
#[cfg(test)]
mod tests {
    use lfi_arch::Insn;
    use lfi_obj::ModuleKind;

    use crate::Compiler;

    fn compile(src: &str) -> lfi_obj::Module {
        Compiler::new("test", ModuleKind::SharedLib)
            .add_source("test.c", src)
            .compile()
            .expect("compile")
    }

    #[test]
    fn library_calls_become_callsym_sites() {
        let m = compile(
            r#"
            int f() {
                int fd = open("/x", O_RDONLY, 0);
                if (fd == -1) { return -1; }
                close(fd);
                return 0;
            }
            "#,
        );
        assert_eq!(m.call_sites_of("open").len(), 1);
        assert_eq!(m.call_sites_of("close").len(), 1);
        assert_eq!(m.imported_functions(), vec!["close", "open"]);
    }

    #[test]
    fn intra_module_calls_are_direct() {
        let m = compile(
            r#"
            int helper(int x) { return x + 1; }
            int f() { return helper(1); }
            "#,
        );
        assert!(m.call_sites_of("helper").is_empty());
        // A direct `call` instruction exists.
        assert!(m
            .decode_code()
            .iter()
            .any(|(_, i)| matches!(i, Insn::Call { .. })));
    }

    #[test]
    fn errno_compiles_to_tls_accesses() {
        let m = compile("int f() { errno = 5; return errno; }");
        let insns: Vec<Insn> = m.decode_code().into_iter().map(|(_, i)| i).collect();
        assert!(insns.iter().any(|i| matches!(i, Insn::TlsStore { .. })));
        assert!(insns.iter().any(|i| matches!(i, Insn::TlsLoad { .. })));
    }

    #[test]
    fn comparisons_against_constants_use_cmpi() {
        let m = compile(
            r#"
            int f() {
                int r = read(0, 0, 0);
                if (r == -1) { return 1; }
                if (r < 0) { return 2; }
                return 0;
            }
            "#,
        );
        let insns: Vec<Insn> = m.decode_code().into_iter().map(|(_, i)| i).collect();
        let cmpi_count = insns
            .iter()
            .filter(|i| matches!(i, Insn::CmpI { imm: -1, .. } | Insn::CmpI { imm: 0, .. }))
            .count();
        assert!(cmpi_count >= 2, "expected cmpi checks, got {insns:?}");
    }

    #[test]
    fn globals_are_exported_data_symbols() {
        let m = compile(
            "int counter = 7;\nint table[4];\nint f() { counter = counter + 1; return table[0]; }",
        );
        assert!(m.export("counter", lfi_obj::SymKind::Data).is_some());
        assert!(m.export("table", lfi_obj::SymKind::Data).is_some());
        // Initialized value is in the data section.
        let counter = m.export("counter", lfi_obj::SymKind::Data).unwrap();
        let bytes = &m.data[counter.offset as usize..counter.offset as usize + 8];
        assert_eq!(i64::from_le_bytes(bytes.try_into().unwrap()), 7);
    }

    #[test]
    fn line_table_maps_statements_to_lines() {
        let src = "int f() {\n    int a = 1;\n    int b = 2;\n    return a + b;\n}\n";
        let m = compile(src);
        assert!(!m.line_table.is_empty());
        let lines: Vec<u32> = m.line_table.iter().map(|e| e.line).collect();
        assert!(lines.contains(&2));
        assert!(lines.contains(&4));
    }

    #[test]
    fn compile_errors_carry_location() {
        let err = Compiler::new("bad", ModuleKind::SharedLib)
            .add_source("bad.c", "int f() {\n    return unknown_var;\n}\n")
            .compile()
            .unwrap_err();
        assert_eq!(err.file, "bad.c");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown_var"));
    }

    #[test]
    fn duplicate_definitions_are_rejected() {
        assert!(Compiler::new("bad", ModuleKind::SharedLib)
            .add_source("a.c", "int f() { return 0; }")
            .add_source("b.c", "int f() { return 1; }")
            .compile()
            .is_err());
        assert!(Compiler::new("bad", ModuleKind::SharedLib)
            .add_source("a.c", "int g;\nint g;\n")
            .compile()
            .is_err());
        assert!(Compiler::new("bad", ModuleKind::SharedLib)
            .add_source("a.c", "int f() { int x; int x; return 0; }")
            .compile()
            .is_err());
    }

    #[test]
    fn break_and_continue_require_a_loop() {
        assert!(Compiler::new("bad", ModuleKind::SharedLib)
            .add_source("a.c", "int f() { break; return 0; }")
            .compile()
            .is_err());
    }

    #[test]
    fn string_literals_land_in_rodata() {
        let m = compile(r#"int f() { return puts("hello world"); }"#);
        let data = String::from_utf8_lossy(&m.data);
        assert!(data.contains("hello world"));
        assert_eq!(m.call_sites_of("puts").len(), 1);
    }
}
