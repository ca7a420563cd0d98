//! Semantic pins for the interpreter's hot path.
//!
//! Each test runs a real target or a hand-assembled program and compares
//! the exact instruction/call counts, virtual clock, architectural state
//! fingerprint and, for faults, the exact `Fault` against constants. The
//! bind-lite and cluster constants were captured from the byte-at-a-time
//! memory and clone-per-call interpreter; the hand-assembled ones (thread
//! preemption, budget slices and mid-quantum faults) from the interpreter
//! that executed one `step` per instruction. Any change to the fast path
//! that alters guest-visible behaviour — a byte written or not written
//! before a fault, a missed errno store, a different code lookup, a moved
//! quantum boundary — moves at least one of them. Never re-capture them to
//! make a performance change pass.

use std::sync::Arc;

use lfi_arch::{errno, sys, AluOp, Cond, Insn, Reg, Word, INSN_SIZE};
use lfi_asm::assemble_text;
use lfi_core::{TestConfig, Workload};
use lfi_obj::{Export, Module, ModuleKind, SymKind};
use lfi_targets::{
    bind_lite, run_bft_cluster, standard_controller, BftClusterConfig, BindWorkload,
};
use lfi_vm::{
    CallContext, ExecStats, Fault, FaultKind, Frame, HookAction, HookHandler, Image, Loader,
    Machine, NetHandle, NoHooks, ProcessConfig, RunExit,
};

/// Everything a pinned bind-lite run is compared on.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    exit: RunExit,
    stats: ExecStats,
    clock: u64,
    fingerprint: u64,
}

/// Run bind-lite's typical client session on a fresh machine built from
/// `image`, exactly as the campaign executor does for a fresh-VM unit. The
/// fingerprint folds in the coverage digest, so a run that records
/// coverage also pins every recorded offset.
fn run_bind(image: Arc<Image>, handler: &mut dyn HookHandler, record_coverage: bool) -> Pin {
    let net = NetHandle::default();
    let mut workload = BindWorkload::typical(net.clone());
    let mut machine = Machine::from_image(
        image,
        ProcessConfig {
            args: vec![workload.request_count().to_string()],
            record_coverage,
            ..ProcessConfig::default()
        },
    );
    machine.attach_net(net);
    workload.setup(&mut machine);
    let exit = machine.run(handler, TestConfig::default().max_instructions);
    Pin {
        exit,
        stats: machine.stats,
        clock: machine.clock(),
        fingerprint: machine.state_fingerprint(),
    }
}

/// bind-lite with every profiled libc function interposed, so each libc
/// call goes through the hooked-call path.
fn hooked_bind_image() -> Arc<Image> {
    let controller = standard_controller();
    let functions = controller.profile_libraries().failing_functions();
    controller
        .build_image(&bind_lite(), &functions)
        .expect("bind-lite loads")
}

#[test]
fn bind_lite_full_run_is_pinned() {
    let image = standard_controller()
        .build_image(&bind_lite(), &[])
        .expect("bind-lite loads");
    let pin = run_bind(image, &mut NoHooks, false);
    assert_eq!(
        pin,
        Pin {
            exit: RunExit::Exited(0),
            stats: ExecStats {
                instructions: 14556,
                syscalls: 27,
                calls: 114,
                hooked_calls: 0,
            },
            clock: 17276,
            fingerprint: 2597985692239482957,
        }
    );
}

#[test]
fn hooked_bind_lite_run_with_coverage_is_pinned() {
    let pin = run_bind(hooked_bind_image(), &mut NoHooks, true);
    assert_eq!(
        pin,
        Pin {
            exit: RunExit::Exited(0),
            stats: ExecStats {
                instructions: 14556,
                syscalls: 27,
                calls: 114,
                hooked_calls: 25,
            },
            clock: 17276,
            fingerprint: 4011803265235726741,
        }
    );
}

/// Injects `ENOMEM` failures into every seventh hooked call, so the
/// pinned state covers the injected return value and the errno store.
struct EverySeventh {
    seen: u64,
}

impl HookHandler for EverySeventh {
    fn on_call(&mut self, _func: &str, _ctx: &mut CallContext<'_>) -> HookAction {
        self.seen += 1;
        if self.seen.is_multiple_of(7) {
            HookAction::Return {
                value: -1,
                errno: Some(errno::ENOMEM),
            }
        } else {
            HookAction::Forward
        }
    }
}

#[test]
fn injected_bind_lite_run_is_pinned() {
    let pin = run_bind(hooked_bind_image(), &mut EverySeventh { seen: 0 }, false);
    assert_eq!(
        pin,
        Pin {
            exit: RunExit::Exited(0),
            stats: ExecStats {
                instructions: 13999,
                syscalls: 21,
                calls: 108,
                hooked_calls: 22,
            },
            clock: 16069,
            fingerprint: 5889215805071929972,
        }
    );
}

#[test]
fn uninjected_bft_cluster_is_pinned() {
    // Four requests, as the campaign executor configures the cluster.
    let result = run_bft_cluster(&BftClusterConfig {
        requests: 4,
        ..BftClusterConfig::default()
    });
    assert!(result.crashes.is_empty(), "{:?}", result.crashes);
    assert_eq!(
        (result.completed, result.virtual_time, result.injections),
        (4, 340_130, 0)
    );
}

/// bind-lite driven in `run` slices of 1000 instructions, a budget that is
/// not a multiple of the quantum, so every slice ends mid-quantum and the
/// next one resumes there.
#[test]
fn sliced_bind_lite_run_equals_the_single_call_pin() {
    let image = standard_controller()
        .build_image(&bind_lite(), &[])
        .expect("bind-lite loads");
    let net = NetHandle::default();
    let mut workload = BindWorkload::typical(net.clone());
    let mut machine = Machine::from_image(
        image,
        ProcessConfig {
            args: vec![workload.request_count().to_string()],
            ..ProcessConfig::default()
        },
    );
    machine.attach_net(net);
    workload.setup(&mut machine);
    let mut slices = 0;
    let exit = loop {
        slices += 1;
        match machine.run(&mut NoHooks, 1000) {
            RunExit::Budget => continue,
            exit => break exit,
        }
    };
    assert_eq!(slices, 15);
    let pin = Pin {
        exit,
        stats: machine.stats,
        clock: machine.clock(),
        fingerprint: machine.state_fingerprint(),
    };
    assert_eq!(
        pin,
        Pin {
            exit: RunExit::Exited(0),
            stats: ExecStats {
                instructions: 14556,
                syscalls: 27,
                calls: 114,
                hooked_calls: 0,
            },
            clock: 17276,
            fingerprint: 2597985692239482957,
        }
    );
}

/// A hand-written library: lock, unlock and write wrappers around the
/// VM's syscalls.
const PIN_LIB: &str = r#"
    .module pinlib lib

    .func my_lock
        sys mutex_lock
        ret

    .func my_unlock
        sys mutex_unlock
        ret

    .func my_write
        sys write
        ret
"#;

/// Everything a pinned hand-assembled run is compared on.
#[derive(Debug, PartialEq, Eq)]
struct AsmPin {
    exit: RunExit,
    stats: ExecStats,
    clock: u64,
    fingerprint: u64,
    output: Vec<u8>,
}

/// Assemble `exe` against [`PIN_LIB`] and run it to completion.
fn run_asm(exe: &str, quantum: u64) -> AsmPin {
    let mut loader = Loader::new();
    loader.add_library(assemble_text(PIN_LIB).expect("library assembles"));
    let image = loader
        .load(assemble_text(exe).expect("program assembles"))
        .expect("program loads");
    let mut machine = Machine::new(
        image,
        ProcessConfig {
            quantum,
            ..ProcessConfig::default()
        },
    );
    let exit = machine.run_to_completion(&mut NoHooks);
    AsmPin {
        exit,
        stats: machine.stats,
        clock: machine.clock(),
        fingerprint: machine.state_fingerprint(),
        output: machine.output().to_vec(),
    }
}

/// Three threads fold their ids into a shared counter under one mutex.
/// The fold is order-dependent and each thread keeps its loop count in
/// `errno`, so the exit code, output and fingerprint pin the interleaving
/// that a 7-instruction quantum produces: preemption inside functions,
/// while the mutex is held, and threads blocking on it.
#[test]
fn three_threads_at_quantum_seven_are_pinned() {
    let exe = r#"
        .module app exe
        .needed pinlib

        .func main
            leafn r1, worker
            movi r2, 3
            sys thread_create
            leafn r1, worker
            movi r2, 5
            sys thread_create
            movi r1, 7
            call fold
        wait:
            leasym r9, done
            ld r0, [r9+0]
            cmpi r0, 3
            jlt wait
            movi r1, 1
            leasym r2, counter
            movi r3, 8
            callsym my_write
            leasym r9, counter
            ld r0, [r9+0]
            andi r0, 127
            ret

        .func worker
            call fold
            sys thread_exit
            ret

        .func fold
            mov r12, r1
            movi r13, 10
        again:
            movi r1, 1
            callsym my_lock
            leasym r9, counter
            ld r0, [r9+0]
            muli r0, 3
            add r0, r12
            push r0
            pop r0
            st [r9+0], r0
            tlsst errno, r13
            movi r1, 1
            callsym my_unlock
            subi r13, 1
            cmpi r13, 0
            jgt again
            movi r1, 1
            callsym my_lock
            leasym r9, done
            ld r0, [r9+0]
            addi r0, 1
            st [r9+0], r0
            movi r1, 1
            callsym my_unlock
            ret

        .word counter 0
        .word done 0
    "#;
    assert_eq!(
        run_asm(exe, 7),
        AsmPin {
            exit: RunExit::Exited(12),
            stats: ExecStats {
                instructions: 704,
                syscalls: 134,
                calls: 70,
                hooked_calls: 0,
            },
            clock: 3464,
            fingerprint: 15454720805349331971,
            output: vec![12, 129, 194, 63, 232, 96, 1, 0],
        }
    );
}

/// Three threads first fold their ids into `racy` without a lock, in a
/// helper function, then into `locked` under the mutex. While they race,
/// all three are runnable and a preemption between the helper's load and
/// store loses an update, so moving the quantum boundaries by one
/// instruction changes `racy`: at quanta 6, 8 and 9 the exit code, output
/// and fingerprint all differ from this pin. (The mutex-only program above
/// gives the same result at quanta 6, 7 and 8, because two of its threads
/// are blocked most of the time.)
#[test]
fn racing_threads_at_quantum_seven_are_pinned() {
    let exe = r#"
        .module app exe
        .needed pinlib

        .func main
            leafn r1, worker
            movi r2, 3
            sys thread_create
            leafn r1, worker
            movi r2, 5
            sys thread_create
            movi r1, 7
            call mix
        wait:
            leasym r9, done
            ld r0, [r9+0]
            cmpi r0, 3
            jlt wait
            movi r1, 1
            leasym r2, racy
            movi r3, 16
            callsym my_write
            leasym r9, racy
            ld r0, [r9+0]
            andi r0, 127
            ret

        .func worker
            call mix
            sys thread_exit
            ret

        .func mix
            mov r12, r1
            movi r13, 25
        race:
            call bump
            subi r13, 1
            cmpi r13, 0
            jgt race
            movi r13, 10
        again:
            movi r1, 1
            callsym my_lock
            leasym r9, locked
            ld r0, [r9+0]
            muli r0, 3
            add r0, r12
            st [r9+0], r0
            movi r1, 1
            callsym my_unlock
            subi r13, 1
            cmpi r13, 0
            jgt again
            movi r1, 1
            callsym my_lock
            leasym r9, done
            ld r0, [r9+0]
            addi r0, 1
            st [r9+0], r0
            movi r1, 1
            callsym my_unlock
            ret

        .func bump
            leasym r9, racy
            ld r0, [r9+0]
            muli r0, 31
            add r0, r12
            push r0
            pop r0
            st [r9+0], r0
            ret

        .word racy 0
        .word locked 0
        .word done 0
    "#;
    assert_eq!(
        run_asm(exe, 7),
        AsmPin {
            exit: RunExit::Exited(101),
            stats: ExecStats {
                instructions: 1517,
                syscalls: 134,
                calls: 145,
                hooked_calls: 0,
            },
            clock: 4277,
            fingerprint: 17742636591488416359,
            output: vec![229, 133, 186, 20, 157, 219, 17, 205, 12, 129, 194, 63, 232, 96, 1, 0],
        }
    );
}

/// Run a program that faults mid-quantum; return the fault and the
/// fingerprint of the machine it left behind.
fn run_to_fault(exe: &str) -> (Fault, u64) {
    let pin = run_asm(exe, ProcessConfig::default().quantum);
    let RunExit::Fault(fault) = pin.exit else {
        panic!("expected a fault, got {:?}", pin.exit);
    };
    (fault, pin.fingerprint)
}

/// A frame of the pinned programs, which carry no line information.
fn frame(module: &str, offset: u64, function: &str) -> Frame {
    Frame {
        module: module.to_string(),
        offset,
        function: Some(function.to_string()),
        source: None,
    }
}

#[test]
fn load_from_unmapped_page_fault_is_pinned() {
    let (fault, fingerprint) = run_to_fault(
        r#"
        .module app exe
        .func main
            movi r1, 5
            call helper
            ret
        .func helper
            addi r1, 1
            tlsst errno, r1
            movi r2, 0x60000000
            ld r0, [r2+8]
            ret
    "#,
    );
    assert_eq!(
        fault,
        Fault {
            kind: FaultKind::MemAccess { addr: 0x6000_0008 },
            module: "app".to_string(),
            offset: 72,
            thread: 1,
            backtrace: vec![frame("app", 12, "main")],
        }
    );
    assert_eq!(fingerprint, 5378457384224320806);
}

#[test]
fn divide_by_zero_fault_is_pinned() {
    let (fault, fingerprint) = run_to_fault(
        r#"
        .module app exe
        .func main
            movi r1, 5
            call helper
            ret
        .func helper
            tlsst errno, r1
            movi r3, 0
            div r1, r3
            ret
    "#,
    );
    assert_eq!(
        fault,
        Fault {
            kind: FaultKind::DivideByZero,
            module: "app".to_string(),
            offset: 60,
            thread: 1,
            backtrace: vec![frame("app", 12, "main")],
        }
    );
    assert_eq!(fingerprint, 16725672973920404018);
}

/// The heap's first page is mapped and the next one is not, so this store
/// writes its low four bytes before it faults.
#[test]
fn straddling_store_fault_is_pinned() {
    let (fault, fingerprint) = run_to_fault(
        r#"
        .module app exe
        .func main
            movi r1, 5
            call helper
            ret
        .func helper
            movi r2, 0x50000ffc
            movi r3, -1
            st [r2+0], r3
            ret
    "#,
    );
    assert_eq!(
        fault,
        Fault {
            kind: FaultKind::MemAccess { addr: 0x5000_0ffc },
            module: "app".to_string(),
            offset: 60,
            thread: 1,
            backtrace: vec![frame("app", 12, "main")],
        }
    );
    assert_eq!(fingerprint, 9176962668280581953);
}

/// `tail` ends the module's code with a call, so the callee's `ret`
/// returns to the first address past the code, outside every module.
#[test]
fn ret_outside_every_module_fault_is_pinned() {
    let (fault, fingerprint) = run_to_fault(
        r#"
        .module app exe
        .func main
            call tail
            ret
        .func helper
            movi r0, 1
            ret
        .func tail
            movi r1, 2
            call helper
    "#,
    );
    assert_eq!(
        fault,
        Fault {
            kind: FaultKind::BadPc { pc: 0x1000_0048 },
            module: "<unknown>".to_string(),
            offset: 0x1000_0048,
            thread: 1,
            backtrace: vec![frame("app", 0, "main")],
        }
    );
    assert_eq!(fingerprint, 3431586643758545714);
}

/// Registers the generated programs below rotate through: every register
/// but the stack pointer, which holds their results.
fn rotation() -> Vec<Reg> {
    Reg::all().filter(|&r| r != Reg::Sp).collect()
}

/// Build `main` from `body`, which pushes `results` words, then write
/// those words to stdout (the deepest first, so in reverse order of
/// their pushes) and return 0. Run it to completion.
fn run_pushing(mut body: Vec<Insn>, results: usize) -> AsmPin {
    body.extend([
        Insn::MovI {
            dst: Reg::R(1),
            imm: 1,
        },
        Insn::MovR {
            dst: Reg::R(2),
            src: Reg::Sp,
        },
        Insn::MovI {
            dst: Reg::R(3),
            imm: results as Word * 8,
        },
        Insn::Sys { num: sys::WRITE },
        Insn::MovI {
            dst: Reg::R(0),
            imm: 0,
        },
        Insn::Ret,
    ]);
    let mut exe = Module::new("app", ModuleKind::Executable);
    for insn in &body {
        exe.code.extend_from_slice(&insn.encode());
    }
    exe.exports.push(Export {
        name: "main".into(),
        kind: SymKind::Func,
        offset: 0,
        size: exe.code.len() as u64,
    });
    let image = Loader::new().load(exe).expect("program loads");
    let mut machine = Machine::new(image, ProcessConfig::default());
    let exit = machine.run_to_completion(&mut NoHooks);
    AsmPin {
        exit,
        stats: machine.stats,
        clock: machine.clock(),
        fingerprint: machine.state_fingerprint(),
        output: machine.output().to_vec(),
    }
}

/// The words a [`run_pushing`] program wrote, in the order it pushed them.
fn pushed_words(output: &[u8]) -> Vec<Word> {
    let mut words: Vec<Word> = output
        .chunks_exact(8)
        .map(|chunk| Word::from_le_bytes(chunk.try_into().expect("8 bytes")))
        .collect();
    words.reverse();
    words
}

/// Operand pairs for the ALU pin: signed division and remainder in every
/// sign combination, wrapping at both ends of the range, `i64::MIN / -1`,
/// and shift counts below 64, at 64, above it and negative.
const ALU_OPERANDS: [(Word, Word); 16] = [
    (7, 3),
    (-7, 3),
    (7, -3),
    (-7, -3),
    (i64::MIN, -1),
    (i64::MAX, 1),
    (i64::MIN, i64::MIN),
    (0x0123_4567_89ab_cdef, 4),
    (-0x0123_4567_89ab_cdef, 4),
    (-0x0123_4567_89ab_cdef, 63),
    (-0x0123_4567_89ab_cdef, 64),
    (0x0123_4567_89ab_cdef, 65),
    (-0x0123_4567_89ab_cdef, -1),
    (0x0123_4567_89ab_cdef, -60),
    (0x5555_5555_5555_5555, 0x3333_3333_3333_3333),
    (-1, i64::MAX),
];

/// The documented ALU semantics: wrapping arithmetic, signed division
/// truncating toward zero, arithmetic right shift, and shift counts taken
/// mod 64.
fn alu_reference(op: AluOp, a: Word, b: Word) -> Word {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.wrapping_div(b),
        AluOp::Mod => a.wrapping_rem(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
    }
}

/// Every ALU operation in register and immediate form on every operand
/// pair, rotating the destination and source through the register file.
#[test]
fn every_alu_op_in_both_forms_is_pinned() {
    let regs = rotation();
    let mut body = Vec::new();
    let mut expected = Vec::new();
    for op in AluOp::ALL {
        for (a, b) in ALU_OPERANDS {
            let n = expected.len();
            let dst = regs[n % regs.len()];
            let src = regs[(n + 5) % regs.len()];
            body.extend([
                Insn::MovI { dst, imm: a },
                Insn::MovI { dst: src, imm: b },
                Insn::Alu { op, dst, src },
                Insn::Push { src: dst },
                Insn::MovI { dst: src, imm: a },
                Insn::AluI {
                    op,
                    dst: src,
                    imm: b,
                },
                Insn::Push { src },
            ]);
            expected.extend([alu_reference(op, a, b); 2]);
        }
    }
    let pin = run_pushing(body, expected.len());
    assert_eq!(pushed_words(&pin.output), expected);
    assert_eq!(
        (pin.exit, pin.stats, pin.clock, pin.fingerprint),
        (
            RunExit::Exited(0),
            ExecStats {
                instructions: 1126,
                syscalls: 1,
                calls: 0,
                hooked_calls: 0,
            },
            1226,
            712735409673775413,
        )
    );
}

/// Comparison pairs for the branch pin: each ordering, and the ends of the
/// signed range (which an unsigned comparison would order the other way).
const BRANCH_OPERANDS: [(Word, Word); 6] = [
    (1, 2),
    (2, 2),
    (3, 2),
    (i64::MIN, i64::MAX),
    (i64::MAX, i64::MIN),
    (-1, 1),
];

/// Every branch condition after `cmp` and after `cmpi`, taken and not
/// taken: each case pushes 1 if the branch was taken and 0 if not.
#[test]
fn every_branch_condition_is_pinned() {
    let regs = rotation();
    let mut body: Vec<Insn> = Vec::new();
    let mut expected = Vec::new();
    for cond in Cond::ALL {
        for (a, b) in BRANCH_OPERANDS {
            for immediate in [false, true] {
                let n = expected.len();
                let lhs = regs[n % regs.len()];
                let rhs = regs[(n + 3) % regs.len()];
                let taken = regs[(n + 7) % regs.len()];
                body.push(Insn::MovI { dst: lhs, imm: a });
                if immediate {
                    body.push(Insn::CmpI { a: lhs, imm: b });
                } else {
                    body.push(Insn::MovI { dst: rhs, imm: b });
                    body.push(Insn::Cmp { a: lhs, b: rhs });
                }
                // Skip the `movi 0` to the push.
                let push_at = (body.len() + 3) as Word * INSN_SIZE as Word;
                body.extend([
                    Insn::MovI { dst: taken, imm: 1 },
                    Insn::J {
                        cond,
                        target: push_at,
                    },
                    Insn::MovI { dst: taken, imm: 0 },
                    Insn::Push { src: taken },
                ]);
                expected.push(Word::from(cond.holds(a.cmp(&b))));
            }
        }
    }
    let pin = run_pushing(body, expected.len());
    assert_eq!(pushed_words(&pin.output), expected);
    assert_eq!(
        (pin.exit, pin.stats, pin.clock, pin.fingerprint),
        (
            RunExit::Exited(0),
            ExecStats {
                instructions: 438,
                syscalls: 1,
                calls: 0,
                hooked_calls: 0,
            },
            538,
            3590006788784501444,
        )
    );
}

/// Division and remainder by zero fault in both forms, after the
/// instruction is counted and before its destination is written, so all
/// four leave the same machine behind.
#[test]
fn div_and_mod_by_zero_faults_are_pinned() {
    for insn in ["div r1, r3", "divi r1, 0", "mod r1, r3", "modi r1, 0"] {
        let (fault, got) = run_to_fault(&format!(
            r#"
            .module app exe
            .func main
                movi r1, 5
                call helper
                ret
            .func helper
                movi r3, 0
                {insn}
                ret
        "#
        ));
        assert_eq!(
            fault,
            Fault {
                kind: FaultKind::DivideByZero,
                module: "app".to_string(),
                offset: 48,
                thread: 1,
                backtrace: vec![frame("app", 12, "main")],
            },
            "{insn}"
        );
        assert_eq!(got, 17208351529257560387, "{insn}");
    }
}
