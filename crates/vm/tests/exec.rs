//! End-to-end execution tests: assemble small programs with `lfi-asm`, load
//! them with a library, run them, and check results, faults, interposition,
//! threads, and coverage.

use lfi_arch::{errno, Insn, Word};
use lfi_asm::assemble_text;
use lfi_obj::{Export, Module, ModuleKind, SymKind};
use lfi_vm::{
    CallContext, FaultKind, HookAction, HookHandler, Loader, Machine, NoHooks, ProcessConfig,
    RunExit,
};

/// A tiny hand-written "libc" with `my_read` and `my_write` wrappers around
/// the VM syscalls, setting errno on failure the way the real libc does.
const MINILIB: &str = r#"
    .module minilib lib
    .file "minilib.s"

    .func my_open
        movi r0, 0
        sys open
        cmpi r0, 0
        jge open_ok
        neg r0
        tlsst errno, r0
        movi r0, -1
    open_ok:
        ret

    .func my_read
        sys read
        cmpi r0, 0
        jge read_ok
        neg r0
        tlsst errno, r0
        movi r0, -1
    read_ok:
        ret

    .func my_write
        sys write
        cmpi r0, 0
        jge write_ok
        neg r0
        tlsst errno, r0
        movi r0, -1
    write_ok:
        ret

    .func my_lock
        sys mutex_lock
        ret

    .func my_unlock
        sys mutex_unlock
        ret

    .func my_exit
        sys exit
        ret
"#;

fn load_and_run(exe_src: &str) -> (Machine, RunExit) {
    let lib = assemble_text(MINILIB).expect("assemble minilib");
    let exe = assemble_text(exe_src).expect("assemble exe");
    let mut loader = Loader::new();
    loader.add_library(lib);
    let image = loader.load(exe).expect("load");
    let mut machine = Machine::new(image, ProcessConfig::default());
    machine.fs_mut().write_file("/input.txt", b"hello").unwrap();
    let exit = machine.run_to_completion(&mut NoHooks);
    (machine, exit)
}

#[test]
fn arithmetic_and_exit_code() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r10, 6
            movi r11, 7
            mov r0, r10
            mul r0, r11
            ret
    "#;
    let (_, exit) = load_and_run(src);
    assert_eq!(exit, RunExit::Exited(42));
}

#[test]
fn write_to_stdout_is_captured() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 1            ; fd = stdout
            leasym r2, msg
            movi r3, 5
            callsym my_write
            movi r0, 0
            ret
        .string msg "hi ok"
    "#;
    let (machine, exit) = load_and_run(src);
    assert_eq!(exit, RunExit::Exited(0));
    assert_eq!(machine.output_string(), "hi ok");
}

#[test]
fn open_and_read_file_through_minilib() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            leasym r1, path
            movi r2, 0
            movi r3, 0
            callsym my_open
            cmpi r0, 0
            jlt fail
            mov r1, r0            ; fd
            leasym r2, buf
            movi r3, 64
            callsym my_read       ; returns number of bytes read
            ret
        fail:
            movi r0, -1
            ret
        .string path "/input.txt"
        .bss buf 64
    "#;
    let (_, exit) = load_and_run(src);
    assert_eq!(exit, RunExit::Exited(5));
}

#[test]
fn missing_file_sets_errno_enoent() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            leasym r1, path
            movi r2, 0
            movi r3, 0
            callsym my_open
            cmpi r0, -1
            jne bad
            tlsld r0, errno       ; exit code = errno
            ret
        bad:
            movi r0, 99
            ret
        .string path "/no/such/file"
    "#;
    let (_, exit) = load_and_run(src);
    assert_eq!(exit, RunExit::Exited(errno::ENOENT));
}

#[test]
fn null_dereference_faults_with_backtrace() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            call helper
            ret
        .func helper
            movi r1, 0
            ld r0, [r1+0]        ; null dereference
            ret
    "#;
    let (_, exit) = load_and_run(src);
    let RunExit::Fault(fault) = exit else {
        panic!("expected a fault, got {exit:?}");
    };
    assert!(fault.to_string().contains("null dereference"));
    assert_eq!(fault.module, "app");
    // The backtrace records main's call to helper.
    assert!(fault
        .backtrace
        .iter()
        .any(|f| f.function.as_deref() == Some("main")));
}

#[test]
fn division_by_zero_faults() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r0, 10
            movi r1, 0
            div r0, r1
            ret
    "#;
    let (_, exit) = load_and_run(src);
    assert!(matches!(exit, RunExit::Fault(f) if f.to_string().contains("division")));
}

#[test]
fn double_unlock_is_fatal() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 7
            callsym my_lock
            movi r1, 7
            callsym my_unlock
            movi r1, 7
            callsym my_unlock    ; second unlock: fatal
            movi r0, 0
            ret
    "#;
    let (_, exit) = load_and_run(src);
    assert!(matches!(exit, RunExit::Fault(f) if f.to_string().contains("mutex")));
}

/// `push` with the stack pointer at `i64::MIN` computes the new stack
/// pointer with wrapping arithmetic and faults, in debug and release
/// builds alike, instead of overflowing in the host.
#[test]
fn push_with_stack_pointer_at_i64_min_is_a_stack_overflow() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 1
            shli r1, 63
            mov sp, r1
            push r2
            ret
    "#;
    let (_, exit) = load_and_run(src);
    let RunExit::Fault(fault) = exit else {
        panic!("expected a fault, got {exit:?}");
    };
    assert_eq!(fault.kind, FaultKind::StackOverflow);
}

#[test]
fn abort_syscall_faults() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            sys abort
            ret
    "#;
    let (_, exit) = load_and_run(src);
    assert!(matches!(exit, RunExit::Fault(f) if f.to_string().contains("abort")));
}

#[test]
fn unresolved_symbol_faults_only_when_called() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 1
            cmpi r1, 1
            je skip
            callsym totally_missing
        skip:
            movi r0, 0
            ret
    "#;
    let (_, exit) = load_and_run(src);
    assert_eq!(exit, RunExit::Exited(0));

    let src2 = r#"
        .module app exe
        .needed minilib
        .func main
            callsym totally_missing
            movi r0, 0
            ret
    "#;
    let (_, exit2) = load_and_run(src2);
    assert!(matches!(exit2, RunExit::Fault(f) if f.to_string().contains("totally_missing")));
}

#[test]
fn green_threads_run_and_share_globals() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            leafn r1, worker
            movi r2, 5
            sys thread_create
            leafn r1, worker
            movi r2, 6
            sys thread_create
            ; busy-wait until both workers added their contribution
        wait:
            leasym r9, counter
            ld r0, [r9+0]
            cmpi r0, 11
            jlt wait
            ret
        .func worker
            ; add the argument into the shared counter under a lock
            mov r10, r1
            movi r1, 1
            callsym my_lock
            leasym r9, counter
            ld r0, [r9+0]
            add r0, r10
            st [r9+0], r0
            movi r1, 1
            callsym my_unlock
            sys thread_exit
            ret
        .word counter 0
    "#;
    let (machine, exit) = load_and_run(src);
    assert_eq!(exit, RunExit::Exited(11));
    assert_eq!(machine.read_global("counter"), Some(11));
}

#[test]
fn budget_exhaustion_reports_budget() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
        spin:
            jmp spin
            ret
    "#;
    let lib = assemble_text(MINILIB).unwrap();
    let exe = assemble_text(src).unwrap();
    let mut loader = Loader::new();
    loader.add_library(lib);
    let image = loader.load(exe).unwrap();
    let mut machine = Machine::new(image, ProcessConfig::default());
    assert_eq!(machine.run(&mut NoHooks, 10_000), RunExit::Budget);
}

#[test]
fn coverage_records_executed_lines() {
    let src = r#"
        .module app exe
        .needed minilib
        .file "app.c"
        .func main
        .line 1
            movi r0, 1
        .line 2
            cmpi r0, 0
            je never
        .line 3
            movi r0, 0
            ret
        never:
        .line 4
            movi r0, 7
            ret
    "#;
    let lib = assemble_text(MINILIB).unwrap();
    let exe = assemble_text(src).unwrap();
    let mut loader = Loader::new();
    loader.add_library(lib);
    let image = loader.load(exe).unwrap();
    let module = image.executable().module.clone();
    let mut machine = Machine::new(
        image,
        ProcessConfig {
            record_coverage: true,
            ..ProcessConfig::default()
        },
    );
    let exit = machine.run_to_completion(&mut NoHooks);
    assert_eq!(exit, RunExit::Exited(0));
    let lines = machine.coverage.covered_lines(&module);
    let line_numbers: Vec<u32> = lines.iter().map(|(_, l)| *l).collect();
    assert!(line_numbers.contains(&1));
    assert!(line_numbers.contains(&3));
    assert!(
        !line_numbers.contains(&4),
        "dead branch must not be covered"
    );
}

/// An interposition handler that makes the n-th call to a function fail.
struct FailNth {
    func: String,
    fail_on: u64,
    seen: u64,
    retval: Word,
    errno: Word,
    observed_args: Vec<Vec<Word>>,
    observed_callers: Vec<Option<String>>,
}

impl HookHandler for FailNth {
    fn on_call(&mut self, func: &str, ctx: &mut CallContext<'_>) -> HookAction {
        if func != self.func {
            return HookAction::Forward;
        }
        self.seen += 1;
        self.observed_args.push(ctx.args(3));
        self.observed_callers.push(ctx.caller_function());
        if self.seen == self.fail_on {
            HookAction::Return {
                value: self.retval,
                errno: Some(self.errno),
            }
        } else {
            HookAction::Forward
        }
    }
}

#[test]
fn interposition_injects_error_and_errno() {
    // The app writes twice; the second write is made to fail with ENOSPC and
    // the app reports the errno it observed as its exit code.
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 1
            leasym r2, msg
            movi r3, 3
            callsym my_write
            movi r1, 1
            leasym r2, msg
            movi r3, 3
            callsym my_write
            cmpi r0, -1
            jne ok
            tlsld r0, errno
            ret
        ok:
            movi r0, 0
            ret
        .string msg "abc"
    "#;
    let lib = assemble_text(MINILIB).unwrap();
    let exe = assemble_text(src).unwrap();
    let mut loader = Loader::new();
    loader.add_library(lib);
    loader.interpose("my_write");
    let image = loader.load(exe).unwrap();
    let mut machine = Machine::new(image, ProcessConfig::default());
    let mut handler = FailNth {
        func: "my_write".into(),
        fail_on: 2,
        seen: 0,
        retval: -1,
        errno: errno::ENOSPC,
        observed_args: Vec::new(),
        observed_callers: Vec::new(),
    };
    let exit = machine.run_to_completion(&mut handler);
    assert_eq!(exit, RunExit::Exited(errno::ENOSPC));
    // Only the first write reached the real function.
    assert_eq!(machine.output_string(), "abc");
    assert_eq!(handler.seen, 2);
    assert_eq!(handler.observed_args[0][0], 1, "fd argument visible");
    assert_eq!(handler.observed_args[0][2], 3, "length argument visible");
    assert_eq!(handler.observed_callers[0].as_deref(), Some("main"));
    assert_eq!(machine.stats.hooked_calls, 2);
}

#[test]
fn hooked_forward_behaves_like_normal_call() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 1
            leasym r2, msg
            movi r3, 4
            callsym my_write
            movi r0, 0
            ret
        .string msg "pass"
    "#;
    let lib = assemble_text(MINILIB).unwrap();
    let exe = assemble_text(src).unwrap();
    let mut loader = Loader::new();
    loader.add_library(lib);
    loader.interpose("my_write");
    let image = loader.load(exe).unwrap();
    let mut machine = Machine::new(image, ProcessConfig::default());
    let exit = machine.run_to_completion(&mut NoHooks);
    assert_eq!(exit, RunExit::Exited(0));
    assert_eq!(machine.output_string(), "pass");
}

#[test]
fn sendto_and_recvfrom_roundtrip_through_simnet() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            sys socket
            mov r10, r0
            mov r1, r10
            movi r2, 9000
            sys bind
            ; send a datagram to ourselves
            mov r1, r10
            leasym r2, msg
            movi r3, 4
            movi r4, 0          ; node 0 (ourselves)
            movi r5, 9000
            sys sendto
            ; receive it back
            mov r1, r10
            leasym r2, buf
            movi r3, 64
            movi r4, 0
            sys recvfrom
            ret
        .string msg "ping"
        .bss buf 64
    "#;
    let lib = assemble_text(MINILIB).unwrap();
    let exe = assemble_text(src).unwrap();
    let mut loader = Loader::new();
    loader.add_library(lib);
    let image = loader.load(exe).unwrap();
    let mut machine = Machine::new(image, ProcessConfig::default());
    machine.attach_net(lfi_vm::NetHandle::default());
    let exit = machine.run_to_completion(&mut NoHooks);
    assert_eq!(exit, RunExit::Exited(4));
}

#[test]
fn env_and_args_are_visible_via_getenv() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            leasym r1, name
            leasym r2, buf
            movi r3, 64
            sys getenv
            ret
        .string name "MODE"
        .bss buf 64
    "#;
    let lib = assemble_text(MINILIB).unwrap();
    let exe = assemble_text(src).unwrap();
    let mut loader = Loader::new();
    loader.add_library(lib);
    let image = loader.load(exe).unwrap();
    let config = ProcessConfig {
        env: vec![("MODE".to_string(), "fast".to_string())],
        ..ProcessConfig::default()
    };
    let mut machine = Machine::new(image, config);
    let exit = machine.run_to_completion(&mut NoHooks);
    assert_eq!(exit, RunExit::Exited(4)); // strlen("fast")
}

#[test]
fn sbrk_grows_heap_until_limit() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 4096
            sys sbrk
            cmpi r0, 0
            jlt fail
            movi r1, 100000000   ; far beyond the configured limit
            sys sbrk
            cmpi r0, 0
            jge fail
            neg r0               ; exit code = ENOMEM
            ret
        fail:
            movi r0, 99
            ret
    "#;
    let lib = assemble_text(MINILIB).unwrap();
    let exe = assemble_text(src).unwrap();
    let mut loader = Loader::new();
    loader.add_library(lib);
    let image = loader.load(exe).unwrap();
    let config = ProcessConfig {
        heap_limit: 1 << 20,
        ..ProcessConfig::default()
    };
    let mut machine = Machine::new(image, config);
    let exit = machine.run_to_completion(&mut NoHooks);
    assert_eq!(exit, RunExit::Exited(errno::ENOMEM));
}

#[test]
fn gettime_advances_with_work() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            sys gettime
            mov r10, r0
            movi r11, 0
        loop:
            addi r11, 1
            cmpi r11, 1000
            jlt loop
            sys gettime
            sub r0, r10
            cmpi r0, 1000
            jge ok
            movi r0, 0
            ret
        ok:
            movi r0, 1
            ret
    "#;
    let (_, exit) = load_and_run(src);
    assert_eq!(exit, RunExit::Exited(1));
}

#[test]
fn syscall_with_unknown_number_faults() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            sys 9999
            ret
    "#;
    let (_, exit) = load_and_run(src);
    assert!(matches!(exit, RunExit::Fault(f) if f.to_string().contains("bad syscall")));
}

#[test]
fn call_count_grows_only_for_hooked_calls() {
    let (machine, exit) = load_and_run(
        r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 1
            leasym r2, msg
            movi r3, 1
            callsym my_write
            movi r0, 0
            ret
        .string msg "x"
    "#,
    );
    assert_eq!(exit, RunExit::Exited(0));
    assert_eq!(machine.stats.hooked_calls, 0);
    assert!(machine.stats.calls >= 1);
    assert!(machine.stats.instructions > 0);
}

/// A handler that pauses at the first call to a function, then counts as
/// inert afterwards.
struct PauseAt {
    func: String,
    paused: bool,
}

impl HookHandler for PauseAt {
    fn on_call(&mut self, func: &str, _ctx: &mut CallContext<'_>) -> HookAction {
        if func == self.func && !self.paused {
            self.paused = true;
            return HookAction::Pause;
        }
        HookAction::Forward
    }
}

/// The snapshot-fork contract at the VM level: pausing at a hooked call,
/// snapshotting, and resuming the fork under an injecting handler must be
/// indistinguishable from running the injecting handler on a fresh machine
/// — same exit, same output, same clock, same architectural state.
#[test]
fn pause_snapshot_resume_matches_a_fresh_run() {
    let src = r#"
        .module app exe
        .needed minilib
        .func main
            movi r1, 1
            leasym r2, msg
            movi r3, 3
            callsym my_write
            movi r1, 1
            leasym r2, msg
            movi r3, 3
            callsym my_write
            cmpi r0, -1
            jne ok
            tlsld r0, errno
            ret
        ok:
            movi r0, 0
            ret
        .string msg "abc"
    "#;
    let lib = assemble_text(MINILIB).unwrap();
    let exe = assemble_text(src).unwrap();
    let mut loader = Loader::new();
    loader.add_library(lib);
    loader.interpose("my_write");
    let image = loader.load(exe).unwrap();

    let injector = || FailNth {
        func: "my_write".into(),
        fail_on: 2,
        seen: 0,
        retval: -1,
        errno: errno::ENOSPC,
        observed_args: Vec::new(),
        observed_callers: Vec::new(),
    };

    // Fresh reference run: the injecting handler sees both writes.
    let mut fresh = Machine::new(image.clone(), ProcessConfig::default());
    let mut fresh_handler = injector();
    let fresh_exit = fresh.run_to_completion(&mut fresh_handler);
    assert_eq!(fresh_exit, RunExit::Exited(errno::ENOSPC));

    // Paused run: stop before the first write executes...
    let mut prefix = Machine::new(image, ProcessConfig::default());
    let mut pause = PauseAt {
        func: "my_write".into(),
        paused: false,
    };
    let exit = prefix.run_to_completion(&mut pause);
    assert_eq!(exit, RunExit::Paused);
    assert_eq!(prefix.output_string(), "", "paused before the call ran");
    let snapshot = prefix.snapshot();

    // ...then fork and resume under the injector: it must observe the very
    // same two calls a fresh run observes.
    let mut fork = snapshot.fork();
    let mut fork_handler = injector();
    let fork_exit = fork.run_to_completion(&mut fork_handler);
    assert_eq!(fork_exit, fresh_exit);
    assert_eq!(fork_handler.seen, fresh_handler.seen);
    assert_eq!(fork.output_string(), fresh.output_string());
    assert_eq!(fork.clock(), fresh.clock());
    assert_eq!(fork.stats, fresh.stats);
    assert_eq!(fork.state_fingerprint(), fresh.state_fingerprint());

    // The snapshot is reusable: a second fork behaves identically.
    let mut again = snapshot.fork();
    let exit_again = again.run_to_completion(&mut injector());
    assert_eq!(exit_again, fresh_exit);
    assert_eq!(again.state_fingerprint(), fresh.state_fingerprint());
}

/// Load a module whose `main` is `insns` and run it. The text assembler
/// only emits jumps to labels, so these modules are built by hand.
fn run_insns(insns: &[Insn]) -> (Machine, RunExit) {
    let mut exe = Module::new("app", ModuleKind::Executable);
    for insn in insns {
        exe.code.extend_from_slice(&insn.encode());
    }
    exe.exports.push(Export {
        name: "main".into(),
        kind: SymKind::Func,
        offset: 0,
        size: exe.code.len() as u64,
    });
    assert_eq!(exe.validate(), Ok(()));
    let image = Loader::new().load(exe).expect("load");
    let mut machine = Machine::new(image, ProcessConfig::default());
    let exit = machine.run_to_completion(&mut NoHooks);
    (machine, exit)
}

/// A `jmp` to an offset before the module's code lands below its base
/// address, outside every module, in debug and release builds alike.
#[test]
fn backward_jmp_before_the_code_is_a_bad_pc() {
    let (machine, exit) = run_insns(&[Insn::Jmp { target: -12 }]);
    let RunExit::Fault(fault) = exit else {
        panic!("expected a fault, got {exit:?}");
    };
    let pc = machine.image().entry - 12;
    assert_eq!(fault.kind, FaultKind::BadPc { pc });
    assert_eq!((fault.module.as_str(), fault.offset), ("<unknown>", pc));
    assert!(fault.backtrace.is_empty());
    assert_eq!(machine.stats.instructions, 1);
}

/// A `call` to an offset before the module's code faults the same way,
/// with the call on the shadow stack.
#[test]
fn backward_call_before_the_code_is_a_bad_pc() {
    let (machine, exit) = run_insns(&[Insn::Nop, Insn::Call { target: -24 }, Insn::Ret]);
    let RunExit::Fault(fault) = exit else {
        panic!("expected a fault, got {exit:?}");
    };
    let pc = machine.image().entry - 24;
    assert_eq!(fault.kind, FaultKind::BadPc { pc });
    assert_eq!(fault.backtrace.len(), 1);
    assert_eq!(
        (
            fault.backtrace[0].module.as_str(),
            fault.backtrace[0].offset
        ),
        ("app", 12)
    );
    assert_eq!((machine.stats.instructions, machine.stats.calls), (2, 1));
}
