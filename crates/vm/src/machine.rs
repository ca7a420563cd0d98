//! The execution engine: threads, scheduler, instruction semantics, faults,
//! and the interposition hook surface used by the LFI runtime.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use lfi_arch::{Addr, CallConv, Reg, Word, INSN_SIZE};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coverage::Coverage;
use crate::fs::SimFs;
use crate::loader::{Image, LoadedModule, Resolution};
use crate::mem::{Memory, PageCache, PAGE_SIZE};
use crate::net::NetHandle;
use crate::op::{reg, Op, REG_FILE};

/// Start of the heap region.
pub(crate) const HEAP_BASE: Addr = 0x5000_0000;
/// Start of the stack region; each thread gets its own slice below this.
const STACK_REGION: Addr = 0x7000_0000;
/// Spacing between thread stacks.
const STACK_SPACING: Addr = 0x0010_0000;
/// Sentinel return address marking the bottom frame of a thread.
const RETURN_SENTINEL: Addr = 0xFFFF_FFFF_FFFF_0000;

/// Per-process configuration.
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// Node identity on the simulated network.
    pub node_id: i64,
    /// Seed for the process-deterministic random stream.
    pub seed: u64,
    /// Maximum heap size in bytes before `sbrk` reports `ENOMEM`.
    pub heap_limit: u64,
    /// Per-thread stack size in bytes.
    pub stack_size: u64,
    /// Instructions per scheduling quantum.
    pub quantum: u64,
    /// Initial environment variables.
    pub env: Vec<(String, String)>,
    /// Program arguments, exposed to the program as `ARGC`/`ARG<i>` variables.
    pub args: Vec<String>,
    /// Whether to record instruction coverage (costs some speed).
    pub record_coverage: bool,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            node_id: 0,
            seed: 0,
            heap_limit: 64 << 20,
            stack_size: 512 << 10,
            quantum: 256,
            env: Vec::new(),
            args: Vec::new(),
            record_coverage: false,
        }
    }
}

/// Kinds of fatal process faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Invalid memory access (the SIGSEGV analogue). `addr` below the page
    /// size indicates a null-pointer dereference.
    MemAccess {
        /// Faulting address.
        addr: Addr,
    },
    /// Integer division (or remainder) by zero.
    DivideByZero,
    /// Control transferred outside any module's code.
    BadPc {
        /// The invalid program counter.
        pc: Addr,
    },
    /// A call went through an unresolved or non-function symbol.
    UnresolvedSymbol {
        /// Symbol name.
        name: String,
    },
    /// `abort()` was called (the SIGABRT analogue).
    Abort,
    /// A mutex was unlocked by a thread that does not hold it — the
    /// error-checking-mutex abort that reproduces the paper's MySQL
    /// double-unlock crash.
    DoubleUnlock,
    /// A `brk` debug trap executed.
    Break,
    /// An unknown syscall number was used.
    BadSyscall {
        /// The unknown number.
        num: Word,
    },
    /// Thread stack exhausted.
    StackOverflow,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::MemAccess { addr } if *addr < PAGE_SIZE => {
                write!(f, "segmentation fault (null dereference at {addr:#x})")
            }
            FaultKind::MemAccess { addr } => write!(f, "segmentation fault at {addr:#x}"),
            FaultKind::DivideByZero => write!(f, "division by zero"),
            FaultKind::BadPc { pc } => write!(f, "jump to invalid address {pc:#x}"),
            FaultKind::UnresolvedSymbol { name } => write!(f, "unresolved symbol `{name}`"),
            FaultKind::Abort => write!(f, "abort"),
            FaultKind::DoubleUnlock => write!(f, "mutex unlocked while not held"),
            FaultKind::Break => write!(f, "breakpoint trap"),
            FaultKind::BadSyscall { num } => write!(f, "bad syscall {num}"),
            FaultKind::StackOverflow => write!(f, "stack overflow"),
        }
    }
}

/// A symbolized stack frame, used for fault reports and backtraces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Module containing the call site.
    pub module: String,
    /// Code offset of the call instruction inside that module.
    pub offset: u64,
    /// Name of the function containing the call site, if known.
    pub function: Option<String>,
    /// Source location of the call site, if line info is available.
    pub source: Option<(String, u32)>,
}

impl Frame {
    /// Symbolize the call site at `offset` in `module`.
    fn at(module: &LoadedModule, offset: u64) -> Frame {
        Frame {
            module: module.module.name.clone(),
            offset,
            function: module.containing_function(offset).map(|e| e.name.clone()),
            source: module
                .module
                .line_for_offset(offset)
                .map(|(file, line)| (file.to_string(), line)),
        }
    }
}

/// A fatal process fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// What went wrong.
    pub kind: FaultKind,
    /// Module name at the faulting program counter.
    pub module: String,
    /// Code offset of the faulting instruction.
    pub offset: u64,
    /// Faulting thread id.
    pub thread: i64,
    /// Symbolized backtrace (innermost frame first).
    pub backtrace: Vec<Frame>,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {}+{:#x} (thread {})",
            self.kind, self.module, self.offset, self.thread
        )
    }
}

/// Why `run` returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// The process called `exit` (or `main` returned) with this code.
    Exited(i64),
    /// The process crashed.
    Fault(Fault),
    /// Every live thread is blocked; the harness must deliver external events.
    Blocked,
    /// The instruction budget given to `run` was exhausted.
    Budget,
    /// A hook returned [`HookAction::Pause`]: the machine stopped with the
    /// program counter still on the intercepted call, so a snapshot taken
    /// here can be resumed under a different handler that then observes the
    /// very same call.
    Paused,
}

impl RunExit {
    /// Whether this is a crash (fault) exit.
    pub fn is_fault(&self) -> bool {
        matches!(self, RunExit::Fault(_))
    }

    /// Whether this is a clean exit with code 0.
    pub fn is_success(&self) -> bool {
        matches!(self, RunExit::Exited(0))
    }
}

/// Aggregate execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub instructions: u64,
    /// Syscalls executed.
    pub syscalls: u64,
    /// Calls executed (all kinds).
    pub calls: u64,
    /// Calls that went through an interposition hook.
    pub hooked_calls: u64,
}

/// What an interposition hook tells the VM to do with an intercepted call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HookAction {
    /// Let the call proceed to the original function.
    Forward,
    /// Skip the original function and return `value` to the caller, setting
    /// `errno` if given — i.e. inject the fault described by the scenario.
    Return {
        /// Value placed in the return register.
        value: Word,
        /// Value stored into the thread-local `errno`, if any.
        errno: Option<Word>,
    },
    /// Stop the machine *before* the intercepted call executes, rolling back
    /// this instruction's bookkeeping and leaving the program counter on the
    /// call. `run` returns [`RunExit::Paused`]; resuming (or restoring a
    /// snapshot taken at the pause) re-executes the call under whatever
    /// handler drives the next `run`. This is how session executors share a
    /// workload prefix across many injection scenarios.
    Pause,
}

/// Receiver of interposed calls. The LFI runtime implements this to evaluate
/// triggers and decide whether to inject.
pub trait HookHandler {
    /// Called for every intercepted call. `func` is the intercepted function
    /// name; `ctx` exposes the machine state triggers may want to inspect.
    fn on_call(&mut self, func: &str, ctx: &mut CallContext<'_>) -> HookAction;
}

/// A handler that never injects; used for baseline runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl HookHandler for NoHooks {
    fn on_call(&mut self, _func: &str, _ctx: &mut CallContext<'_>) -> HookAction {
        HookAction::Forward
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedOnMutex(i64),
    Exited,
}

#[derive(Debug, Clone)]
struct ShadowFrame {
    call_site_module: usize,
    call_site_offset: u64,
    return_addr: Addr,
}

#[derive(Debug, Clone)]
struct Thread {
    id: i64,
    regs: [Word; Reg::COUNT],
    flags: Ordering,
    pc: Addr,
    /// One word per TLS slot of the image, `None` until the variable's
    /// first store.
    tls: Vec<Option<Word>>,
    frames: Vec<ShadowFrame>,
    state: ThreadState,
}

impl Thread {
    fn new(id: i64, pc: Addr, stack_top: Addr, tls_slots: usize) -> Thread {
        let mut regs = [0; Reg::COUNT];
        regs[Reg::Sp.index()] = stack_top as Word;
        regs[Reg::Fp.index()] = stack_top as Word;
        Thread {
            id,
            regs,
            flags: Ordering::Equal,
            pc,
            tls: vec![None; tls_slots],
            frames: vec![ShadowFrame {
                call_site_module: 0,
                call_site_offset: 0,
                return_addr: RETURN_SENTINEL,
            }],
            state: ThreadState::Runnable,
        }
    }

    fn reg(&self, r: Reg) -> Word {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: Word) {
        self.regs[r.index()] = v;
    }
}

#[derive(Debug, Clone)]
pub(crate) enum FdEntry {
    Stdout,
    Stderr,
    File { path: String, pos: u64, flags: i64 },
    Socket { port: Option<i64>, flags: i64 },
    Dir { entries: Vec<String>, pos: usize },
}

#[derive(Debug, Clone, Default)]
pub(crate) struct MutexState {
    owner: Option<i64>,
}

pub(crate) enum SysOutcome {
    Done(Word),
    Block(i64),
    Exit(RunExit),
}

/// Why the interpreter loop returned.
enum Stop {
    /// It executed its whole budget.
    Budget,
    /// The thread returned off its bottom frame and exited.
    ThreadExited,
    /// The instruction at the thread's program counter needs the whole
    /// machine. It has been counted but not executed.
    OutOfLine {
        op: Op,
        module_idx: usize,
        offset: u64,
    },
    /// The process exits with this code: the main thread returned off its
    /// bottom frame or executed `halt`.
    Exited(Word),
    /// The instruction at the thread's program counter faulted.
    Fault(FaultKind),
}

/// A running process.
pub struct Machine {
    pub(crate) image: Arc<Image>,
    pub(crate) mem: Memory,
    pub(crate) fs: SimFs,
    pub(crate) net: Option<NetHandle>,
    threads: Vec<Thread>,
    current: usize,
    next_thread_id: i64,
    pub(crate) mutexes: HashMap<i64, MutexState>,
    pub(crate) fds: Vec<Option<FdEntry>>,
    pub(crate) env: HashMap<String, String>,
    pub(crate) heap_brk: Addr,
    pub(crate) heap_limit: u64,
    /// Virtual time in ticks.
    pub(crate) clock: u64,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Coverage recorded so far (empty unless enabled in the config).
    pub coverage: Coverage,
    record_coverage: bool,
    pub(crate) rng: StdRng,
    pub(crate) node_id: i64,
    pub(crate) output: Vec<u8>,
    config: ProcessConfig,
    finished: Option<RunExit>,
    /// Module of the most recently executed instruction: where the
    /// interpreter loop looks for the next program counter first.
    code_hint: usize,
}

impl Machine {
    /// Create a process from a loaded image.
    pub fn new(image: Image, config: ProcessConfig) -> Machine {
        Machine::from_image(Arc::new(image), config)
    }

    /// Create a process from a shared loaded image. The image is immutable
    /// at run time, so many machines (and snapshots) can share one loaded
    /// copy — the loader's validation, layout and instruction predecoding
    /// are paid once per image instead of once per run.
    pub fn from_image(image: Arc<Image>, config: ProcessConfig) -> Machine {
        let mut mem = Memory::new();
        // Map every module's data + BSS region and copy the initialized data.
        for lm in &image.modules {
            let size = lm.data_size().max(8);
            mem.map_region(lm.data_base, size);
            if !lm.module.data.is_empty() {
                mem.write_bytes(lm.data_base, &lm.module.data)
                    .expect("freshly mapped data region");
            }
        }
        // Apply data relocations now that every module has a base address.
        for lm in &image.modules {
            for reloc in &lm.module.data_relocs {
                let resolution = image.resolution(lm.index, reloc.sym);
                let value: Word = match resolution {
                    Resolution::Func { addr } | Resolution::Data { addr } => *addr as Word,
                    Resolution::Hooked {
                        original: Some(addr),
                        ..
                    } => *addr as Word,
                    _ => 0,
                };
                mem.write_word(lm.data_base + reloc.data_offset, value)
                    .expect("relocation target inside mapped data");
            }
        }
        // Heap.
        mem.map_region(HEAP_BASE, PAGE_SIZE);
        // Main thread stack.
        let stack_top = STACK_REGION;
        mem.map_region(stack_top - config.stack_size, config.stack_size);

        let mut env: HashMap<String, String> = config.env.iter().cloned().collect();
        env.insert("ARGC".to_string(), config.args.len().to_string());
        for (i, arg) in config.args.iter().enumerate() {
            env.insert(format!("ARG{i}"), arg.clone());
        }

        let main_thread = Thread::new(1, image.entry, stack_top, image.tls_slots());
        let mut machine = Machine {
            image,
            mem,
            fs: SimFs::new(),
            net: None,
            threads: vec![main_thread],
            current: 0,
            next_thread_id: 2,
            mutexes: HashMap::new(),
            fds: vec![None, Some(FdEntry::Stdout), Some(FdEntry::Stderr)],
            env,
            heap_brk: HEAP_BASE,
            heap_limit: config.heap_limit,
            clock: 0,
            stats: ExecStats::default(),
            coverage: Coverage::new(),
            record_coverage: config.record_coverage,
            rng: StdRng::seed_from_u64(config.seed),
            node_id: config.node_id,
            output: Vec::new(),
            config,
            finished: None,
            code_hint: 0,
        };
        // Pass ARGC/ARGV-style information through the environment.
        machine.threads[0].set_reg(Reg::R(1), machine.config.args.len() as Word);
        machine
    }

    /// Attach the process to a shared network.
    pub fn attach_net(&mut self, net: NetHandle) {
        self.net = Some(net);
    }

    /// Mutable access to the simulated filesystem (for workload setup).
    pub fn fs_mut(&mut self) -> &mut SimFs {
        &mut self.fs
    }

    /// Read-only access to the simulated filesystem.
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }

    /// Everything the program wrote to stdout/stderr so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Output as a lossy string.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// Current virtual time in ticks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Add extra virtual time (used by the LFI runtime to model trigger
    /// evaluation cost, so the precision/performance experiments have a
    /// meaningful cost axis).
    pub fn add_cost(&mut self, ticks: u64) {
        self.clock += ticks;
    }

    /// The node id this process uses on the simulated network.
    pub fn node_id(&self) -> i64 {
        self.node_id
    }

    /// Set an environment variable from the harness side.
    pub fn set_env(&mut self, name: &str, value: &str) {
        self.env.insert(name.to_string(), value.to_string());
    }

    /// Read an environment variable.
    pub fn get_env(&self, name: &str) -> Option<&str> {
        self.env.get(name).map(|s| s.as_str())
    }

    /// The loaded image.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Value of the thread-local `errno` of the currently scheduled thread.
    pub fn errno(&self) -> Word {
        self.threads[self.current].tls[Image::ERRNO_SLOT].unwrap_or(0)
    }

    /// Read a word-sized exported global variable by name.
    pub fn read_global(&self, name: &str) -> Option<Word> {
        let addr = self.image.data_addr(name)?;
        self.mem.read_word(addr).ok()
    }

    /// Address of an exported global, if any.
    pub fn global_addr(&self, name: &str) -> Option<Addr> {
        self.image.data_addr(name)
    }

    /// Read a word from process memory.
    pub fn read_word(&self, addr: Addr) -> Option<Word> {
        self.mem.read_word(addr).ok()
    }

    /// Read a NUL-terminated string from process memory.
    pub fn read_cstring(&self, addr: Addr) -> Option<String> {
        self.mem.read_cstring(addr, 4096).ok()
    }

    /// Kind of the object behind a file descriptor (see `lfi_arch::filekind`),
    /// used by argument-inspecting triggers.
    pub fn fd_kind(&self, fd: Word) -> Option<Word> {
        use lfi_arch::abi::filekind;
        match self.fds.get(fd as usize)?.as_ref()? {
            FdEntry::Stdout | FdEntry::Stderr => Some(filekind::REGULAR),
            FdEntry::File { path, .. } => self.fs.stat(path).ok().map(|(kind, _)| kind),
            FdEntry::Socket { .. } => Some(filekind::SOCKET),
            FdEntry::Dir { .. } => Some(filekind::DIRECTORY),
        }
    }

    /// Symbolize the call stack of the currently scheduled thread, innermost
    /// call site first.
    pub fn backtrace(&self) -> Vec<Frame> {
        self.backtrace_of(self.current)
    }

    fn backtrace_of(&self, thread_index: usize) -> Vec<Frame> {
        self.frame_sites_of(thread_index)
            .map(|(module, offset)| Frame::at(module, offset))
            .collect()
    }

    /// The call sites on a thread's shadow stack as `(module, code offset)`,
    /// innermost first. This is the one definition of a thread's call stack:
    /// backtraces symbolize it and call-stack triggers match against it.
    /// The sentinel frame at the bottom of every thread marks where the
    /// thread started; no call was made there, so it is not a call site.
    fn frame_sites_of(&self, thread_index: usize) -> impl Iterator<Item = (&LoadedModule, u64)> {
        self.threads[thread_index]
            .frames
            .iter()
            .rev()
            .filter(|shadow| shadow.return_addr != RETURN_SENTINEL)
            .map(|shadow| {
                (
                    &self.image.modules[shadow.call_site_module],
                    shadow.call_site_offset,
                )
            })
    }

    /// Id of the currently scheduled thread.
    pub fn current_thread(&self) -> i64 {
        self.threads[self.current].id
    }

    /// Number of live (not exited) threads.
    pub fn live_threads(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.state != ThreadState::Exited)
            .count()
    }

    /// Number of mutexes currently held by the given thread.
    pub fn mutexes_held_by(&self, thread_id: i64) -> usize {
        self.mutexes
            .values()
            .filter(|m| m.owner == Some(thread_id))
            .count()
    }

    /// Whether the process has already terminated (exited or crashed).
    pub fn finished(&self) -> Option<&RunExit> {
        self.finished.as_ref()
    }

    /// Reseed the process-deterministic random stream. Session executors
    /// call this on a forked machine so each fork draws from its own unit
    /// seed; it matches fresh-VM behavior exactly when the shared prefix
    /// consumed no randomness — check [`Machine::rng_is_pristine`] before
    /// snapshotting a prefix.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Whether the process has consumed any randomness yet, i.e. its RNG
    /// stream is still at the position seeded at creation. Session
    /// executors refuse to snapshot a prefix that drew randomness: a fork
    /// reseeds with its own unit seed, which reproduces fresh-VM behavior
    /// only from an untouched stream. (Only meaningful on a machine that
    /// has not been [`Machine::reseed`]ed, which replaces the stream
    /// without updating the creation seed.)
    pub fn rng_is_pristine(&self) -> bool {
        self.rng == StdRng::seed_from_u64(self.config.seed)
    }

    /// Enable or disable instruction-coverage recording from here on.
    /// Already-recorded coverage is kept. Sessions record coverage during
    /// the shared prefix (so baseline-reachability forks can keep
    /// accumulating) and turn it off in injection forks, which never read it.
    pub fn set_record_coverage(&mut self, record: bool) {
        self.record_coverage = record;
    }

    /// Remove and return the coverage recorded so far, leaving an empty
    /// record. Session executors strip the prefix coverage out of the
    /// machine before snapshotting it, so the (potentially large) offset
    /// sets are kept once per session instead of being cloned into every
    /// fork.
    pub fn take_coverage(&mut self) -> Coverage {
        std::mem::take(&mut self.coverage)
    }

    /// Deep-copy the machine. Memory is copy-on-write (cheap), the image is
    /// shared, and an attached network is captured by value — the copy gets
    /// its own independent network containing the current queues.
    fn duplicate(&self) -> Machine {
        Machine {
            image: Arc::clone(&self.image),
            mem: self.mem.clone(),
            fs: self.fs.clone(),
            net: self.net.as_ref().map(NetHandle::fork),
            threads: self.threads.clone(),
            current: self.current,
            next_thread_id: self.next_thread_id,
            mutexes: self.mutexes.clone(),
            fds: self.fds.clone(),
            env: self.env.clone(),
            heap_brk: self.heap_brk,
            heap_limit: self.heap_limit,
            clock: self.clock,
            stats: self.stats,
            coverage: self.coverage.clone(),
            record_coverage: self.record_coverage,
            rng: self.rng.clone(),
            node_id: self.node_id,
            output: self.output.clone(),
            config: self.config.clone(),
            finished: self.finished.clone(),
            code_hint: self.code_hint,
        }
    }

    /// Capture the complete machine state — memory, registers and threads,
    /// filesystem, network, file descriptors, coverage, RNG, clock, output —
    /// as a restorable value. The loaded image is shared, memory pages are
    /// copy-on-write, and an attached network is deep-copied, so snapshots
    /// are cheap and forks are fully isolated from the live machine.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            machine: self.duplicate(),
        }
    }

    /// Restore this machine to a previously captured snapshot, discarding
    /// all state accumulated since (including network traffic: the restored
    /// machine is attached to a fresh copy of the snapshot's network, not to
    /// whatever handle it had before).
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        *self = snapshot.machine.duplicate();
    }

    /// A stable digest of the architectural machine state: every thread's
    /// registers, program counter, TLS, shadow stack and run state, plus
    /// memory, filesystem, coverage, file descriptors, environment, heap,
    /// clock, statistics and output. Two machines with equal fingerprints
    /// are byte-identical as far as the program can observe (the RNG stream
    /// position is restored by snapshots but is not part of the digest).
    pub fn state_fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for byte in bytes {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for thread in &self.threads {
            mix(&thread.id.to_le_bytes());
            mix(&thread.pc.to_le_bytes());
            for reg in &thread.regs {
                mix(&reg.to_le_bytes());
            }
            mix(&[match thread.flags {
                Ordering::Less => 0,
                Ordering::Equal => 1,
                Ordering::Greater => 2,
            }]);
            let mut tls: Vec<(&str, Word)> = thread
                .tls
                .iter()
                .enumerate()
                .filter_map(|(slot, value)| Some((self.image.tls_name(slot), (*value)?)))
                .collect();
            tls.sort();
            for (name, value) in tls {
                mix(name.as_bytes());
                mix(&value.to_le_bytes());
            }
            for frame in &thread.frames {
                mix(&(frame.call_site_module as u64).to_le_bytes());
                mix(&frame.call_site_offset.to_le_bytes());
                mix(&frame.return_addr.to_le_bytes());
            }
            mix(&[match thread.state {
                ThreadState::Runnable => 1,
                ThreadState::BlockedOnMutex(_) => 2,
                ThreadState::Exited => 3,
            }]);
            mix(&[0xff]);
        }
        mix(&(self.current as u64).to_le_bytes());
        mix(&self.next_thread_id.to_le_bytes());
        mix(&self.mem.digest().to_le_bytes());
        mix(&self.fs.digest().to_le_bytes());
        mix(&self.coverage.digest().to_le_bytes());
        let mut mutexes: Vec<(&i64, Option<i64>)> =
            self.mutexes.iter().map(|(id, m)| (id, m.owner)).collect();
        mutexes.sort();
        for (id, owner) in mutexes {
            mix(&id.to_le_bytes());
            mix(&owner.unwrap_or(i64::MIN).to_le_bytes());
        }
        for fd in &self.fds {
            match fd {
                None => mix(&[0]),
                Some(FdEntry::Stdout) => mix(&[1]),
                Some(FdEntry::Stderr) => mix(&[2]),
                Some(FdEntry::File { path, pos, flags }) => {
                    mix(&[3]);
                    mix(path.as_bytes());
                    mix(&pos.to_le_bytes());
                    mix(&flags.to_le_bytes());
                }
                Some(FdEntry::Socket { port, flags }) => {
                    mix(&[4]);
                    mix(&port.unwrap_or(i64::MIN).to_le_bytes());
                    mix(&flags.to_le_bytes());
                }
                Some(FdEntry::Dir { entries, pos }) => {
                    mix(&[5]);
                    for entry in entries {
                        mix(entry.as_bytes());
                    }
                    mix(&(*pos as u64).to_le_bytes());
                }
            }
        }
        let mut env: Vec<(&String, &String)> = self.env.iter().collect();
        env.sort();
        for (name, value) in env {
            mix(name.as_bytes());
            mix(value.as_bytes());
        }
        mix(&self.heap_brk.to_le_bytes());
        mix(&self.clock.to_le_bytes());
        mix(&self.stats.instructions.to_le_bytes());
        mix(&self.stats.syscalls.to_le_bytes());
        mix(&self.stats.calls.to_le_bytes());
        mix(&self.stats.hooked_calls.to_le_bytes());
        mix(&self.output);
        hash
    }

    fn fault(&self, kind: FaultKind) -> RunExit {
        let thread = &self.threads[self.current];
        let (module, offset) = match self.image.find_code(thread.pc) {
            Some((idx, off)) => (self.image.modules[idx].module.name.clone(), off),
            None => ("<unknown>".to_string(), thread.pc),
        };
        RunExit::Fault(Fault {
            kind,
            module,
            offset,
            thread: thread.id,
            backtrace: self.backtrace_of(self.current),
        })
    }

    pub(crate) fn spawn_thread(&mut self, entry: Addr, arg: Word) -> i64 {
        let id = self.next_thread_id;
        self.next_thread_id += 1;
        let stack_top = STACK_REGION + (id as Addr) * STACK_SPACING;
        self.mem
            .map_region(stack_top - self.config.stack_size, self.config.stack_size);
        let mut thread = Thread::new(id, entry, stack_top, self.image.tls_slots());
        thread.set_reg(Reg::R(1), arg);
        self.threads.push(thread);
        id
    }

    pub(crate) fn exit_current_thread(&mut self) {
        self.threads[self.current].state = ThreadState::Exited;
    }

    pub(crate) fn block_current_on_mutex(&mut self, mutex: i64) {
        self.threads[self.current].state = ThreadState::BlockedOnMutex(mutex);
    }

    pub(crate) fn wake_mutex_waiters(&mut self, mutex: i64) {
        for t in &mut self.threads {
            if t.state == ThreadState::BlockedOnMutex(mutex) {
                t.state = ThreadState::Runnable;
            }
        }
    }

    pub(crate) fn mutex_state(&mut self, mutex: i64) -> &mut MutexState {
        self.mutexes.entry(mutex).or_default()
    }

    pub(crate) fn mutex_owner(&self, mutex: i64) -> Option<i64> {
        self.mutexes.get(&mutex).and_then(|m| m.owner)
    }

    pub(crate) fn set_mutex_owner(&mut self, mutex: i64, owner: Option<i64>) {
        self.mutex_state(mutex).owner = owner;
    }

    /// Run until the process exits, crashes, blocks, or `max_instructions`
    /// have executed across all threads.
    pub fn run(&mut self, handler: &mut dyn HookHandler, max_instructions: u64) -> RunExit {
        if let Some(exit) = &self.finished {
            return exit.clone();
        }
        let mut executed: u64 = 0;
        // Slots stay valid while the machine runs (pages are never
        // unmapped, and copy on write replaces a page in its slot), so one
        // cache serves every thread and quantum of this call.
        let mut cache = PageCache::new();
        loop {
            // Find the next runnable thread, starting from the current one.
            let n = self.threads.len();
            let mut found = None;
            for i in 0..n {
                let idx = (self.current + i) % n;
                if self.threads[idx].state == ThreadState::Runnable {
                    found = Some(idx);
                    break;
                }
            }
            let Some(idx) = found else {
                let all_exited = self.threads.iter().all(|t| t.state == ThreadState::Exited);
                let exit = if all_exited {
                    RunExit::Exited(0)
                } else {
                    RunExit::Blocked
                };
                if all_exited {
                    self.finished = Some(exit.clone());
                }
                return exit;
            };
            self.current = idx;

            let quantum = self.config.quantum.min(max_instructions - executed);
            match self.run_quantum(handler, quantum, &mut cache) {
                Ok(ran) => executed += ran,
                Err(exit) => {
                    if matches!(exit, RunExit::Exited(_) | RunExit::Fault(_)) {
                        self.finished = Some(exit.clone());
                    }
                    return exit;
                }
            }
            if executed >= max_instructions {
                return RunExit::Budget;
            }
            // Rotate to the next thread.
            self.current = (self.current + 1) % self.threads.len();
        }
    }

    /// Run with a generous default instruction budget.
    pub fn run_to_completion(&mut self, handler: &mut dyn HookHandler) -> RunExit {
        self.run(handler, 500_000_000)
    }

    /// Run the current thread for at most `budget` instructions: until the
    /// budget is spent or the thread blocks or exits. Returns the number of
    /// instructions executed, or the exit that stops the whole process.
    fn run_quantum(
        &mut self,
        handler: &mut dyn HookHandler,
        budget: u64,
        cache: &mut PageCache,
    ) -> Result<u64, RunExit> {
        let mut ran = 0;
        while ran < budget {
            let (executed, stop) = self.interpret(budget - ran, cache);
            ran += executed;
            match stop {
                Stop::Budget => {}
                Stop::ThreadExited => break,
                Stop::OutOfLine {
                    op,
                    module_idx,
                    offset,
                } => {
                    self.execute_out_of_line(handler, op, module_idx, offset)?;
                    if self.threads[self.current].state != ThreadState::Runnable {
                        break;
                    }
                }
                Stop::Exited(code) => return Err(RunExit::Exited(code)),
                Stop::Fault(kind) => return Err(self.fault(kind)),
            }
        }
        Ok(ran)
    }

    /// The interpreter loop: execute up to `budget` instructions of the
    /// current thread, and return how many it executed and why it stopped.
    ///
    /// The thread's registers (in a local register file that lowered
    /// register indices address without a bounds check), flags and program
    /// counter, the current module's lowered code, and memory behind the
    /// page `cache` live in locals for the whole loop; `pc`, `stats`,
    /// `clock` and the registers are written back at every exit. An
    /// instruction that needs the whole machine stops the loop with
    /// [`Stop::OutOfLine`] after it has been counted, as every executed
    /// instruction is counted before it runs.
    fn interpret(&mut self, budget: u64, cache: &mut PageCache) -> (u64, Stop) {
        let Machine {
            image,
            mem,
            threads,
            current,
            stats,
            clock,
            coverage,
            record_coverage,
            code_hint,
            ..
        } = self;
        let image: &Image = image;
        let record_coverage = *record_coverage;
        let thread = &mut threads[*current];
        let frames = &mut thread.frames;
        let tls = &mut thread.tls;
        let mut regs = [0; REG_FILE];
        regs[..Reg::COUNT].copy_from_slice(&thread.regs);
        let mut flags = thread.flags;
        let mut pc = thread.pc;
        let mut module_idx = *code_hint;
        let mut module = &image.modules[module_idx];
        let mut executed: u64 = 0;
        let mut calls: u64 = 0;
        let sp = Reg::Sp.index();
        let ret = Reg::RET.index();

        let stop = loop {
            if executed == budget {
                break Stop::Budget;
            }
            // Most instructions are in the module of the previous one; look
            // the program counter up among all modules only when it left.
            // The lowered code covers the module's code exactly, so an
            // index past it means it left.
            let mut offset = pc.wrapping_sub(module.code_base);
            let op = match module.ops.get((offset / INSN_SIZE) as usize) {
                Some(&op) => op,
                None => {
                    let Some((idx, found)) = image.find_code(pc) else {
                        break Stop::Fault(FaultKind::BadPc { pc });
                    };
                    module_idx = idx;
                    module = &image.modules[idx];
                    offset = found;
                    match module.ops.get((offset / INSN_SIZE) as usize) {
                        Some(&op) => op,
                        None => break Stop::Fault(FaultKind::BadPc { pc }),
                    }
                }
            };
            if record_coverage {
                coverage.record(&module.module.name, offset);
            }
            executed += 1;

            let mut next_pc = pc + INSN_SIZE;
            match op {
                Op::Nop => {}
                Op::Halt => break Stop::Exited(regs[ret]),
                Op::Brk => break Stop::Fault(FaultKind::Break),
                Op::MovI { dst, imm } => regs[reg(dst)] = imm,
                Op::MovR { dst, src } => regs[reg(dst)] = regs[reg(src)],
                Op::Load { dst, base, off } => {
                    let addr = regs[reg(base)].wrapping_add(off) as Addr;
                    match cache.read_word(mem, addr) {
                        Ok(v) => regs[reg(dst)] = v,
                        Err(_) => break Stop::Fault(FaultKind::MemAccess { addr }),
                    }
                }
                Op::Store { base, src, off } => {
                    let addr = regs[reg(base)].wrapping_add(off) as Addr;
                    if cache.write_word(mem, addr, regs[reg(src)]).is_err() {
                        break Stop::Fault(FaultKind::MemAccess { addr });
                    }
                }
                Op::Load8 { dst, base, off } => {
                    let addr = regs[reg(base)].wrapping_add(off) as Addr;
                    match cache.read_u8(mem, addr) {
                        Ok(v) => regs[reg(dst)] = v as Word,
                        Err(_) => break Stop::Fault(FaultKind::MemAccess { addr }),
                    }
                }
                Op::Store8 { base, src, off } => {
                    let addr = regs[reg(base)].wrapping_add(off) as Addr;
                    if cache.write_u8(mem, addr, regs[reg(src)] as u8).is_err() {
                        break Stop::Fault(FaultKind::MemAccess { addr });
                    }
                }
                Op::Lea { dst, base, off } => {
                    regs[reg(dst)] = regs[reg(base)].wrapping_add(off);
                }
                Op::LeaUnresolved { sym } => {
                    let name = module.module.symrefs[sym as usize].name.clone();
                    break Stop::Fault(FaultKind::UnresolvedSymbol { name });
                }
                Op::Push { src } => {
                    // Wrapping, like every other address computation: a
                    // stack pointer at the bottom of the address space
                    // faults instead of overflowing.
                    let top = regs[sp].wrapping_sub(8) as Addr;
                    if cache.write_word(mem, top, regs[reg(src)]).is_err() {
                        break Stop::Fault(FaultKind::StackOverflow);
                    }
                    regs[sp] = top as Word;
                }
                Op::Pop { dst } => {
                    let top = regs[sp] as Addr;
                    match cache.read_word(mem, top) {
                        Ok(v) => {
                            regs[reg(dst)] = v;
                            regs[sp] = top.wrapping_add(8) as Word;
                        }
                        Err(_) => break Stop::Fault(FaultKind::MemAccess { addr: top }),
                    }
                }
                Op::Add { dst, src } => {
                    regs[reg(dst)] = regs[reg(dst)].wrapping_add(regs[reg(src)])
                }
                Op::AddI { dst, imm } => regs[reg(dst)] = regs[reg(dst)].wrapping_add(imm),
                Op::Sub { dst, src } => {
                    regs[reg(dst)] = regs[reg(dst)].wrapping_sub(regs[reg(src)])
                }
                Op::SubI { dst, imm } => regs[reg(dst)] = regs[reg(dst)].wrapping_sub(imm),
                Op::Mul { dst, src } => {
                    regs[reg(dst)] = regs[reg(dst)].wrapping_mul(regs[reg(src)])
                }
                Op::MulI { dst, imm } => regs[reg(dst)] = regs[reg(dst)].wrapping_mul(imm),
                Op::Div { dst, src } => match regs[reg(src)] {
                    0 => break Stop::Fault(FaultKind::DivideByZero),
                    b => regs[reg(dst)] = regs[reg(dst)].wrapping_div(b),
                },
                Op::DivI { dst, imm } => match imm {
                    0 => break Stop::Fault(FaultKind::DivideByZero),
                    b => regs[reg(dst)] = regs[reg(dst)].wrapping_div(b),
                },
                Op::Mod { dst, src } => match regs[reg(src)] {
                    0 => break Stop::Fault(FaultKind::DivideByZero),
                    b => regs[reg(dst)] = regs[reg(dst)].wrapping_rem(b),
                },
                Op::ModI { dst, imm } => match imm {
                    0 => break Stop::Fault(FaultKind::DivideByZero),
                    b => regs[reg(dst)] = regs[reg(dst)].wrapping_rem(b),
                },
                Op::And { dst, src } => regs[reg(dst)] &= regs[reg(src)],
                Op::AndI { dst, imm } => regs[reg(dst)] &= imm,
                Op::Or { dst, src } => regs[reg(dst)] |= regs[reg(src)],
                Op::OrI { dst, imm } => regs[reg(dst)] |= imm,
                Op::Xor { dst, src } => regs[reg(dst)] ^= regs[reg(src)],
                Op::XorI { dst, imm } => regs[reg(dst)] ^= imm,
                // `wrapping_sh*` take the count mod 64, as the ISA does.
                Op::Shl { dst, src } => {
                    regs[reg(dst)] = regs[reg(dst)].wrapping_shl(regs[reg(src)] as u32)
                }
                Op::ShlI { dst, imm } => regs[reg(dst)] = regs[reg(dst)].wrapping_shl(imm as u32),
                Op::Shr { dst, src } => {
                    regs[reg(dst)] = regs[reg(dst)].wrapping_shr(regs[reg(src)] as u32)
                }
                Op::ShrI { dst, imm } => regs[reg(dst)] = regs[reg(dst)].wrapping_shr(imm as u32),
                Op::Neg { dst } => regs[reg(dst)] = regs[reg(dst)].wrapping_neg(),
                Op::Not { dst } => regs[reg(dst)] = !regs[reg(dst)],
                Op::Cmp { a, b } => flags = regs[reg(a)].cmp(&regs[reg(b)]),
                Op::CmpI { a, imm } => flags = regs[reg(a)].cmp(&imm),
                Op::Jmp { target } => next_pc = target,
                Op::Je { target } => {
                    if flags.is_eq() {
                        next_pc = target;
                    }
                }
                Op::Jne { target } => {
                    if flags.is_ne() {
                        next_pc = target;
                    }
                }
                Op::Jlt { target } => {
                    if flags.is_lt() {
                        next_pc = target;
                    }
                }
                Op::Jle { target } => {
                    if flags.is_le() {
                        next_pc = target;
                    }
                }
                Op::Jgt { target } => {
                    if flags.is_gt() {
                        next_pc = target;
                    }
                }
                Op::Jge { target } => {
                    if flags.is_ge() {
                        next_pc = target;
                    }
                }
                Op::Call { target } => {
                    calls += 1;
                    frames.push(ShadowFrame {
                        call_site_module: module_idx,
                        call_site_offset: offset,
                        return_addr: next_pc,
                    });
                    next_pc = target;
                }
                Op::CallR { reg: callee } => {
                    let callee = regs[reg(callee)] as Addr;
                    if image.find_code(callee).is_none() {
                        break Stop::Fault(FaultKind::BadPc { pc: callee });
                    }
                    calls += 1;
                    frames.push(ShadowFrame {
                        call_site_module: module_idx,
                        call_site_offset: offset,
                        return_addr: next_pc,
                    });
                    next_pc = callee;
                }
                Op::CallHooked { .. } | Op::Sys { .. } => {
                    break Stop::OutOfLine {
                        op,
                        module_idx,
                        offset,
                    }
                }
                Op::CallUnresolved { sym } => {
                    calls += 1;
                    let name = module.module.symrefs[sym as usize].name.clone();
                    break Stop::Fault(FaultKind::UnresolvedSymbol { name });
                }
                Op::Ret => match frames.pop() {
                    Some(frame) if frame.return_addr != RETURN_SENTINEL => {
                        next_pc = frame.return_addr;
                    }
                    _ => {
                        // Bottom of the thread: the main thread returning ends
                        // the process; other threads just exit.
                        if thread.id == 1 {
                            break Stop::Exited(regs[ret]);
                        }
                        thread.state = ThreadState::Exited;
                        break Stop::ThreadExited;
                    }
                },
                Op::TlsLoad { dst, slot } => regs[reg(dst)] = tls[slot as usize].unwrap_or(0),
                Op::TlsStore { slot, src } => tls[slot as usize] = Some(regs[reg(src)]),
            }
            pc = next_pc;
        };

        thread.regs.copy_from_slice(&regs[..Reg::COUNT]);
        thread.flags = flags;
        thread.pc = pc;
        stats.instructions += executed;
        stats.calls += calls;
        *clock += executed;
        *code_hint = module_idx;
        (executed, stop)
    }

    /// Execute an instruction the interpreter loop handed out because it
    /// needs the whole machine: a `sys`, or a `callsym` through a hook. The
    /// instruction has already been counted. `Err` is an exit that stops
    /// the process.
    fn execute_out_of_line(
        &mut self,
        handler: &mut dyn HookHandler,
        op: Op,
        module_idx: usize,
        offset: u64,
    ) -> Result<(), RunExit> {
        let next_pc = self.threads[self.current].pc + INSN_SIZE;
        match op {
            Op::Sys { num } => {
                self.stats.syscalls += 1;
                match self.syscall(num) {
                    SysOutcome::Done(value) => {
                        let thread = &mut self.threads[self.current];
                        thread.set_reg(Reg::RET, value);
                        thread.pc = next_pc;
                    }
                    // The program counter stays on the syscall, which runs
                    // again when the thread is rescheduled.
                    SysOutcome::Block(mutex) => self.block_current_on_mutex(mutex),
                    SysOutcome::Exit(exit) => return Err(exit),
                }
            }
            Op::CallHooked { sym } => {
                self.stats.calls += 1;
                // The handler borrows the machine while it reads the
                // intercepted name, so lend it the name through a second
                // handle on the image instead of a copy.
                let image = Arc::clone(&self.image);
                let Resolution::Hooked { name, original } = image.resolution(module_idx, sym)
                else {
                    unreachable!("the interpreter hands out only hooked calls")
                };
                self.stats.hooked_calls += 1;
                let action = {
                    let mut ctx = CallContext {
                        machine: self,
                        call_site_module: module_idx,
                        call_site_offset: offset,
                    };
                    handler.on_call(name, &mut ctx)
                };
                let thread = &mut self.threads[self.current];
                match action {
                    HookAction::Forward => {
                        let Some(addr) = *original else {
                            let name = name.clone();
                            return Err(self.fault(FaultKind::UnresolvedSymbol { name }));
                        };
                        thread.frames.push(ShadowFrame {
                            call_site_module: module_idx,
                            call_site_offset: offset,
                            return_addr: next_pc,
                        });
                        thread.pc = addr;
                    }
                    HookAction::Return { value, errno } => {
                        thread.set_reg(Reg::RET, value);
                        if let Some(e) = errno {
                            thread.tls[Image::ERRNO_SLOT] = Some(e);
                        }
                        thread.pc = next_pc;
                    }
                    HookAction::Pause => {
                        // Roll back this instruction's bookkeeping and leave
                        // the PC on the call: a machine resumed (or restored
                        // from a snapshot taken here) re-executes the call as
                        // if it had never run, so the next handler observes
                        // it first-hand.
                        self.stats.instructions -= 1;
                        self.stats.calls -= 1;
                        self.stats.hooked_calls -= 1;
                        self.clock -= 1;
                        return Err(RunExit::Paused);
                    }
                }
            }
            _ => unreachable!("the interpreter loop executes {op:?} itself"),
        }
        Ok(())
    }

    pub(crate) fn current_reg(&self, reg: Reg) -> Word {
        self.threads[self.current].reg(reg)
    }

    pub(crate) fn make_fault(&self, kind: FaultKind) -> RunExit {
        self.fault(kind)
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("threads", &self.threads.len())
            .field("clock", &self.clock)
            .field("instructions", &self.stats.instructions)
            .field("finished", &self.finished)
            .finish()
    }
}

/// A restorable capture of a [`Machine`]'s complete state, taken with
/// [`Machine::snapshot`].
///
/// A snapshot owns an independent copy of all mutable process state
/// (memory pages are shared copy-on-write with whoever else holds them; the
/// loaded image is shared outright). [`MachineSnapshot::fork`] mints any
/// number of isolated machines from one snapshot — the mechanism behind
/// snapshot-fork campaign execution, where the workload prefix up to the
/// first injectable call is executed once and every fault-injection run
/// resumes from it.
pub struct MachineSnapshot {
    machine: Machine,
}

impl MachineSnapshot {
    /// Create a new, fully isolated machine resuming from this snapshot.
    pub fn fork(&self) -> Machine {
        self.machine.duplicate()
    }

    /// Execution statistics at the snapshot point (e.g. instructions already
    /// consumed by the shared prefix, for budget accounting in forks).
    pub fn stats(&self) -> ExecStats {
        self.machine.stats
    }

    /// Virtual time at the snapshot point.
    pub fn clock(&self) -> u64 {
        self.machine.clock
    }

    /// Whether the captured process had already terminated — i.e. the run
    /// never reached a pause point. Forks of a finished snapshot return the
    /// terminal exit immediately.
    pub fn is_finished(&self) -> bool {
        self.machine.finished.is_some()
    }

    /// An upper-bound estimate of the bytes this snapshot keeps resident:
    /// mapped memory (counted in full, although copy-on-write pages may be
    /// physically shared with related snapshots), filesystem contents, and
    /// captured program output. Session caches use this to enforce an LRU
    /// byte budget on resident snapshot-tree nodes.
    pub fn resident_bytes(&self) -> u64 {
        self.machine.mem.mapped_bytes()
            + self.machine.fs.total_bytes()
            + self.machine.output.len() as u64
    }
}

impl fmt::Debug for MachineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MachineSnapshot")
            .field("clock", &self.machine.clock)
            .field("instructions", &self.machine.stats.instructions)
            .field("finished", &self.machine.finished)
            .finish()
    }
}

/// Machine state exposed to an interposition hook at an intercepted call.
///
/// This is the information the paper's triggers inspect: the intercepted
/// function's arguments, the call stack, program globals, thread identity,
/// held mutexes, file-descriptor properties, and virtual time.
pub struct CallContext<'m> {
    machine: &'m mut Machine,
    call_site_module: usize,
    call_site_offset: u64,
}

impl CallContext<'_> {
    /// The first `n` arguments of the intercepted call (register arguments).
    pub fn args(&self, n: usize) -> Vec<Word> {
        CallConv::ARGUMENTS
            .iter()
            .take(n.min(CallConv::MAX_REG_ARGS))
            .map(|&r| self.machine.current_reg(r))
            .collect()
    }

    /// A single argument by position.
    pub fn arg(&self, index: usize) -> Word {
        if index < CallConv::MAX_REG_ARGS {
            self.machine.current_reg(CallConv::ARGUMENTS[index])
        } else {
            0
        }
    }

    /// Module name and code offset of the call site.
    pub fn call_site(&self) -> (&str, u64) {
        (
            self.call_site_module().module.name.as_str(),
            self.call_site_offset,
        )
    }

    /// Source file and line of the call site, if debug info is available.
    pub fn call_site_source(&self) -> Option<(String, u32)> {
        self.call_site_module()
            .module
            .line_for_offset(self.call_site_offset)
            .map(|(f, l)| (f.to_string(), l))
    }

    /// Name of the function containing the call site.
    pub fn caller_function(&self) -> Option<String> {
        self.call_site_module()
            .containing_function(self.call_site_offset)
            .map(|e| e.name.clone())
    }

    fn call_site_module(&self) -> &LoadedModule {
        &self.machine.image.modules[self.call_site_module]
    }

    /// The call stack as `(module, code offset)` call sites, innermost
    /// first: the intercepted call itself (which is not yet on the shadow
    /// stack), then the calling thread's frames outwards. Nothing is
    /// symbolized, so call-stack triggers can match a frame on its module
    /// and offset and look up its function or source line only when they
    /// need to. [`CallContext::backtrace`] symbolizes exactly these frames.
    pub fn frame_sites(&self) -> impl Iterator<Item = (&LoadedModule, u64)> {
        std::iter::once((self.call_site_module(), self.call_site_offset))
            .chain(self.machine.frame_sites_of(self.machine.current))
    }

    /// Full symbolized backtrace, innermost call site first.
    pub fn backtrace(&self) -> Vec<Frame> {
        self.frame_sites()
            .map(|(module, offset)| Frame::at(module, offset))
            .collect()
    }

    /// Read an exported global variable.
    pub fn read_global(&self, name: &str) -> Option<Word> {
        self.machine.read_global(name)
    }

    /// Read a word of process memory (for triggers that chase pointers).
    pub fn read_word(&self, addr: Addr) -> Option<Word> {
        self.machine.read_word(addr)
    }

    /// Read a C string from process memory (e.g. a path argument).
    pub fn read_cstring(&self, addr: Addr) -> Option<String> {
        self.machine.read_cstring(addr)
    }

    /// Kind of the file behind a descriptor argument.
    pub fn fd_kind(&self, fd: Word) -> Option<Word> {
        self.machine.fd_kind(fd)
    }

    /// Id of the calling thread.
    pub fn thread_id(&self) -> i64 {
        self.machine.current_thread()
    }

    /// Number of mutexes held by the calling thread.
    pub fn mutexes_held(&self) -> usize {
        self.machine.mutexes_held_by(self.machine.current_thread())
    }

    /// Current virtual time.
    pub fn clock(&self) -> u64 {
        self.machine.clock()
    }

    /// Current errno value of the calling thread.
    pub fn errno(&self) -> Word {
        self.machine.errno()
    }

    /// Charge extra virtual time for trigger evaluation.
    pub fn add_cost(&mut self, ticks: u64) {
        self.machine.add_cost(ticks);
    }

    /// Node id of the process (for distributed triggers).
    pub fn node_id(&self) -> i64 {
        self.machine.node_id()
    }
}
