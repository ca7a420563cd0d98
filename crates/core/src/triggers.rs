//! Fault-injection triggers (§3 of the paper).
//!
//! A trigger is a predicate over program state that decides whether an
//! intercepted library call should fail. Triggers are pluggable: the
//! [`Trigger`] trait plays the role of the paper's C++ `Trigger` interface,
//! and the [`TriggerRegistry`] plays the role of its Registry-pattern class
//! lookup (`DECLARE_TRIGGER` / `Class.forName`-style instantiation). Stock
//! triggers cover the six families described in the paper — call stack,
//! program state, call count, singleton, random, and distributed — plus a few
//! argument-inspecting helpers used by the evaluation's custom scenarios.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lfi_arch::Word;
use lfi_vm::{CallContext, LoadedModule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::{FrameSpec, TriggerDecl};

/// Everything a trigger may inspect when deciding whether to fire.
pub struct TriggerCtx<'a, 'm> {
    /// The intercepted function name.
    pub function: &'a str,
    /// How many calls to this function have been intercepted so far
    /// (including the current one).
    pub call_count: u64,
    /// VM-side view of the intercepted call (arguments, backtrace, globals,
    /// file descriptors, thread, node, virtual time).
    pub call: &'a mut CallContext<'m>,
}

/// The trigger interface. `eval` is called for every intercepted call the
/// trigger instance is associated with; returning `true` requests injection.
pub trait Trigger: Send {
    /// Decide whether to fire for this interception.
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool;
}

/// Errors constructing trigger instances from declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerBuildError {
    /// Trigger class that failed to build.
    pub class: String,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for TriggerBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot build trigger `{}`: {}", self.class, self.message)
    }
}

impl std::error::Error for TriggerBuildError {}

/// Factory signature: build a trigger instance from its declaration.
pub type TriggerFactory =
    Arc<dyn Fn(&TriggerDecl) -> Result<Box<dyn Trigger>, TriggerBuildError> + Send + Sync>;

/// Registry mapping trigger class names to factories.
#[derive(Clone)]
pub struct TriggerRegistry {
    factories: BTreeMap<String, TriggerFactory>,
}

impl fmt::Debug for TriggerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TriggerRegistry")
            .field("classes", &self.class_names())
            .finish()
    }
}

impl Default for TriggerRegistry {
    fn default() -> Self {
        TriggerRegistry::with_stock_triggers()
    }
}

fn param<T: std::str::FromStr>(decl: &TriggerDecl, key: &str) -> Option<T> {
    decl.params.get(key).and_then(|v| v.trim().parse().ok())
}

fn require<T: std::str::FromStr>(decl: &TriggerDecl, key: &str) -> Result<T, TriggerBuildError> {
    param(decl, key).ok_or_else(|| TriggerBuildError {
        class: decl.class.clone(),
        message: format!("missing or invalid parameter `{key}`"),
    })
}

impl TriggerRegistry {
    /// An empty registry with no classes.
    pub fn empty() -> TriggerRegistry {
        TriggerRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// A registry pre-populated with every stock trigger.
    pub fn with_stock_triggers() -> TriggerRegistry {
        let mut registry = TriggerRegistry::empty();
        registry.register("CallStackTrigger", |decl| {
            Ok(Box::new(CallStackTrigger {
                frames: decl.frames.clone(),
            }) as Box<dyn Trigger>)
        });
        registry.register("ProgramStateTrigger", |decl| {
            let variable: String = require(decl, "variable")?;
            let op = decl
                .params
                .get("op")
                .cloned()
                .unwrap_or_else(|| "==".to_string());
            let value: Word = require(decl, "value")?;
            Ok(Box::new(ProgramStateTrigger {
                variable,
                op,
                value,
            }))
        });
        registry.register("CallCountTrigger", |decl| {
            let count: u64 = require(decl, "count")?;
            Ok(Box::new(CallCountTrigger { count }))
        });
        registry.register("SingletonTrigger", |_| {
            Ok(Box::new(SingletonTrigger { fired: false }))
        });
        registry.register("RandomTrigger", |decl| {
            let probability: f64 = require(decl, "probability")?;
            let seed: u64 = param(decl, "seed").unwrap_or(0x1f1);
            Ok(Box::new(RandomTrigger {
                probability,
                rng: StdRng::seed_from_u64(seed),
            }))
        });
        registry.register("ArgTrigger", |decl| {
            let index: usize = require(decl, "index")?;
            let value: Word = require(decl, "value")?;
            Ok(Box::new(ArgTrigger { index, value }))
        });
        registry.register("FdKindTrigger", |decl| {
            let index: usize = require(decl, "index")?;
            let kind: Word = require(decl, "kind")?;
            Ok(Box::new(FdKindTrigger { index, kind }))
        });
        registry.register("WithMutexTrigger", |_| Ok(Box::new(WithMutexTrigger)));
        registry.register("CallerFunctionTrigger", |decl| {
            let function: String = require(decl, "function")?;
            let anywhere = param(decl, "anywhere").unwrap_or(1i64) != 0;
            Ok(Box::new(CallerFunctionTrigger { function, anywhere }))
        });
        registry.register("ProximityTrigger", |decl| {
            let watch: String = require(decl, "watch")?;
            let distance: u32 = param(decl, "distance").unwrap_or(2);
            Ok(Box::new(ProximityTrigger {
                watch,
                distance,
                last_seen: None,
            }))
        });
        registry
    }

    /// Register (or replace) a trigger class. Custom triggers are plugged in
    /// exactly like stock ones, mirroring the paper's "drop the class in a
    /// directory and reference it by name" workflow.
    pub fn register<F>(&mut self, class: &str, factory: F)
    where
        F: Fn(&TriggerDecl) -> Result<Box<dyn Trigger>, TriggerBuildError> + Send + Sync + 'static,
    {
        self.factories.insert(class.to_string(), Arc::new(factory));
    }

    /// Instantiate a trigger from its declaration.
    pub fn build(&self, decl: &TriggerDecl) -> Result<Box<dyn Trigger>, TriggerBuildError> {
        match self.factories.get(&decl.class) {
            Some(factory) => factory(decl),
            None => Err(TriggerBuildError {
                class: decl.class.clone(),
                message: "unknown trigger class".to_string(),
            }),
        }
    }

    /// Names of all registered classes.
    pub fn class_names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// Stock triggers.
// ---------------------------------------------------------------------------

/// Fires when every frame specification matches some frame of the current
/// call stack (the innermost frame is the intercepted call site itself).
pub struct CallStackTrigger {
    /// Frame patterns that must all be present.
    pub frames: Vec<FrameSpec>,
}

/// Whether the call site at `offset` in `module` matches `spec`. The module
/// and offset are compared first; the containing function and the source
/// line are looked up only if the spec constrains them.
fn frame_matches(spec: &FrameSpec, module: &LoadedModule, offset: u64) -> bool {
    if spec.offset.is_some_and(|want| want != offset) {
        return false;
    }
    if spec
        .module
        .as_ref()
        .is_some_and(|want| *want != module.module.name)
    {
        return false;
    }
    if let Some(function) = &spec.function {
        if module.containing_function(offset).map(|e| e.name.as_str()) != Some(function.as_str()) {
            return false;
        }
    }
    if spec.file.is_some() || spec.line.is_some() {
        let Some((file, line)) = module.module.line_for_offset(offset) else {
            return false;
        };
        if spec
            .file
            .as_ref()
            .is_some_and(|want| !file.ends_with(want.as_str()))
        {
            return false;
        }
        if spec.line.is_some_and(|want| want != line) {
            return false;
        }
    }
    true
}

impl Trigger for CallStackTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        self.frames.iter().all(|spec| {
            ctx.call
                .frame_sites()
                .any(|(module, offset)| frame_matches(spec, module, offset))
        })
    }
}

/// Fires when a relationship between a global variable and a constant holds
/// (e.g. `numConnections == maxConnections` in the paper; here the right-hand
/// side is a constant and comparisons between two globals can be composed
/// from two instances).
pub struct ProgramStateTrigger {
    /// Exported global variable name.
    pub variable: String,
    /// One of `==`, `!=`, `<`, `<=`, `>`, `>=`.
    pub op: String,
    /// Constant to compare against.
    pub value: Word,
}

impl Trigger for ProgramStateTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        let Some(actual) = ctx.call.read_global(&self.variable) else {
            return false;
        };
        match self.op.as_str() {
            "==" => actual == self.value,
            "!=" => actual != self.value,
            "<" => actual < self.value,
            "<=" => actual <= self.value,
            ">" => actual > self.value,
            ">=" => actual >= self.value,
            _ => false,
        }
    }
}

/// Fires exactly on the n-th interception of the associated function.
pub struct CallCountTrigger {
    /// 1-based call number to fire on.
    pub count: u64,
}

impl Trigger for CallCountTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        ctx.call_count == self.count
    }
}

/// Fires exactly once, then never again. Composed at the end of conjunctions
/// to produce one-shot injections (§3.2, §4.3).
pub struct SingletonTrigger {
    fired: bool,
}

impl Trigger for SingletonTrigger {
    fn eval(&mut self, _ctx: &mut TriggerCtx<'_, '_>) -> bool {
        if self.fired {
            false
        } else {
            self.fired = true;
            true
        }
    }
}

/// Fires with a configurable probability (deterministic given the seed).
pub struct RandomTrigger {
    /// Probability in `[0, 1]`.
    pub probability: f64,
    rng: StdRng,
}

impl Trigger for RandomTrigger {
    fn eval(&mut self, _ctx: &mut TriggerCtx<'_, '_>) -> bool {
        self.probability > 0.0 && self.rng.gen_bool(self.probability.clamp(0.0, 1.0))
    }
}

/// Fires when the i-th argument of the intercepted call equals a constant
/// (e.g. `fcntl(fd, F_GETLK, ...)` in the MySQL overhead experiment).
pub struct ArgTrigger {
    /// Zero-based argument index.
    pub index: usize,
    /// Value to compare against.
    pub value: Word,
}

impl Trigger for ArgTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        ctx.call.arg(self.index) == self.value
    }
}

/// Fires when the i-th argument is a file descriptor of the given kind
/// (regular file, socket, FIFO, ...), like the Apache `apr_file_read`
/// trigger in §7.4 that checks the descriptor with `apr_stat`.
pub struct FdKindTrigger {
    /// Zero-based argument index holding the descriptor.
    pub index: usize,
    /// Expected `lfi_arch::abi::filekind` value.
    pub kind: Word,
}

impl Trigger for FdKindTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        let fd = ctx.call.arg(self.index);
        ctx.call.fd_kind(fd) == Some(self.kind)
    }
}

/// Fires when the calling thread currently holds at least one mutex
/// (the `WithMutex` composition from §4.2).
pub struct WithMutexTrigger;

impl Trigger for WithMutexTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        ctx.call.mutexes_held() > 0
    }
}

/// Fires when the call was made (directly, or anywhere up the stack) from a
/// given function — used to scope injection to a particular module or request
/// path, like requiring `ap_process_request_internal` on the stack.
pub struct CallerFunctionTrigger {
    /// Function name to look for.
    pub function: String,
    /// If false, only the innermost frame is considered.
    pub anywhere: bool,
}

impl Trigger for CallerFunctionTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        // The first frame site is the intercepted call site itself.
        let frames = if self.anywhere { usize::MAX } else { 1 };
        ctx.call.frame_sites().take(frames).any(|(module, offset)| {
            module
                .containing_function(offset)
                .is_some_and(|e| e.name == self.function)
        })
    }
}

/// Fires when the intercepted call occurs within `distance` source lines of
/// the most recent call to a watched function in the same file — the
/// "close shortly after a mutex unlock" custom trigger that reproduces the
/// MySQL double-unlock bug with 100% precision in Table 2.
pub struct ProximityTrigger {
    /// Function whose call sites are recorded (e.g. `pthread_mutex_unlock`).
    pub watch: String,
    /// Maximum distance in source lines.
    pub distance: u32,
    last_seen: Option<(String, u32)>,
}

impl Trigger for ProximityTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        if ctx.function == self.watch {
            self.last_seen = ctx.call.call_site_source();
            return false;
        }
        let (Some((watch_file, watch_line)), Some((file, line))) =
            (self.last_seen.clone(), ctx.call.call_site_source())
        else {
            return false;
        };
        file == watch_file && line.abs_diff(watch_line) <= self.distance
    }
}

/// Policy of a distributed trigger's central controller (§3.2): it sees which
/// node intercepted which function and decides globally whether to fire.
#[derive(Debug, Clone)]
pub enum DistributedPolicy {
    /// Fire on every call made by one specific node.
    TargetNode {
        /// The victim node id.
        node: i64,
    },
    /// Fire with a global probability, shared across all nodes.
    GlobalRandom {
        /// Probability in `[0, 1]`.
        probability: f64,
    },
    /// Rotate through the listed nodes, injecting `burst` consecutive faults
    /// into each in turn (the §7.3 denial-of-service schedule).
    RotatingBursts {
        /// Victim nodes, in rotation order.
        nodes: Vec<i64>,
        /// Number of consecutive injections per victim.
        burst: u64,
    },
    /// Never fire (baseline: interception without injection).
    Never,
}

/// Shared state of the distributed trigger controller.
#[derive(Debug)]
pub struct DistributedControllerState {
    policy: DistributedPolicy,
    rng: StdRng,
    injections: u64,
    consultations: u64,
}

/// The central controller shared by all replicas' distributed triggers.
#[derive(Debug, Clone)]
pub struct DistributedController {
    state: Arc<Mutex<DistributedControllerState>>,
}

impl DistributedController {
    /// Create a controller with the given policy and RNG seed.
    pub fn new(policy: DistributedPolicy, seed: u64) -> DistributedController {
        DistributedController {
            state: Arc::new(Mutex::new(DistributedControllerState {
                policy,
                rng: StdRng::seed_from_u64(seed),
                injections: 0,
                consultations: 0,
            })),
        }
    }

    /// Lock the shared state. A panic while it is held leaves only counters
    /// and an RNG behind, so a poisoned lock is used as it is.
    fn state(&self) -> MutexGuard<'_, DistributedControllerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ask the controller whether node `node` should fail this call.
    pub fn should_fire(&self, node: i64, _function: &str) -> bool {
        let mut state = self.state();
        state.consultations += 1;
        let fire = match &state.policy {
            DistributedPolicy::Never => false,
            DistributedPolicy::TargetNode { node: victim } => node == *victim,
            DistributedPolicy::GlobalRandom { probability } => {
                let p = probability.clamp(0.0, 1.0);
                p > 0.0 && { state.rng.gen_bool(p) }
            }
            DistributedPolicy::RotatingBursts { nodes, burst } => {
                if nodes.is_empty() || *burst == 0 {
                    false
                } else {
                    let slot = (state.injections / burst) as usize % nodes.len();
                    node == nodes[slot]
                }
            }
        };
        if fire {
            state.injections += 1;
        }
        fire
    }

    /// Total injections granted so far.
    pub fn injections(&self) -> u64 {
        self.state().injections
    }

    /// Total times any node consulted the controller.
    pub fn consultations(&self) -> u64 {
        self.state().consultations
    }

    /// Register the `DistributedTrigger` class backed by this controller in a
    /// registry, so scenarios can reference it by name.
    pub fn register(&self, registry: &mut TriggerRegistry) {
        let controller = self.clone();
        registry.register("DistributedTrigger", move |_decl| {
            Ok(Box::new(DistributedTrigger {
                controller: controller.clone(),
            }) as Box<dyn Trigger>)
        });
    }
}

/// Node-local end of a distributed trigger: forwards the decision to the
/// shared [`DistributedController`].
pub struct DistributedTrigger {
    /// The shared controller.
    pub controller: DistributedController,
}

impl Trigger for DistributedTrigger {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        self.controller
            .should_fire(ctx.call.node_id(), ctx.function)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_the_stock_triggers() {
        let registry = TriggerRegistry::default();
        let names = registry.class_names();
        for class in [
            "CallStackTrigger",
            "ProgramStateTrigger",
            "CallCountTrigger",
            "SingletonTrigger",
            "RandomTrigger",
            "ArgTrigger",
            "FdKindTrigger",
            "WithMutexTrigger",
            "CallerFunctionTrigger",
            "ProximityTrigger",
        ] {
            assert!(names.iter().any(|n| n == class), "missing {class}");
        }
    }

    #[test]
    fn unknown_classes_and_bad_params_are_reported() {
        let registry = TriggerRegistry::default();
        let decl = TriggerDecl {
            id: "x".into(),
            class: "NoSuchTrigger".into(),
            params: BTreeMap::new(),
            frames: vec![],
        };
        assert!(registry.build(&decl).is_err());

        let decl = TriggerDecl {
            id: "x".into(),
            class: "RandomTrigger".into(),
            params: BTreeMap::new(), // missing probability
            frames: vec![],
        };
        assert!(registry.build(&decl).is_err());
    }

    #[test]
    fn custom_trigger_classes_can_be_registered() {
        struct Always;
        impl Trigger for Always {
            fn eval(&mut self, _ctx: &mut TriggerCtx<'_, '_>) -> bool {
                true
            }
        }
        let mut registry = TriggerRegistry::default();
        registry.register("AlwaysTrigger", |_| Ok(Box::new(Always)));
        let decl = TriggerDecl {
            id: "a".into(),
            class: "AlwaysTrigger".into(),
            params: BTreeMap::new(),
            frames: vec![],
        };
        assert!(registry.build(&decl).is_ok());
    }

    #[test]
    fn distributed_controller_policies() {
        let target = DistributedController::new(DistributedPolicy::TargetNode { node: 2 }, 0);
        assert!(!target.should_fire(1, "sendto"));
        assert!(target.should_fire(2, "sendto"));
        assert_eq!(target.injections(), 1);

        let rotating = DistributedController::new(
            DistributedPolicy::RotatingBursts {
                nodes: vec![1, 2, 3],
                burst: 2,
            },
            0,
        );
        // First two injections go to node 1, next two to node 2, ...
        assert!(rotating.should_fire(1, "sendto"));
        assert!(!rotating.should_fire(2, "sendto"));
        assert!(rotating.should_fire(1, "sendto"));
        assert!(rotating.should_fire(2, "sendto"));
        assert!(!rotating.should_fire(1, "sendto"));
        assert!(rotating.should_fire(2, "sendto"));
        assert!(rotating.should_fire(3, "sendto"));
        assert_eq!(rotating.injections(), 5);

        let random =
            DistributedController::new(DistributedPolicy::GlobalRandom { probability: 1.0 }, 7);
        assert!(random.should_fire(9, "recvfrom"));
        let never = DistributedController::new(DistributedPolicy::Never, 7);
        assert!(!never.should_fire(9, "recvfrom"));
        assert_eq!(never.consultations(), 1);
    }

    #[test]
    fn frame_spec_matching_rules() {
        use lfi_obj::ModuleKind;
        let exe = lfi_cc::Compiler::new("bind-lite", ModuleKind::Executable)
            .add_source(
                "bind/stats.c",
                r#"
                int stats_channel() {
                    return read(0, 0, 0);
                }
                int main() {
                    return stats_channel();
                }
                "#,
            )
            .compile()
            .expect("module compiles");
        let offset = exe.call_sites_of("read")[0];
        let line = exe.line_for_offset(offset).expect("line info").1;
        let image = lfi_vm::Loader::new().load(exe).expect("module loads");
        let module = image.executable();

        let by_offset = FrameSpec {
            module: Some("bind-lite".into()),
            offset: Some(offset),
            ..FrameSpec::default()
        };
        assert!(frame_matches(&by_offset, module, offset));
        let by_function = FrameSpec {
            function: Some("stats_channel".into()),
            ..FrameSpec::default()
        };
        assert!(frame_matches(&by_function, module, offset));
        let by_line = FrameSpec {
            file: Some("stats.c".into()),
            line: Some(line),
            ..FrameSpec::default()
        };
        assert!(frame_matches(&by_line, module, offset));
        let wrong = FrameSpec {
            module: Some("git-lite".into()),
            ..FrameSpec::default()
        };
        assert!(!frame_matches(&wrong, module, offset));
        let wrong_function = FrameSpec {
            function: Some("main".into()),
            ..FrameSpec::default()
        };
        assert!(!frame_matches(&wrong_function, module, offset));
        let wrong_line = FrameSpec {
            file: Some("stats.c".into()),
            line: Some(line + 1),
            ..FrameSpec::default()
        };
        assert!(!frame_matches(&wrong_line, module, offset));
    }
}
