//! The LFI controller: test orchestration.
//!
//! The controller owns the shared libraries of the system under test, builds
//! the interposition image for a scenario, runs a developer-provided workload
//! against it, monitors how the process terminates, and collects the
//! injection log, output, coverage and statistics into a [`TestReport`] —
//! the artifact developers use to diagnose and fix the exposed bugs (§2).

use std::fmt;
use std::sync::Arc;

use lfi_analyzer::{
    analyze_program, propagation_reports, AnalysisConfig, CallSiteReport, PropagationReport,
};
use lfi_obj::Module;
use lfi_profiler::{profile_library, FaultProfile};
use lfi_vm::{
    Coverage, ExecStats, Fault, Image, LoadError, Loader, Machine, NetHandle, ProcessConfig,
    RunExit,
};

use crate::runtime::{InjectionEngine, InjectionLog, PauseAtCall};
use crate::scenario::Scenario;
use crate::triggers::{TriggerBuildError, TriggerRegistry};

/// How a test run ended, from the tester's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestOutcome {
    /// The program terminated normally with exit code 0.
    Passed,
    /// The program terminated normally with a non-zero exit code — it noticed
    /// the fault and failed cleanly.
    CleanFailure(i64),
    /// The program crashed (segmentation fault, abort, double unlock, ...):
    /// a recovery bug candidate.
    Crashed(String),
    /// The run did not finish within its instruction budget, or every thread
    /// blocked (a hang candidate).
    Hung,
}

impl TestOutcome {
    /// Whether this outcome indicates a crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, TestOutcome::Crashed(_))
    }
}

/// A completed test run.
#[derive(Debug)]
pub struct TestReport {
    /// Raw VM exit.
    pub exit: RunExit,
    /// Interpreted outcome.
    pub outcome: TestOutcome,
    /// The crash details, when the run crashed.
    pub fault: Option<Fault>,
    /// Everything the program printed.
    pub output: String,
    /// The injection log.
    pub injections: InjectionLog,
    /// Virtual time consumed.
    pub virtual_time: u64,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Line coverage (empty unless requested in the config).
    pub coverage: Coverage,
}

/// Test-run configuration.
#[derive(Debug, Clone)]
pub struct TestConfig {
    /// Instruction budget for the run.
    pub max_instructions: u64,
    /// Whether to record line coverage.
    pub record_coverage: bool,
    /// RNG seed for the process under test.
    pub seed: u64,
    /// Program arguments.
    pub args: Vec<String>,
    /// Evaluate triggers but never inject (overhead measurements).
    pub observe_only: bool,
}

impl Default for TestConfig {
    fn default() -> Self {
        TestConfig {
            max_instructions: 200_000_000,
            record_coverage: false,
            seed: 1,
            args: Vec::new(),
            observe_only: false,
        }
    }
}

/// A test workload: prepares the environment (filesystem, network,
/// queued stimulus) before the program runs to completion.
pub trait Workload {
    /// Prepare the machine (populate the filesystem, attach a network, ...).
    fn setup(&mut self, _machine: &mut Machine) {}
}

/// A workload that does nothing beyond running the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunToCompletion;

impl Workload for RunToCompletion {}

/// The result of [`Controller::prepare_session`]: a workload paused at its
/// first injectable library call (or run to its terminal state when it
/// never makes one). Snapshot `machine` to fork per-scenario runs from it.
#[derive(Debug)]
pub struct SessionPrep {
    /// The machine, paused before an injectable call — or finished.
    pub machine: Machine,
    /// The function whose call paused the run, if the run paused.
    pub paused_at: Option<String>,
    /// How the prefix stopped ([`RunExit::Paused`] in the common case).
    pub prefix_exit: RunExit,
    /// Instructions consumed by the shared prefix (forks subtract this from
    /// the per-run budget so budget exhaustion behaves like a fresh run).
    pub instructions_used: u64,
}

impl SessionPrep {
    /// The instruction budget left for forks of this prefix, or `None`
    /// when the prefix must not back a session at all:
    ///
    /// * it ended abnormally — [`RunExit::Fault`], [`RunExit::Blocked`] or
    ///   [`RunExit::Budget`] — so every fork would just replay the broken
    ///   terminal state instead of a real injection run; or
    /// * it consumed the entire instruction budget, so every fork would
    ///   instantly exit [`RunExit::Budget`] and triage as hung.
    ///
    /// Callers should fall back to fresh execution on `None`, exactly like
    /// the randomness-consuming-prefix refusal.
    pub fn fork_budget(&self, max_instructions: u64) -> Option<u64> {
        match self.prefix_exit {
            RunExit::Fault(_) | RunExit::Blocked | RunExit::Budget => return None,
            RunExit::Paused | RunExit::Exited(_) => {}
        }
        let left = max_instructions.saturating_sub(self.instructions_used);
        if left == 0 {
            return None;
        }
        Some(left)
    }
}

/// Controller errors.
#[derive(Debug)]
pub enum ControllerError {
    /// A trigger class in the scenario could not be built.
    Trigger(TriggerBuildError),
    /// The program image failed to load.
    Load(LoadError),
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::Trigger(e) => write!(f, "{e}"),
            ControllerError::Load(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ControllerError {}

impl From<TriggerBuildError> for ControllerError {
    fn from(e: TriggerBuildError) -> Self {
        ControllerError::Trigger(e)
    }
}

impl From<LoadError> for ControllerError {
    fn from(e: LoadError) -> Self {
        ControllerError::Load(e)
    }
}

/// The LFI controller.
#[derive(Debug, Default)]
pub struct Controller {
    libraries: Vec<Module>,
    registry: TriggerRegistry,
    net: Option<NetHandle>,
}

impl Controller {
    /// Create a controller with the stock trigger registry and no libraries.
    pub fn new() -> Controller {
        Controller::default()
    }

    /// Register a shared library of the system under test.
    pub fn add_library(&mut self, library: Module) -> &mut Self {
        self.libraries.push(library);
        self
    }

    /// The registered shared libraries, in registration order.
    pub fn libraries(&self) -> &[Module] {
        &self.libraries
    }

    /// Access the trigger registry (e.g. to register custom trigger classes).
    pub fn registry_mut(&mut self) -> &mut TriggerRegistry {
        &mut self.registry
    }

    /// Attach a shared network that every test process will join.
    pub fn attach_net(&mut self, net: NetHandle) -> &mut Self {
        self.net = Some(net);
        self
    }

    /// Merge the fault profiles of every registered library.
    pub fn profile_libraries(&self) -> FaultProfile {
        let mut merged = FaultProfile::default();
        for library in &self.libraries {
            let profile = profile_library(library);
            if merged.library.is_empty() {
                merged.library = profile.library.clone();
            }
            merged.merge(&profile);
        }
        merged
    }

    /// Run the call-site analyzer on a target executable against the
    /// registered libraries' fault profiles.
    pub fn analyze(&self, exe: &Module) -> Vec<CallSiteReport> {
        analyze_program(exe, &self.profile_libraries(), AnalysisConfig::default())
    }

    /// Run the interprocedural error-propagation pass over `exe`'s call-site
    /// reports, resolving each site's verdict against the call graph of the
    /// executable and every registered library (so the wrapper pattern is
    /// judged by what the wrapper's callers do, not by the wrapper alone).
    pub fn analyze_propagation(
        &self,
        exe: &Module,
        reports: &[CallSiteReport],
    ) -> Vec<PropagationReport> {
        let mut modules: Vec<&Module> = Vec::with_capacity(self.libraries.len() + 1);
        modules.push(exe);
        modules.extend(self.libraries.iter());
        propagation_reports(&modules, reports, AnalysisConfig::default())
    }

    /// Generate an injection scenario for all unchecked call sites of the
    /// executable, exactly like the analyzer-driven workflow of §5/§7.1.
    pub fn generate_scenario(&self, exe: &Module, include_partial: bool) -> Scenario {
        let profile = self.profile_libraries();
        let reports = analyze_program(exe, &profile, AnalysisConfig::default());
        Scenario::from_reports(&reports, &profile, include_partial)
    }

    /// Load `exe` against the registered libraries with the given function
    /// names interposed, independent of any scenario. The returned image is
    /// immutable and shareable: session executors cache it per target so the
    /// loader's layout and predecoding work is paid once, not once per run.
    pub fn build_image(
        &self,
        exe: &Module,
        interpose: &[String],
    ) -> Result<Arc<Image>, ControllerError> {
        let mut loader = Loader::new();
        for library in &self.libraries {
            loader.add_library(library.clone());
        }
        loader.interpose_all(interpose.iter().cloned());
        Ok(Arc::new(loader.load(exe.clone())?))
    }

    fn machine_from_image(&self, image: Arc<Image>, config: &TestConfig) -> Machine {
        let mut machine = Machine::from_image(
            image,
            ProcessConfig {
                seed: config.seed,
                args: config.args.clone(),
                record_coverage: config.record_coverage,
                ..ProcessConfig::default()
            },
        );
        if let Some(net) = &self.net {
            machine.attach_net(net.clone());
        }
        machine
    }

    /// Run a workload up to its first call to any of `functions` and return
    /// the paused machine — the shared prefix of a session.
    ///
    /// The image must interpose (at least) `functions`; the workload's
    /// `setup` runs, then the program executes under a
    /// [`PauseAtCall::at_first`] handler that forwards every interception
    /// until one of the pause functions is called. The machine stops with
    /// the program counter still on that call, so a snapshot taken from the
    /// result can be resumed under any [`InjectionEngine`], which then sees
    /// the very same call as its first interception. When the workload
    /// never calls a pause function, the machine simply runs to its
    /// terminal state (and forks of it return that state immediately).
    pub fn prepare_session(
        &self,
        image: Arc<Image>,
        functions: &[String],
        workload: &mut dyn Workload,
        config: &TestConfig,
    ) -> SessionPrep {
        let mut machine = self.machine_from_image(image, config);
        workload.setup(&mut machine);
        let mut pause = PauseAtCall::at_first(functions.iter().cloned());
        let prefix_exit = machine.run(&mut pause, config.max_instructions);
        SessionPrep {
            instructions_used: machine.stats.instructions,
            machine,
            paused_at: pause.paused_at,
            prefix_exit,
        }
    }

    /// Run one test: compile the scenario (a trigger that fails to build is
    /// an error before anything loads), load the program with the
    /// scenario's interpositions, run the workload, and collect the report.
    pub fn run_test(
        &self,
        exe: &Module,
        scenario: &Scenario,
        workload: &mut dyn Workload,
        config: &TestConfig,
    ) -> Result<TestReport, ControllerError> {
        let mut engine = InjectionEngine::with_registry(scenario, &self.registry)?;
        engine.observe_only = config.observe_only;
        let image = self.build_image(exe, &engine.interposed_functions())?;
        let mut machine = self.machine_from_image(image, config);
        workload.setup(&mut machine);
        let exit = machine.run(&mut engine, config.max_instructions);
        let (outcome, fault) = match &exit {
            RunExit::Exited(0) => (TestOutcome::Passed, None),
            RunExit::Exited(code) => (TestOutcome::CleanFailure(*code), None),
            RunExit::Fault(fault) => (TestOutcome::Crashed(fault.to_string()), Some(fault.clone())),
            // `Paused` can only come from a pause handler, which a scenario
            // engine never is; were it to happen, it is a hang, not a pass.
            RunExit::Blocked | RunExit::Budget | RunExit::Paused => (TestOutcome::Hung, None),
        };
        Ok(TestReport {
            exit,
            outcome,
            fault,
            output: machine.output_string(),
            injections: engine.log,
            virtual_time: machine.clock(),
            stats: machine.stats,
            coverage: machine.coverage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification_helpers() {
        assert!(TestOutcome::Crashed("segfault".into()).is_crash());
        assert!(!TestOutcome::Passed.is_crash());
        assert!(!TestOutcome::CleanFailure(2).is_crash());
    }

    #[test]
    fn empty_scenario_runs_report_trigger_errors_eagerly() {
        // A scenario referencing an unknown trigger class fails in
        // `run_test` before the program loads or runs.
        let controller = Controller::new();
        let scenario = Scenario::parse_xml(
            r#"<trigger id="t" class="DoesNotExist" />
               <function name="read" return="-1" errno="EIO"><reftrigger ref="t" /></function>"#,
        )
        .unwrap();
        let exe = Module::new("app", lfi_obj::ModuleKind::Executable);
        let err = controller
            .run_test(
                &exe,
                &scenario,
                &mut RunToCompletion,
                &TestConfig::default(),
            )
            .expect_err("must fail");
        assert!(matches!(err, ControllerError::Trigger(_)));
    }
}
