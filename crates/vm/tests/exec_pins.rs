//! Semantic pins for the interpreter's hot path.
//!
//! Each test runs a real target to completion and compares the exact
//! instruction/call counts, virtual clock and architectural state
//! fingerprint against constants. The constants were captured from the
//! byte-at-a-time memory and clone-per-call interpreter; any change to the
//! fast path that alters guest-visible behaviour — a byte written or not
//! written before a fault, a missed errno store, a different code lookup —
//! moves at least one of them. Never re-capture them to make a
//! performance change pass.

use std::sync::Arc;

use lfi_arch::errno;
use lfi_core::{TestConfig, Workload};
use lfi_targets::{
    bind_lite, run_bft_cluster, standard_controller, BftClusterConfig, BindWorkload,
};
use lfi_vm::{
    CallContext, ExecStats, HookAction, HookHandler, Image, Machine, NetHandle, NoHooks,
    ProcessConfig, RunExit,
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
