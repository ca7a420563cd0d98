//! Pins of the injection log on the hunt's largest injection unit.
//!
//! A lone bft-lite client whose `recvfrom` at offset 6600 (its only
//! receive) fails on every call retries 50 times per request, after 300
//! failed receives each: 4 requests make 60,000 injections at one call
//! site. An injected failure returns at once, so the client never reaches
//! its retransmission deadline. The constants were captured before the log
//! interned its sites. The clocks and the offset (with the source line and
//! the trigger id naming it) were re-captured once, when the cluster moved
//! from timeouts counted in polls to receive deadlines in virtual time.
//! Never re-capture them to make a change pass.

use lfi_core::{InjectionEngine, Scenario};
use lfi_vm::{Loader, Machine, NetHandle, ProcessConfig, RunExit, SimNet};

#[test]
fn every_recvfrom_of_a_lone_client_is_logged_at_one_site() {
    let scenario = Scenario::single_fault_point(
        "bft-lite",
        "recvfrom",
        6600,
        -1,
        Some(lfi_arch::errno::EAGAIN),
    );
    let mut engine = InjectionEngine::new(scenario).expect("scenario compiles");
    let mut loader = Loader::new();
    loader.add_library(lfi_libc::build());
    loader.interpose_all(engine.interposed_functions());
    let image = loader
        .load(lfi_targets::bft_lite())
        .expect("bft-lite loads");
    let mut machine = Machine::new(
        image,
        ProcessConfig {
            node_id: 99,
            seed: 1,
            args: vec!["client".into(), "4".into(), "63000".into()],
            ..ProcessConfig::default()
        },
    );
    machine.attach_net(NetHandle::new(SimNet::new(1)));
    lfi_targets::standard_fs_setup(&mut machine);

    // No request completes.
    assert_eq!(machine.run_to_completion(&mut engine), RunExit::Exited(0));
    assert_eq!(machine.clock(), 4_151_103);
    let log = &engine.log;
    assert_eq!(log.injection_count(), 60_000);
    assert_eq!(log.interceptions, 60_000);
    assert_eq!(log.trigger_evaluations, 60_000);

    let mut records = log.records();
    let first = records.next().expect("first record");
    let last = records.next_back().expect("last record");
    assert_eq!((first.call_count, first.clock), (1, 2_341));
    assert_eq!((last.call_count, last.clock), (60_000, 4_150_177));
    // Every record views the same interned site: the strings are shared,
    // not copied per injection.
    assert!(log.records().all(|r| {
        r.function.as_ptr() == first.function.as_ptr()
            && r.call_site.0.as_ptr() == first.call_site.0.as_ptr()
            && r.triggers.as_ptr() == first.triggers.as_ptr()
    }));
    assert_eq!(first.function, "recvfrom");
    assert_eq!(
        (first.retval, first.errno),
        (-1, Some(lfi_arch::errno::EAGAIN))
    );
    assert_eq!(first.call_site, ("bft-lite", 6600));
    assert_eq!(first.source, Some(("bft-lite.c", 120)));
    assert_eq!(first.triggers, ["recvfrom_19c8".to_string()]);
}
