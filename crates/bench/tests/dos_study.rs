//! The §7.3 DoS study attacks the network, not the seeded startup bug:
//! the replicas' startup receive stays out of its scenario, so both
//! attack schedules keep injecting for the whole run and no replica
//! crashes.

use lfi_bench::dos_study;

#[test]
fn attack_schedules_inject_repeatedly_and_crash_no_replica() {
    let study = dos_study();
    let (baseline, attacks) = study.rows.split_first().expect("a baseline row");
    assert_eq!(baseline.injections, 0, "the baseline only intercepts");
    assert_eq!(baseline.crashes, 0);
    assert_eq!(attacks.len(), 2, "blackout and rotating bursts:\n{study}");
    for row in attacks {
        assert_eq!(
            row.crashes, 0,
            "`{}` crashed a replica:\n{study}",
            row.label
        );
        assert!(
            row.injections > 1,
            "`{}` injected {} faults:\n{study}",
            row.label,
            row.injections
        );
    }
}
