//! Every record of the exhaustive Table 1 hunt lists each injected call
//! site once, with a count, on both backends: the `(module, offset)` pairs
//! of a record are distinct and their counts add up to its injections.
//! That includes the bft-lite cluster units, whose sites come from the
//! nodes' injection logs.

use std::collections::BTreeSet;

use lfi_bench::{table1_campaign, HuntOptions};
use lfi_campaign::{ExecBackend, RunRecord};

fn hunt(backend: ExecBackend) -> Vec<RunRecord> {
    table1_campaign(&HuntOptions {
        jobs: 2,
        backend,
        ..HuntOptions::default()
    })
    .report
    .records
}

#[test]
fn hunt_records_list_each_injected_site_once_with_its_count() {
    let fresh = hunt(ExecBackend::Fresh);
    assert_eq!(fresh.len(), 285);
    for record in &fresh {
        let sites = &record.injected_sites;
        let distinct: BTreeSet<(&str, u64)> = sites
            .iter()
            .map(|site| (site.module.as_str(), site.offset))
            .collect();
        assert_eq!(
            distinct.len(),
            sites.len(),
            "unit {}: {sites:?}",
            record.unit
        );
        assert_eq!(
            sites.iter().map(|site| site.count).sum::<u64>(),
            record.injections,
            "unit {}: {sites:?}",
            record.unit
        );
        assert!(sites.iter().all(|site| site.count > 0));
    }
    let cluster_sites = fresh
        .iter()
        .filter(|record| record.target == "bft-lite")
        .map(|record| record.injected_sites.len())
        .sum::<usize>();
    assert!(cluster_sites > 0, "bft-lite units report their sites");
    assert_eq!(hunt(ExecBackend::Snapshot), fresh);
}
