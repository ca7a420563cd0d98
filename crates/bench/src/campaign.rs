//! The Table 1 bug hunt, rewired as a fault-space exploration campaign.
//!
//! The hand-rolled loop that used to live in `experiments::table1_bugs` is
//! now a thin layer over `lfi_campaign`: enumerate the fault space of the
//! evaluation targets, pick a search strategy, drain the queue on a worker
//! pool, and match the triaged crash records against the paper's known-bug
//! list.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use lfi_campaign::{
    Campaign, CampaignReport, CampaignState, ExecBackend, FaultSpace, JsonlSink, Lease,
    LeaseMergeError, LeaseOutcome, OutcomeKind, StandardExecutor,
};
use lfi_supervisor::{parse_strategy, SpaceSpec, TABLE1_TARGETS};
use lfi_targets::KNOWN_BUGS;

use crate::experiments::{FoundBug, Table1};

/// Campaign options for the Table 1 hunt.
#[derive(Debug, Clone)]
pub struct HuntOptions {
    /// Worker threads.
    pub jobs: usize,
    /// Strategy name (see [`parse_strategy`]).
    pub strategy: String,
    /// Base seed.
    pub seed: u64,
    /// Execution backend (fresh VM per unit, or snapshot-fork sessions).
    pub backend: ExecBackend,
    /// Which shard of the fault space to run, as `(index, count)`: the
    /// contiguous point range [`Lease::shard`] carves (`(0, 1)` for the
    /// whole hunt). Sibling processes run the other shards;
    /// [`table1_merge`] recombines their persisted states.
    pub shard: (usize, usize),
    /// Checkpoint path: the campaign state is persisted here after every
    /// batch and resumed from here when the file already exists.
    pub state: Option<PathBuf>,
    /// Stream every campaign event to this file as line-delimited JSON
    /// (one [`lfi_campaign::CampaignEvent`] per line, flushed per event)
    /// for live out-of-process consumers such as `campaign_status`.
    pub events_jsonl: Option<PathBuf>,
}

impl Default for HuntOptions {
    fn default() -> Self {
        HuntOptions {
            jobs: 1,
            strategy: "exhaustive".to_string(),
            seed: 7,
            backend: ExecBackend::Fresh,
            shard: (0, 1),
            state: None,
            events_jsonl: None,
        }
    }
}

/// The campaign-backed Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1Campaign {
    /// The matched known-bug table.
    pub table: Table1,
    /// The underlying campaign report (plan size, triage, records). For a
    /// sharded hunt this covers only the shard's slice; for
    /// [`table1_merge`] it is the recombined whole.
    pub report: CampaignReport,
    /// The fault-point range that produced the report (the whole space
    /// for unsharded hunts and merged results).
    pub lease: Lease,
    /// The checkpoint tag the hunt ran under
    /// (`fingerprint@plan-hash%start..end`; the shared plan tag, without a
    /// range suffix, for merged results). Callers use it to tell a genuine
    /// resume from a checkpoint the engine discarded as mismatched.
    pub tag: String,
}

/// Enumerate the Table 1 fault space ([`SpaceSpec::table1`]): every call
/// site of every profiled failing function of the single-process targets,
/// plus the cluster target restricted to its harness functions —
/// annotated with analyzer classifications and baseline reachability
/// under `seed`.
pub fn table1_fault_space(executor: &StandardExecutor, seed: u64) -> FaultSpace {
    SpaceSpec {
        baseline_seed: seed,
        ..SpaceSpec::table1()
    }
    .build(executor)
}

/// Run the Table 1 bug hunt as a campaign (or one shard of it).
///
/// # Panics
///
/// Panics when `options.shard` is not a valid `(index, count)` pair or
/// `options.strategy` is not a strategy name — parse user input with
/// [`lfi_campaign::parse_shard`] and [`parse_strategy`] first.
pub fn table1_campaign(options: &HuntOptions) -> Table1Campaign {
    let strategy = parse_strategy(&options.strategy, options.seed)
        .unwrap_or_else(|err| panic!("invalid Table 1 strategy: {err}"));
    // Only the four hunted targets are loaded; httpd-lite stays cold.
    let executor = StandardExecutor::new(&TABLE1_TARGETS);
    let space = table1_fault_space(&executor, options.seed);
    let (index, count) = options.shard;
    let lease = Lease::shard(index, count, space.len())
        .unwrap_or_else(|err| panic!("invalid Table 1 shard: {err}"));
    let events = options.events_jsonl.as_ref().map(|path| {
        JsonlSink::create(path)
            .unwrap_or_else(|err| panic!("create event stream {}: {err}", path.display()))
    });
    let mut builder = Campaign::builder(space, &executor)
        .boxed_strategy(strategy)
        .jobs(options.jobs)
        .seed(options.seed)
        .backend(options.backend)
        .lease(lease);
    if let Some(path) = &options.state {
        builder = builder.checkpoint(path);
    }
    if let Some(sink) = &events {
        builder = builder.events(sink);
    }
    let outcome = builder.build().run_to_completion();
    if let Some(err) = events.as_ref().and_then(JsonlSink::take_error) {
        eprintln!("warning: event stream truncated: {err}");
    }
    Table1Campaign {
        table: match_known_bugs(&outcome.report),
        lease,
        tag: outcome.tag,
        report: outcome.report,
    }
}

/// Merge the persisted states of a complete shard set back into one Table 1
/// result — the `table1_bugs merge` step. The states' ranges must tile the
/// Table 1 space of one hunt (same strategy, seed, and fault space), so a
/// missing shard is reported as the gap it leaves; the merged records and
/// triage are identical to the equivalent unsharded hunt's, so the
/// known-bug matching sees exactly what a single process would.
pub fn table1_merge(states: &[CampaignState]) -> Result<Table1Campaign, LeaseMergeError> {
    let outcomes = states
        .iter()
        .map(LeaseOutcome::from_state)
        .collect::<Result<Vec<_>, _>>()?;
    let tag = outcomes
        .first()
        .map(|outcome| outcome.plan_tag().to_string())
        .unwrap_or_default();
    let points = SpaceSpec::table1()
        .enumerate(&StandardExecutor::new(&TABLE1_TARGETS))
        .len();
    let report = CampaignReport::merge_leases(outcomes, points)?;
    Ok(Table1Campaign {
        table: match_known_bugs(&report),
        lease: Lease::full(points),
        tag,
        report,
    })
}

/// Match a campaign's records against the paper's known-bug list, exactly
/// like the original Table 1 accounting: crashes are attributed to
/// `(injected function, caller)` pairs, distinct call-site offsets claim
/// distinct bugs, and the Git data-loss bug is detected from a passing
/// commit run that absorbed a setenv injection.
pub fn match_known_bugs(report: &CampaignReport) -> Table1 {
    let mut crash_sites: BTreeMap<(String, String), BTreeSet<u64>> = BTreeMap::new();
    let mut data_loss_found = false;

    for record in &report.records {
        if record.target == "bft-lite" {
            // Attribute each cluster crash to every function on the failure
            // path: the one containing the faulting instruction plus the
            // backtrace frames.
            for crash in &record.crashes {
                let mut involved: BTreeSet<String> = crash.backtrace.iter().cloned().collect();
                if let Some(function) = &crash.in_function {
                    involved.insert(function.clone());
                }
                for caller in involved {
                    crash_sites
                        .entry((record.function.clone(), caller))
                        .or_default()
                        .insert(record.offset);
                }
            }
            continue;
        }

        // The Git data-loss bug: the commit succeeds but the record lacks
        // its author after a failed (injected) setenv.
        if record.target == "git-lite"
            && record.function == "setenv"
            && record.args.first().map(String::as_str) == Some("commit")
            && record.injections > 0
            && record.outcome == OutcomeKind::Passed
        {
            data_loss_found = true;
        }

        if !record.outcome.is_crash() {
            continue;
        }
        let fallback = record
            .crashes
            .first()
            .and_then(|c| c.backtrace.first().cloned())
            .unwrap_or_default();
        for site in &record.injected_sites {
            let caller = site.caller.clone().unwrap_or_else(|| fallback.clone());
            crash_sites
                .entry((record.function.clone(), caller))
                .or_default()
                .insert(site.offset);
        }
    }

    let mut result = Table1 {
        runs: report.records.len(),
        ..Table1::default()
    };
    let mut claimed: BTreeMap<(String, String), usize> = BTreeMap::new();
    for bug in KNOWN_BUGS {
        if !bug.crashes {
            if data_loss_found {
                result.found.push(FoundBug {
                    id: bug.id.to_string(),
                    system: bug.system.to_string(),
                    injected_function: bug.injected_function.to_string(),
                    caller: bug.manifests_in.to_string(),
                    manifestation: "silent data loss (commit without author)".to_string(),
                });
            } else {
                result.missed.push(bug.id.to_string());
            }
            continue;
        }
        let key = (
            bug.injected_function.to_string(),
            bug.manifests_in.to_string(),
        );
        let available = crash_sites.get(&key).map(|s| s.len()).unwrap_or(0);
        let used = claimed.entry(key.clone()).or_insert(0);
        if *used < available {
            *used += 1;
            result.found.push(FoundBug {
                id: bug.id.to_string(),
                system: bug.system.to_string(),
                injected_function: bug.injected_function.to_string(),
                caller: bug.manifests_in.to_string(),
                manifestation: "crash".to_string(),
            });
        } else {
            result.missed.push(bug.id.to_string());
        }
    }
    result
}
