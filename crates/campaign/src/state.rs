//! Resumable campaign state, persisted as JSON.
//!
//! Long campaigns survive interruption by checkpointing every completed run
//! record. A resumed campaign skips completed units and re-triages the full
//! record set, so killing a sweep halfway loses only in-flight units. The
//! state is tagged `fingerprint@plan-hash%start..end` — the strategy
//! *fingerprint* (name plus any schedule-affecting parameters, e.g. a
//! sample size and seed) combined with the engine's plan hash over full
//! fault-point identity (error cases and annotations included) and every
//! target's workload suite, and the run's [`Lease`](crate::lease::Lease)
//! range — plus the campaign seed. Adopting a state recorded under a
//! different tag or seed discards it, because unit ids are only
//! meaningful within one plan and a record set is one range's slice of
//! it: a checkpoint taken under one annotation set, test suite, or range
//! must start fresh rather than attribute records to the wrong units (or
//! hand one range's records to another).

use std::collections::BTreeSet;

use lfi_json::{JsonError, Value};

use crate::engine::{CrashInfo, InjectedSite, OutcomeKind, RunRecord};

/// The persistent state of one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignState {
    strategy: String,
    seed: u64,
    records: Vec<RunRecord>,
    completed: BTreeSet<usize>,
    /// Whether the run that last wrote this state finished its whole
    /// schedule. Mid-run (per-batch) checkpoints persist `false`; the
    /// engine seals the state `true` only when the strategy had nothing
    /// left to schedule — so a merge step can tell a finished lease from
    /// an interrupted one.
    complete: bool,
}

impl CampaignState {
    /// Bind this state to a `(state tag, seed)` pair, where the tag is the
    /// engine's `fingerprint@plan-hash`. If the state was recorded under a
    /// different pair its records are discarded — their unit ids would not
    /// line up with the new plan.
    pub fn adopt(&mut self, tag: &str, seed: u64) {
        if self.strategy != tag || self.seed != seed {
            self.records.clear();
            self.completed.clear();
            self.strategy = tag.to_string();
            self.seed = seed;
        }
        // Whatever the state's history, the run now starting is not
        // finished: mid-run checkpoints must read as incomplete until the
        // engine seals the schedule again.
        self.complete = false;
    }

    /// Whether the run that last wrote this state finished its whole
    /// schedule (false for mid-run checkpoints of an interrupted run).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Seal the state: the schedule is drained. Called by the engine when
    /// the strategy has nothing left to dispatch.
    pub(crate) fn mark_complete(&mut self) {
        self.complete = true;
    }

    /// The `fingerprint@plan-hash%start..end` tag this state is bound to (empty
    /// until first adopted).
    pub fn tag(&self) -> &str {
        &self.strategy
    }

    /// The campaign seed this state was recorded under (0 until first
    /// adopted).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether a unit has already been executed.
    pub fn completed(&self, unit: usize) -> bool {
        self.completed.contains(&unit)
    }

    /// Record one completed unit.
    pub fn push(&mut self, record: RunRecord) {
        if self.completed.insert(record.unit) {
            self.records.push(record);
            self.records.sort_by_key(|r| r.unit);
        }
    }

    /// All records, ordered by unit id.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        Value::Obj(vec![
            ("strategy".to_string(), Value::Str(self.strategy.clone())),
            ("seed".to_string(), Value::Int(self.seed as i64)),
            ("complete".to_string(), Value::Bool(self.complete)),
            (
                "records".to_string(),
                Value::Arr(self.records.iter().map(record_to_value).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Parse a state back from its JSON form.
    pub fn from_json(text: &str) -> Result<CampaignState, JsonError> {
        let doc = lfi_json::parse(text)?;
        let strategy = doc
            .get("strategy")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("missing string field `strategy`"))?
            .to_string();
        let seed = doc
            .get("seed")
            .and_then(Value::as_int)
            .ok_or_else(|| invalid("missing integer field `seed`"))? as u64;
        let Some(Value::Arr(items)) = doc.get("records") else {
            return Err(invalid("missing array field `records`"));
        };
        let mut state = CampaignState {
            strategy,
            seed,
            // States written before completion tracking existed read as
            // incomplete — their tags predate lease ranges anyway.
            complete: doc
                .get("complete")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            ..CampaignState::default()
        };
        for item in items {
            state.push(record_from_value(item)?);
        }
        Ok(state)
    }
}

pub(crate) fn invalid(message: impl Into<String>) -> JsonError {
    JsonError {
        position: 0,
        message: message.into(),
    }
}

pub(crate) fn str_field(value: &Value, key: &str) -> Result<String, JsonError> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| invalid(format!("missing string field `{key}`")))
}

pub(crate) fn int_field(value: &Value, key: &str) -> Result<i64, JsonError> {
    value
        .get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| invalid(format!("missing integer field `{key}`")))
}

pub(crate) fn opt_str_field(value: &Value, key: &str) -> Option<String> {
    value.get(key).and_then(Value::as_str).map(str::to_string)
}

pub(crate) fn str_list(value: &Value, key: &str) -> Vec<String> {
    value
        .get(key)
        .and_then(Value::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

pub(crate) fn outcome_to_value(outcome: &OutcomeKind) -> Value {
    match outcome {
        OutcomeKind::Passed => Value::Str("passed".into()),
        OutcomeKind::CleanFailure(code) => Value::Obj(vec![
            ("kind".to_string(), Value::Str("clean_failure".into())),
            ("code".to_string(), Value::Int(*code)),
        ]),
        OutcomeKind::Crashed => Value::Str("crashed".into()),
        OutcomeKind::Hung => Value::Str("hung".into()),
    }
}

pub(crate) fn outcome_from_value(value: &Value) -> Result<OutcomeKind, JsonError> {
    match value {
        Value::Str(s) => match s.as_str() {
            "passed" => Ok(OutcomeKind::Passed),
            "crashed" => Ok(OutcomeKind::Crashed),
            "hung" => Ok(OutcomeKind::Hung),
            other => Err(invalid(format!("unknown outcome `{other}`"))),
        },
        obj @ Value::Obj(_) => Ok(OutcomeKind::CleanFailure(int_field(obj, "code")?)),
        _ => Err(invalid("malformed outcome")),
    }
}

pub(crate) fn record_to_value(record: &RunRecord) -> Value {
    Value::Obj(vec![
        ("unit".to_string(), Value::Int(record.unit as i64)),
        ("target".to_string(), Value::Str(record.target.clone())),
        ("function".to_string(), Value::Str(record.function.clone())),
        ("offset".to_string(), Value::Int(record.offset as i64)),
        (
            "args".to_string(),
            Value::Arr(record.args.iter().cloned().map(Value::Str).collect()),
        ),
        ("outcome".to_string(), outcome_to_value(&record.outcome)),
        (
            "injections".to_string(),
            Value::Int(record.injections as i64),
        ),
        (
            "injected_sites".to_string(),
            Value::Arr(
                record
                    .injected_sites
                    .iter()
                    .map(|site| {
                        Value::Obj(vec![
                            ("module".to_string(), Value::Str(site.module.clone())),
                            ("offset".to_string(), Value::Int(site.offset as i64)),
                            (
                                "caller".to_string(),
                                site.caller.clone().map_or(Value::Null, Value::Str),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "crashes".to_string(),
            Value::Arr(
                record
                    .crashes
                    .iter()
                    .map(|crash| {
                        Value::Obj(vec![
                            ("module".to_string(), Value::Str(crash.module.clone())),
                            ("offset".to_string(), Value::Int(crash.offset as i64)),
                            (
                                "description".to_string(),
                                Value::Str(crash.description.clone()),
                            ),
                            (
                                "in_function".to_string(),
                                crash.in_function.clone().map_or(Value::Null, Value::Str),
                            ),
                            (
                                "backtrace".to_string(),
                                Value::Arr(
                                    crash.backtrace.iter().cloned().map(Value::Str).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "virtual_time".to_string(),
            Value::Int(record.virtual_time as i64),
        ),
    ])
}

pub(crate) fn record_from_value(value: &Value) -> Result<RunRecord, JsonError> {
    let injected_sites = value
        .get("injected_sites")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|site| {
            Ok(InjectedSite {
                module: str_field(site, "module")?,
                offset: int_field(site, "offset")? as u64,
                caller: opt_str_field(site, "caller"),
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let crashes = value
        .get("crashes")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|crash| {
            Ok(CrashInfo {
                module: str_field(crash, "module")?,
                offset: int_field(crash, "offset")? as u64,
                description: str_field(crash, "description")?,
                in_function: opt_str_field(crash, "in_function"),
                backtrace: str_list(crash, "backtrace"),
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    Ok(RunRecord {
        unit: int_field(value, "unit")? as usize,
        target: str_field(value, "target")?,
        function: str_field(value, "function")?,
        offset: int_field(value, "offset")? as u64,
        args: str_list(value, "args"),
        outcome: outcome_from_value(
            value
                .get("outcome")
                .ok_or_else(|| invalid("missing field `outcome`"))?,
        )?,
        injections: int_field(value, "injections")? as u64,
        injected_sites,
        crashes,
        virtual_time: int_field(value, "virtual_time")? as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(unit: usize) -> RunRecord {
        RunRecord {
            unit,
            target: "demo".into(),
            function: "read".into(),
            offset: 0x40,
            args: vec!["commit".into(), "x".into()],
            outcome: OutcomeKind::CleanFailure(2),
            injections: 3,
            injected_sites: vec![InjectedSite {
                module: "demo".into(),
                offset: 0x40,
                caller: Some("main".into()),
            }],
            crashes: vec![CrashInfo {
                module: "demo".into(),
                offset: 0x99,
                description: "segfault".into(),
                in_function: None,
                backtrace: vec!["victim".into(), "main".into()],
            }],
            virtual_time: 1234,
        }
    }

    #[test]
    fn state_roundtrips_through_json() {
        let mut state = CampaignState::default();
        state.adopt("guided", 7);
        state.push(sample_record(0));
        state.push(sample_record(2));
        let back = CampaignState::from_json(&state.to_json()).unwrap();
        assert_eq!(back, state);
        assert!(back.completed(0));
        assert!(back.completed(2));
        assert!(!back.completed(1));
    }

    #[test]
    fn adopting_a_different_plan_discards_stale_records() {
        let mut state = CampaignState::default();
        state.adopt("guided", 7);
        state.push(sample_record(0));
        state.adopt("guided", 7);
        assert_eq!(state.records().len(), 1, "same plan keeps records");
        state.adopt("exhaustive", 7);
        assert!(state.records().is_empty(), "new strategy resets state");
        state.push(sample_record(1));
        state.adopt("exhaustive", 8);
        assert!(state.records().is_empty(), "new seed resets state");
    }

    #[test]
    fn duplicate_unit_records_are_ignored() {
        let mut state = CampaignState::default();
        state.push(sample_record(5));
        state.push(sample_record(5));
        assert_eq!(state.records().len(), 1);
    }
}
