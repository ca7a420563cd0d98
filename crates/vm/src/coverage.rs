//! Execution coverage accounting.
//!
//! The VM records which instruction offsets of which module have executed;
//! together with the modules' line tables this yields line coverage, the
//! measure Table 3 of the paper reports (via gcov/lcov there). The
//! recovery-code *classification* lives in the analyzer; this module only
//! counts what ran.

use std::collections::{BTreeMap, BTreeSet};

/// Coverage data for one process run (or accumulated over several runs).
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// For each module name, the set of executed instruction offsets.
    executed: BTreeMap<String, BTreeSet<u64>>,
}

impl Coverage {
    /// Create an empty coverage record.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Record that the instruction at `offset` of `module` executed.
    pub fn record(&mut self, module: &str, offset: u64) {
        // The common case is a re-execution of an already-seen offset; avoid
        // allocating the module key every time.
        if let Some(set) = self.executed.get_mut(module) {
            set.insert(offset);
        } else {
            self.executed
                .entry(module.to_string())
                .or_default()
                .insert(offset);
        }
    }

    /// Whether a particular offset of a module executed.
    pub fn offset_executed(&self, module: &str, offset: u64) -> bool {
        self.executed
            .get(module)
            .is_some_and(|set| set.contains(&offset))
    }

    /// Number of distinct instructions executed in a module.
    pub fn count(&self, module: &str) -> usize {
        self.executed.get(module).map_or(0, |s| s.len())
    }

    /// Names of all modules with at least one executed instruction.
    pub fn modules(&self) -> Vec<String> {
        self.executed.keys().cloned().collect()
    }

    /// Merge another coverage record into this one (e.g. accumulate a test
    /// suite made of many process runs, as the paper does for Table 3).
    pub fn merge(&mut self, other: &Coverage) {
        for (module, offsets) in &other.executed {
            self.executed
                .entry(module.clone())
                .or_default()
                .extend(offsets.iter().copied());
        }
    }

    /// A stable FNV-1a digest of the full coverage record (module names and
    /// executed offsets, in order). Used to assert snapshot/restore
    /// round-trips are byte-identical.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for byte in bytes {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (module, offsets) in &self.executed {
            mix(module.as_bytes());
            for offset in offsets {
                mix(&offset.to_le_bytes());
            }
            mix(&[0xff]);
        }
        hash
    }

    /// Translate offset coverage into line coverage for a module, given its
    /// line table. Returns the set of `(file, line)` pairs executed.
    pub fn covered_lines(&self, module: &lfi_obj::Module) -> BTreeSet<(String, u32)> {
        let mut lines = BTreeSet::new();
        if let Some(offsets) = self.executed.get(&module.name) {
            for &off in offsets {
                if let Some((file, line)) = module.line_for_offset(off) {
                    lines.insert((file.to_string(), line));
                }
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use lfi_arch::{Insn, Reg, INSN_SIZE};
    use lfi_obj::{Export, LineEntry, Module, ModuleKind, SymKind};

    use super::*;

    fn module_with_lines() -> Module {
        let mut m = Module::new("app", ModuleKind::Executable);
        for _ in 0..4 {
            m.code.extend_from_slice(
                &Insn::MovI {
                    dst: Reg::R(0),
                    imm: 0,
                }
                .encode(),
            );
        }
        m.code.extend_from_slice(&Insn::Ret.encode());
        m.exports.push(Export {
            name: "main".into(),
            kind: SymKind::Func,
            offset: 0,
            size: m.code.len() as u64,
        });
        m.files.push("app.c".into());
        m.line_table = vec![
            LineEntry {
                code_offset: 0,
                file: 0,
                line: 1,
            },
            LineEntry {
                code_offset: 2 * INSN_SIZE,
                file: 0,
                line: 2,
            },
            LineEntry {
                code_offset: 4 * INSN_SIZE,
                file: 0,
                line: 3,
            },
        ];
        m
    }

    #[test]
    fn records_and_counts_offsets() {
        let mut cov = Coverage::new();
        cov.record("app", 0);
        cov.record("app", 0);
        cov.record("app", 12);
        assert_eq!(cov.count("app"), 2);
        assert!(cov.offset_executed("app", 12));
        assert!(!cov.offset_executed("app", 24));
        assert_eq!(cov.count("other"), 0);
        assert_eq!(cov.modules(), vec!["app".to_string()]);
    }

    #[test]
    fn merge_accumulates_runs() {
        let mut a = Coverage::new();
        a.record("app", 0);
        let mut b = Coverage::new();
        b.record("app", 12);
        b.record("lib", 0);
        a.merge(&b);
        assert_eq!(a.count("app"), 2);
        assert_eq!(a.count("lib"), 1);
    }

    #[test]
    fn line_coverage_uses_the_line_table() {
        let module = module_with_lines();
        let mut cov = Coverage::new();
        cov.record("app", 0);
        cov.record("app", INSN_SIZE);
        cov.record("app", 2 * INSN_SIZE);
        let lines = cov.covered_lines(&module);
        assert!(lines.contains(&("app.c".to_string(), 1)));
        assert!(lines.contains(&("app.c".to_string(), 2)));
        assert!(!lines.contains(&("app.c".to_string(), 3)));
    }
}
