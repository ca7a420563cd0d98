//! Ground truth for the call-site analysis accuracy experiment (Table 4).
//!
//! The paper manually inspected the source of BIND, Git and PBFT to decide,
//! for each call site, whether its error return really is checked. Because we
//! author the `*-lite` targets, the ground truth is known by construction:
//! for every (program, library function) pair in Table 4 we list which
//! *caller functions* contain call sites that check the error return and
//! which do not.

/// Ground truth for one (program, library function) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// Target program name.
    pub program: &'static str,
    /// Library function whose call sites are listed.
    pub function: &'static str,
    /// Caller functions whose call sites check the error return.
    pub checking_callers: &'static [&'static str],
    /// Caller functions whose call sites do not check the error return.
    pub unchecked_callers: &'static [&'static str],
}

/// The ground truth backing the Table 4 reproduction. The rows mirror the
/// paper's (BIND: malloc/unlink/open/close, Git: malloc/close/readlink,
/// PBFT: fopen), adapted to the `*-lite` sources.
pub fn ground_truth() -> Vec<GroundTruth> {
    vec![
        GroundTruth {
            program: "bind-lite",
            function: "malloc",
            checking_callers: &["dst_lib_init"],
            unchecked_callers: &[],
        },
        GroundTruth {
            program: "bind-lite",
            function: "unlink",
            checking_callers: &["cleanup_journal"],
            unchecked_callers: &[],
        },
        GroundTruth {
            program: "bind-lite",
            function: "open",
            checking_callers: &["load_zone", "write_dump"],
            unchecked_callers: &[],
        },
        GroundTruth {
            program: "bind-lite",
            function: "close",
            checking_callers: &["load_zone"],
            unchecked_callers: &["write_dump"],
        },
        GroundTruth {
            program: "git-lite",
            function: "malloc",
            checking_callers: &[],
            unchecked_callers: &["xdl_merge", "xdl_patience"],
        },
        GroundTruth {
            program: "git-lite",
            function: "close",
            checking_callers: &["cmd_add"],
            unchecked_callers: &["write_object", "run_commit_hook"],
        },
        GroundTruth {
            program: "git-lite",
            function: "readlink",
            checking_callers: &["cmd_check_head"],
            unchecked_callers: &[],
        },
        GroundTruth {
            program: "bft-lite",
            function: "fopen",
            checking_callers: &[],
            unchecked_callers: &["write_checkpoint"],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_matches_the_papers_function_rows() {
        let rows = ground_truth();
        assert_eq!(rows.len(), 8);
        let bind_rows: Vec<_> = rows.iter().filter(|r| r.program == "bind-lite").collect();
        assert_eq!(bind_rows.len(), 4);
        assert!(rows
            .iter()
            .any(|r| r.program == "bft-lite" && r.function == "fopen"));
    }

    #[test]
    fn every_listed_caller_exists_in_the_target_binary() {
        for row in ground_truth() {
            let module = crate::all_targets()
                .into_iter()
                .find(|(name, _)| *name == row.program)
                .map(|(_, m)| m)
                .expect("program exists");
            for caller in row.checking_callers.iter().chain(row.unchecked_callers) {
                assert!(
                    module.func_export(caller).is_some(),
                    "{}: caller `{caller}` not found",
                    row.program
                );
            }
        }
    }
}
