//! Metadata describing the seeded Table 1 defects, used by the experiment
//! harness to match observed crashes back to the paper's bug list.

/// One of the eleven previously-unknown bugs from Table 1, as seeded in the
/// corresponding `*-lite` target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownBug {
    /// Stable identifier used in reports (e.g. `bind-xml-writer`).
    pub id: &'static str,
    /// The system it lives in (paper column "System").
    pub system: &'static str,
    /// Paper description (abridged).
    pub description: &'static str,
    /// The library function whose injected failure exposes the bug.
    pub injected_function: &'static str,
    /// The target function in whose body the failure manifests (matched
    /// against crash backtraces / injection call sites).
    pub manifests_in: &'static str,
    /// Whether the bug manifests as a crash/abort (true) or as silent data
    /// loss detected by inspecting outputs (false).
    pub crashes: bool,
}

/// The eleven bugs of Table 1.
pub const KNOWN_BUGS: &[KnownBug] = &[
    KnownBug {
        id: "bind-xml-writer",
        system: "BIND",
        description: "Crash if the XML writer allocation (xmlNewTextWriterDoc analogue) fails while a user retrieves statistics over the network",
        injected_function: "xml_new_writer",
        manifests_in: "stats_channel",
        crashes: true,
    },
    KnownBug {
        id: "bind-dst-lib-init",
        system: "BIND",
        description: "Abort due to incorrectly handled malloc return value in dst_lib_init (recovery path trips an assertion)",
        injected_function: "malloc",
        manifests_in: "dst_lib_init",
        crashes: true,
    },
    KnownBug {
        id: "mysql-double-unlock",
        system: "MySQL",
        description: "Abort after a double mutex unlock, due to a failed close in mi_create's error handling",
        injected_function: "close",
        manifests_in: "mi_create",
        crashes: true,
    },
    KnownBug {
        id: "mysql-errmsg-read",
        system: "MySQL",
        description: "Crash due to a failed read (EIO) while processing errmsg.sys",
        injected_function: "read",
        manifests_in: "init_errmsg",
        crashes: true,
    },
    KnownBug {
        id: "git-setenv-env",
        system: "Git",
        description: "Data loss caused by running an external command with an incomplete environment, due to failed setenv",
        injected_function: "setenv",
        manifests_in: "cmd_commit",
        crashes: false,
    },
    KnownBug {
        id: "git-readdir-null",
        system: "Git",
        description: "Crash due to calling readdir with the NULL pointer returned by a previously failed opendir",
        injected_function: "opendir",
        manifests_in: "cmd_log",
        crashes: true,
    },
    KnownBug {
        id: "git-xmerge-567",
        system: "Git",
        description: "Crash due to unhandled malloc return value in xdiff/xmerge.c (first allocation)",
        injected_function: "malloc",
        manifests_in: "xdl_merge",
        crashes: true,
    },
    KnownBug {
        id: "git-xmerge-571",
        system: "Git",
        description: "Crash due to unhandled malloc return value in xdiff/xmerge.c (second allocation)",
        injected_function: "malloc",
        manifests_in: "xdl_merge",
        crashes: true,
    },
    KnownBug {
        id: "git-xpatience-191",
        system: "Git",
        description: "Crash due to unhandled malloc return value in xdiff/xpatience.c",
        injected_function: "malloc",
        manifests_in: "xdl_patience",
        crashes: true,
    },
    KnownBug {
        id: "pbft-recvfrom",
        system: "PBFT",
        description: "Crash caused by a failed recvfrom call",
        injected_function: "recvfrom",
        manifests_in: "replica_main",
        crashes: true,
    },
    KnownBug {
        id: "pbft-fopen-fwrite",
        system: "PBFT",
        description: "Crash due to calling fwrite with the NULL pointer returned by a previously failed fopen (checkpoint writer)",
        injected_function: "fopen",
        manifests_in: "write_checkpoint",
        crashes: true,
    },
];

/// Bugs belonging to one system.
pub fn bugs_for(system: &str) -> Vec<&'static KnownBug> {
    KNOWN_BUGS.iter().filter(|b| b.system == system).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_eleven_bugs_with_the_papers_distribution() {
        assert_eq!(KNOWN_BUGS.len(), 11);
        assert_eq!(bugs_for("BIND").len(), 2);
        assert_eq!(bugs_for("MySQL").len(), 2);
        assert_eq!(bugs_for("Git").len(), 5);
        assert_eq!(bugs_for("PBFT").len(), 2);
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<_> = KNOWN_BUGS.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), KNOWN_BUGS.len());
    }
}
