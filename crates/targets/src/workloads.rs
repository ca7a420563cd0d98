//! Workloads that drive the target applications.

use lfi_core::Workload;
use lfi_vm::{Datagram, Machine, NetHandle};

use crate::standard_fs_setup;

/// A workload that only prepares the standard filesystem layout and lets the
/// program run to completion (used for git-lite, db-lite and httpd-lite,
/// whose inputs arrive via program arguments and files).
#[derive(Debug, Default, Clone, Copy)]
pub struct FsSetupWorkload;

impl Workload for FsSetupWorkload {
    fn setup(&mut self, machine: &mut Machine) {
        standard_fs_setup(machine);
    }
}

/// Workload for `bind-lite`: prepares the filesystem and queues DNS queries
/// (and optionally a statistics request) on the server's socket before the
/// server starts, playing the role of the external clients.
#[derive(Debug, Clone)]
pub struct BindWorkload {
    /// Shared network the server is attached to.
    pub net: NetHandle,
    /// Keys to query.
    pub queries: Vec<i64>,
    /// Whether to also request the statistics channel (exercises the
    /// xmlNewTextWriterDoc-style bug site).
    pub include_stats: bool,
}

impl BindWorkload {
    /// A typical client session: three lookups plus a statistics request.
    pub fn typical(net: NetHandle) -> BindWorkload {
        BindWorkload {
            net,
            queries: vec![10, 11, 12],
            include_stats: true,
        }
    }

    /// Total number of requests this workload queues.
    pub fn request_count(&self) -> usize {
        self.queries.len() + usize::from(self.include_stats)
    }
}

impl Workload for BindWorkload {
    fn setup(&mut self, machine: &mut Machine) {
        standard_fs_setup(machine);
        let server_node = machine.node_id();
        // The harness plays the client: node 90, port 1000.
        self.net.bind(90, 1000);
        self.net.bind(server_node, 53);
        for key in &self.queries {
            self.net.send(Datagram {
                from_node: 90,
                from_port: 1000,
                to_node: server_node,
                to_port: 53,
                payload: key.to_string().into_bytes(),
                sent_at: 0,
            });
        }
        if self.include_stats {
            self.net.send(Datagram {
                from_node: 90,
                from_port: 1000,
                to_node: server_node,
                to_port: 53,
                payload: b"STATS".to_vec(),
                sent_at: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use lfi_core::{TestConfig, TestOutcome};

    use crate::{
        bind_lite, db_lite, git_lite, httpd_lite, networked_controller, standard_controller,
    };

    use super::*;

    #[test]
    fn bind_lite_serves_queries_without_injection() {
        let net = NetHandle::default();
        let controller = networked_controller(net.clone());
        let mut workload = BindWorkload::typical(net.clone());
        let config = TestConfig {
            args: vec![workload.request_count().to_string()],
            ..TestConfig::default()
        };
        let report = controller
            .run_test(
                &bind_lite(),
                &lfi_core::Scenario::new(),
                &mut workload,
                &config,
            )
            .expect("run");
        assert_eq!(report.outcome, TestOutcome::Passed, "{}", report.output);
        assert!(report.output.contains("served 3 queries"));
        // The client got its three answers plus the statistics blob.
        let mut replies = 0;
        while net.recv(90, 1000).is_some() {
            replies += 1;
        }
        assert_eq!(replies, 4);
    }

    #[test]
    fn git_lite_add_and_commit_work_without_injection() {
        let controller = standard_controller();
        for (args, expect_in_output) in [
            (vec!["init".to_string()], ""),
            (vec!["add".into(), "/repo/README.md".into()], ""),
            (vec!["commit".into(), "first".into()], "committed"),
            (vec!["log".into()], "objects:"),
            (vec!["diff".into(), "3".into(), "4".into()], "diff:"),
            (vec!["check-head".into()], ""),
        ] {
            let config = TestConfig {
                args: args.clone(),
                ..TestConfig::default()
            };
            let report = controller
                .run_test(
                    &git_lite(),
                    &lfi_core::Scenario::new(),
                    &mut FsSetupWorkload,
                    &config,
                )
                .expect("run");
            assert_eq!(
                report.outcome,
                TestOutcome::Passed,
                "git-lite {args:?}: {}",
                report.output
            );
            assert!(report.output.contains(expect_in_output));
        }
    }

    #[test]
    fn db_lite_oltp_and_merge_big_work_without_injection() {
        let controller = standard_controller();
        for args in [
            vec!["bootstrap".to_string()],
            vec!["oltp".into(), "20".into(), "1".into()],
            vec!["oltp".into(), "20".into(), "0".into()],
            vec!["merge-big".into(), "4".into()],
        ] {
            let config = TestConfig {
                args: args.clone(),
                ..TestConfig::default()
            };
            let report = controller
                .run_test(
                    &db_lite(),
                    &lfi_core::Scenario::new(),
                    &mut FsSetupWorkload,
                    &config,
                )
                .expect("run");
            assert_eq!(
                report.outcome,
                TestOutcome::Passed,
                "db-lite {args:?}: {}",
                report.output
            );
        }
    }

    #[test]
    fn httpd_lite_serves_static_and_php_workloads() {
        let controller = standard_controller();
        for kind in ["1", "2"] {
            let config = TestConfig {
                args: vec!["25".to_string(), kind.to_string()],
                ..TestConfig::default()
            };
            let report = controller
                .run_test(
                    &httpd_lite(),
                    &lfi_core::Scenario::new(),
                    &mut FsSetupWorkload,
                    &config,
                )
                .expect("run");
            assert_eq!(report.outcome, TestOutcome::Passed, "{}", report.output);
            assert!(report.output.contains("served 25 requests"));
        }
    }
}
