//! Target applications for the LFI evaluation.
//!
//! The paper evaluates LFI on BIND, MySQL, Git, PBFT and (for overhead)
//! Apache. This crate provides the analogues used by the reproduction:
//! `bind-lite`, `db-lite`, `git-lite`, `bft-lite` and `httpd-lite`, written in
//! mini-C (see `programs/*.c`), each seeded with the corresponding Table 1
//! defects and shipped with the workloads the experiments drive them with.

use std::sync::OnceLock;

use lfi_cc::Compiler;
use lfi_obj::{Module, ModuleKind};
use lfi_vm::{Machine, NetHandle};

pub mod bft;
pub mod bugs;
pub mod truth;
pub mod workloads;

pub use bft::{run_bft_cluster, BftClusterConfig, BftRunResult};
pub use bugs::{KnownBug, KNOWN_BUGS};
pub use truth::{ground_truth, GroundTruth};
pub use workloads::{BindWorkload, FsSetupWorkload};

fn compile_target(name: &str, kind: ModuleKind, libs: &[&str], file: &str, source: &str) -> Module {
    let mut compiler = Compiler::new(name, kind);
    for lib in libs {
        compiler = compiler.needs(*lib);
    }
    compiler
        .add_source(file, source)
        .compile()
        .unwrap_or_else(|e| panic!("target `{name}` must compile: {e}"))
}

macro_rules! cached_target {
    ($fn_name:ident, $name:literal, $kind:expr, $libs:expr, $file:literal) => {
        /// Build (and cache) this target module.
        pub fn $fn_name() -> Module {
            static CACHE: OnceLock<Module> = OnceLock::new();
            CACHE
                .get_or_init(|| {
                    compile_target(
                        $name,
                        $kind,
                        $libs,
                        $file,
                        include_str!(concat!("../programs/", $file)),
                    )
                })
                .clone()
        }
    };
}

cached_target!(
    libxml_lite,
    "libxml",
    ModuleKind::SharedLib,
    &["libc"],
    "libxml-lite.c"
);
cached_target!(
    bind_lite,
    "bind-lite",
    ModuleKind::Executable,
    &["libc", "libxml"],
    "bind-lite.c"
);
cached_target!(
    git_lite,
    "git-lite",
    ModuleKind::Executable,
    &["libc"],
    "git-lite.c"
);
cached_target!(
    db_lite,
    "db-lite",
    ModuleKind::Executable,
    &["libc"],
    "db-lite.c"
);
cached_target!(
    bft_lite,
    "bft-lite",
    ModuleKind::Executable,
    &["libc"],
    "bft-lite.c"
);
cached_target!(
    httpd_lite,
    "httpd-lite",
    ModuleKind::Executable,
    &["libc"],
    "httpd-lite.c"
);

/// All target binaries with their names, for sweeps over every system.
pub fn all_targets() -> Vec<(&'static str, Module)> {
    vec![
        ("bind-lite", bind_lite()),
        ("git-lite", git_lite()),
        ("db-lite", db_lite()),
        ("bft-lite", bft_lite()),
        ("httpd-lite", httpd_lite()),
    ]
}

/// Prepare the filesystem every target expects (configuration files, data
/// directories, web content, repository layout).
pub fn standard_fs_setup(machine: &mut Machine) {
    let fs = machine.fs_mut();
    fs.mkdir_all("/etc/bind");
    // Zone records: 16 bytes each (8-byte key string, 8-byte value string).
    let mut zone = Vec::new();
    for (key, value) in [(10, 70), (11, 71), (12, 72), (13, 73)] {
        let mut rec = format!("{key}").into_bytes();
        rec.resize(8, 0);
        let mut val = format!("{value}").into_bytes();
        val.resize(8, 0);
        zone.extend_from_slice(&rec);
        zone.extend_from_slice(&val);
    }
    fs.write_file("/etc/bind/zone.db", &zone).unwrap();
    fs.mkdir_all("/var/bind");
    fs.write_file("/var/bind/journal", b"journal").unwrap();

    fs.mkdir_all("/repo/.git/objects");
    fs.write_file("/repo/README.md", b"hello repository\n")
        .unwrap();
    fs.write_file("/repo/main.c", b"int main() { return 0; }\n")
        .unwrap();
    fs.write_file("/repo/.git/HEAD", b"ref: main\n").unwrap();
    let _ = fs.symlink("/repo/.git/HEAD", "/repo/.git/HEAD-link");

    fs.mkdir_all("/data");
    fs.write_file("/data/table.myd", &vec![7u8; 1024]).unwrap();
    fs.mkdir_all("/share");
    fs.write_file("/share/errmsg.sys", b"ER_OK\0ER_DUP\0ER_LOCK\0")
        .unwrap();

    fs.mkdir_all("/ckpt");

    fs.mkdir_all("/www");
    fs.write_file("/www/index.html", &vec![b'x'; 1000]).unwrap();
    fs.write_file("/www/page.php", b"<?php compute(); ?>")
        .unwrap();
}

/// Convenience: a controller pre-loaded with the simulated libc, the
/// libxml-lite shared library, and the stock trigger registry, ready to run
/// any of the targets.
pub fn standard_controller() -> lfi_core::Controller {
    let mut controller = lfi_core::Controller::new();
    controller.add_library(lfi_libc::build());
    controller.add_library(libxml_lite());
    controller
}

/// Convenience: a controller as above, already attached to a network handle
/// (needed by the server-style targets).
pub fn networked_controller(net: NetHandle) -> lfi_core::Controller {
    let mut controller = standard_controller();
    controller.attach_net(net);
    controller
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_targets_compile_and_validate() {
        for (name, module) in all_targets() {
            assert_eq!(module.validate(), Ok(()), "{name} must validate");
            assert!(module.func_export("main").is_some(), "{name} needs main");
        }
    }

    #[test]
    fn targets_import_the_libc_functions_the_paper_injects_into() {
        let bind = bind_lite();
        for f in [
            "malloc", "open", "read", "close", "unlink", "sendto", "recvfrom",
        ] {
            assert!(
                bind.imported_functions().iter().any(|i| i == f),
                "bind-lite must import {f}"
            );
        }
        let git = git_lite();
        for f in ["malloc", "opendir", "readdir", "setenv", "readlink"] {
            assert!(
                git.imported_functions().iter().any(|i| i == f),
                "git-lite must import {f}"
            );
        }
        let db = db_lite();
        for f in ["pthread_mutex_unlock", "close", "fcntl", "read"] {
            assert!(
                db.imported_functions().iter().any(|i| i == f),
                "db-lite must import {f}"
            );
        }
        let bft = bft_lite();
        for f in ["recvfrom", "sendto", "fopen", "fwrite"] {
            assert!(
                bft.imported_functions().iter().any(|i| i == f),
                "bft-lite must import {f}"
            );
        }
    }
}
