//! Behavioural tests of the simulated libc: compile small applications
//! against it and check the classic C semantics the target applications and
//! the paper's bugs rely on.

use lfi_cc::Compiler;
use lfi_obj::ModuleKind;
use lfi_vm::{Loader, Machine, NoHooks, ProcessConfig, RunExit};

fn run_app(src: &str, setup: impl FnOnce(&mut Machine)) -> (Machine, RunExit) {
    let exe = Compiler::new("app", ModuleKind::Executable)
        .needs("libc")
        .add_source("app.c", src)
        .compile()
        .expect("compile app");
    let mut loader = Loader::new();
    loader.add_library(lfi_libc::build());
    let image = loader.load(exe).expect("load");
    let mut machine = Machine::new(image, ProcessConfig::default());
    setup(&mut machine);
    let exit = machine.run_to_completion(&mut NoHooks);
    (machine, exit)
}

fn code(src: &str) -> i64 {
    match run_app(src, |_| {}).1 {
        RunExit::Exited(c) => c,
        other => panic!("expected exit, got {other:?}"),
    }
}

#[test]
fn malloc_returns_distinct_zeroed_blocks() {
    let src = r#"
        int main() {
            int a = malloc(32);
            int b = malloc(32);
            if (a == 0 || b == 0) { return 1; }
            if (a == b) { return 2; }
            if (*a != 0) { return 3; }
            *a = 11;
            b[1] = 22;
            return *a + b[1];
        }
    "#;
    assert_eq!(code(src), 33);
}

#[test]
fn string_functions_behave_like_c() {
    let src = r#"
        int main() {
            int buf[32];
            strcpy(buf, "hello");
            strcat(buf, ", world");
            if (strlen(buf) != 12) { return 1; }
            if (strcmp(buf, "hello, world") != 0) { return 2; }
            if (strncmp(buf, "hello, there", 7) != 0) { return 3; }
            if (strcmp("abc", "abd") >= 0) { return 4; }
            if (atoi("-472") != -472) { return 5; }
            int num[4];
            int len = itoa(90210, num);
            if (len != 5) { return 6; }
            if (strcmp(num, "90210") != 0) { return 7; }
            return 0;
        }
    "#;
    assert_eq!(code(src), 0);
}

#[test]
fn file_io_roundtrip_through_libc() {
    let src = r#"
        int main() {
            int fd = open("/tmp/out.txt", O_WRONLY | O_CREAT, 0);
            if (fd == -1) { return 1; }
            if (write(fd, "data-123", 8) != 8) { return 2; }
            if (close(fd) != 0) { return 3; }
            int rfd = open("/tmp/out.txt", O_RDONLY, 0);
            if (rfd == -1) { return 4; }
            int buf[8];
            int n = read(rfd, buf, 64);
            close(rfd);
            if (n != 8) { return 5; }
            if (strncmp(buf, "data-123", 8) != 0) { return 6; }
            return 0;
        }
    "#;
    let (machine, exit) = run_app(src, |m| m.fs_mut().mkdir_all("/tmp"));
    assert_eq!(exit, RunExit::Exited(0));
    assert_eq!(machine.fs().read_file("/tmp/out.txt").unwrap(), b"data-123");
}

#[test]
fn open_missing_file_sets_enoent() {
    let src = r#"
        int main() {
            int fd = open("/does/not/exist", O_RDONLY, 0);
            if (fd != -1) { return 99; }
            return errno;
        }
    "#;
    assert_eq!(code(src), lfi_arch::errno::ENOENT);
}

#[test]
fn fopen_fwrite_fclose_and_null_fopen_behaviour() {
    let src = r#"
        int main() {
            int f = fopen("/log/checkpoint", "w");
            if (f == 0) { return 1; }
            if (fwrite("state", 1, 5, f) != 5) { return 2; }
            fclose(f);
            // fopen of a missing directory returns NULL and sets errno.
            int g = fopen("/missing-dir/file", "w");
            if (g != 0) { return 3; }
            if (errno != ENOENT) { return 4; }
            return 0;
        }
    "#;
    let (machine, exit) = run_app(src, |m| m.fs_mut().mkdir_all("/log"));
    assert_eq!(exit, RunExit::Exited(0));
    assert_eq!(machine.fs().read_file("/log/checkpoint").unwrap(), b"state");
}

#[test]
fn fwrite_on_null_file_crashes_like_the_pbft_bug() {
    let src = r#"
        int main() {
            int f = fopen("/missing-dir/ckpt", "w");
            // Missing check for f == NULL, then fwrite dereferences it.
            fwrite("state", 1, 5, f);
            return 0;
        }
    "#;
    let (_, exit) = run_app(src, |_| {});
    assert!(matches!(exit, RunExit::Fault(f) if f.to_string().contains("null dereference")));
}

#[test]
fn opendir_readdir_list_files_and_null_dir_crashes() {
    let src = r#"
        int count_entries(int path) {
            int d = opendir(path);
            if (d == 0) { return -1; }
            int n = 0;
            while (readdir(d) != 0) { n = n + 1; }
            closedir(d);
            return n;
        }
        int main() {
            int n = count_entries("/repo");
            if (n != 3) { return 1; }
            // The unchecked variant, as in the Git bug: opendir fails and
            // readdir dereferences NULL.
            int d = opendir("/nope");
            readdir(d);
            return 0;
        }
    "#;
    let (_, exit) = run_app(src, |m| {
        m.fs_mut().mkdir_all("/repo");
        m.fs_mut().write_file("/repo/a", b"1").unwrap();
        m.fs_mut().write_file("/repo/b", b"2").unwrap();
        m.fs_mut().write_file("/repo/c", b"3").unwrap();
    });
    assert!(matches!(exit, RunExit::Fault(f) if f.to_string().contains("null dereference")));
}

#[test]
fn read_on_io_error_path_returns_eio() {
    let src = r#"
        int main() {
            int fd = open("/errmsg.sys", O_RDONLY, 0);
            if (fd == -1) { return 1; }
            int buf[8];
            int n = read(fd, buf, 64);
            if (n != -1) { return 2; }
            return errno;
        }
    "#;
    let (_, exit) = run_app(src, |m| {
        m.fs_mut().write_file("/errmsg.sys", b"messages").unwrap();
        m.fs_mut().set_io_error("/errmsg.sys");
    });
    assert_eq!(exit, RunExit::Exited(lfi_arch::errno::EIO));
}

#[test]
fn mutexes_threads_and_double_unlock_abort() {
    let ok_src = r#"
        int total = 0;
        int finished = 0;
        int worker(int n) {
            pthread_mutex_lock(1);
            total = total + n;
            pthread_mutex_unlock(1);
            pthread_mutex_lock(2);
            finished = finished + 1;
            pthread_mutex_unlock(2);
            pthread_exit();
            return 0;
        }
        int main() {
            pthread_create(__fnaddr(worker), 10);
            pthread_create(__fnaddr(worker), 32);
            while (finished < 2) { pthread_yield(); }
            return total;
        }
    "#;
    assert_eq!(code(ok_src), 42);

    let double_unlock = r#"
        int main() {
            pthread_mutex_lock(9);
            pthread_mutex_unlock(9);
            pthread_mutex_unlock(9);
            return 0;
        }
    "#;
    let (_, exit) = run_app(double_unlock, |_| {});
    assert!(matches!(exit, RunExit::Fault(f) if f.to_string().contains("mutex")));
}

#[test]
fn setenv_getenv_roundtrip() {
    let src = r#"
        int main() {
            if (setenv("PATH", "/usr/bin", 1) != 0) { return 1; }
            int buf[32];
            int n = getenv_r("PATH", buf, 200);
            if (n != 8) { return 2; }
            if (strcmp(buf, "/usr/bin") != 0) { return 3; }
            if (getenv_r("UNSET_VAR", buf, 200) != -1) { return 4; }
            return errno;
        }
    "#;
    assert_eq!(code(src), lfi_arch::errno::ENOENT);
}

#[test]
fn sockets_roundtrip_between_two_processes() {
    let server_src = r#"
        int main() {
            int s = socket(0, 0, 0);
            bind(s, 53);
            int buf[64];
            int waited = 0;
            while (waited < 20000) {
                int n = recvfrom(s, buf, 500, 0);
                if (n > 0) {
                    // Echo back to the harness (node 99, port 1000).
                    sendto(s, buf, n, 99, 1000);
                    return n;
                }
                waited = waited + 1;
            }
            return -1;
        }
    "#;
    let exe = Compiler::new("server", ModuleKind::Executable)
        .needs("libc")
        .add_source("server.c", server_src)
        .compile()
        .unwrap();
    let mut loader = Loader::new();
    loader.add_library(lfi_libc::build());
    let image = loader.load(exe).unwrap();
    let mut machine = Machine::new(image, ProcessConfig::default());
    let net = lfi_vm::NetHandle::default();
    net.bind(99, 1000);
    // Pre-bind the server's endpoint so the query sent before the server
    // starts is queued rather than dropped as unroutable.
    net.bind(0, 53);
    machine.attach_net(net.clone());
    net.send(lfi_vm::Datagram {
        from_node: 99,
        from_port: 1000,
        to_node: 0,
        to_port: 53,
        payload: b"query".to_vec(),
        sent_at: 0,
    });
    let exit = machine.run_to_completion(&mut NoHooks);
    assert_eq!(exit, RunExit::Exited(5));
    let reply = net.recv(99, 1000).expect("echoed datagram");
    assert_eq!(reply.payload, b"query");
}

/// A receive deadline makes `recvfrom` on an empty socket block: the
/// machine reports `Blocked` until a datagram is queued (the receive then
/// returns it, no earlier than its send time) or the harness lets the
/// deadline pass (the receive then fails with `EAGAIN`). Without a
/// deadline an empty socket fails at once.
#[test]
fn a_recv_deadline_blocks_until_a_datagram_or_the_deadline() {
    let src = r#"
        int main() {
            int s = socket(0, 0, 0);
            if (bind(s, 53) == -1) { return 1; }
            int buf[8];
            int src[2];
            if (set_recv_deadline(s, 50000) == -1) { return 2; }
            if (recvfrom(s, buf, 60, src) != 4) { return 3; }
            if (gettime() < 20000) { return 4; }
            if (recvfrom(s, buf, 60, src) != -1) { return 5; }
            if (errno != EAGAIN) { return 6; }
            if (gettime() < 50000) { return 7; }
            if (set_recv_deadline(s, 0) == -1) { return 8; }
            if (recvfrom(s, buf, 60, src) != -1) { return 9; }
            if (errno != EAGAIN) { return 10; }
            if (set_recv_deadline(77, 1) != -1) { return 11; }
            if (errno != EBADF) { return 12; }
            return 0;
        }
    "#;
    let exe = Compiler::new("app", ModuleKind::Executable)
        .needs("libc")
        .add_source("app.c", src)
        .compile()
        .expect("compile app");
    let mut loader = Loader::new();
    loader.add_library(lfi_libc::build());
    let mut machine = Machine::new(loader.load(exe).unwrap(), ProcessConfig::default());
    let net = lfi_vm::NetHandle::default();
    machine.attach_net(net.clone());

    assert_eq!(machine.run_to_completion(&mut NoHooks), RunExit::Blocked);
    assert_eq!(machine.recv_deadline(), Some(50_000));
    assert!(machine.clock() < 20_000);
    // Blocked, the machine executes nothing until something happens.
    let instructions = machine.stats.instructions;
    assert_eq!(machine.run_to_completion(&mut NoHooks), RunExit::Blocked);
    assert_eq!(machine.stats.instructions, instructions);

    net.send(lfi_vm::Datagram {
        from_node: 99,
        from_port: 1000,
        to_node: 0,
        to_port: 53,
        payload: b"ping".to_vec(),
        sent_at: 20_000,
    });
    assert_eq!(machine.run_to_completion(&mut NoHooks), RunExit::Blocked);
    assert!((20_000..50_000).contains(&machine.clock()));
    assert_eq!(machine.expire_recv_deadline(), Some(50_000));
    assert_eq!(machine.recv_deadline(), None);
    assert_eq!(machine.run_to_completion(&mut NoHooks), RunExit::Exited(0));
    assert_eq!(machine.expire_recv_deadline(), None);
}

#[test]
fn assert_true_aborts_with_message() {
    let src = r#"
        int main() {
            assert_true(1 == 1, "fine");
            assert_true(2 < 1, "math is broken");
            return 0;
        }
    "#;
    let (machine, exit) = run_app(src, |_| {});
    assert!(matches!(exit, RunExit::Fault(f) if f.to_string().contains("abort")));
    assert!(machine.output_string().contains("math is broken"));
}
