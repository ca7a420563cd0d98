//! ABI constants shared by the whole tool chain.
//!
//! The simulated operating environment follows the Linux convention the paper
//! assumes: library functions report failures through an error return value
//! (most commonly `-1` or a null pointer) plus the thread-local `errno`
//! variable, and the kernel-facing syscall layer reports failures as negative
//! `errno` values that the simulated libc translates.

use crate::Reg;

/// Error numbers (`errno` values) used by the simulated environment.
///
/// The numeric values follow Linux so that fault profiles read naturally.
pub mod errno {
    /// Operation not permitted.
    pub const EPERM: i64 = 1;
    /// No such file or directory.
    pub const ENOENT: i64 = 2;
    /// Interrupted system call.
    pub const EINTR: i64 = 4;
    /// Input/output error.
    pub const EIO: i64 = 5;
    /// Bad file descriptor.
    pub const EBADF: i64 = 9;
    /// Resource temporarily unavailable (would block).
    pub const EAGAIN: i64 = 11;
    /// Cannot allocate memory.
    pub const ENOMEM: i64 = 12;
    /// Permission denied.
    pub const EACCES: i64 = 13;
    /// Device or resource busy.
    pub const EBUSY: i64 = 16;
    /// File exists.
    pub const EEXIST: i64 = 17;
    /// Not a directory.
    pub const ENOTDIR: i64 = 20;
    /// Is a directory.
    pub const EISDIR: i64 = 21;
    /// Invalid argument.
    pub const EINVAL: i64 = 22;
    /// Too many open files.
    pub const EMFILE: i64 = 24;
    /// No space left on device.
    pub const ENOSPC: i64 = 28;
    /// Broken pipe.
    pub const EPIPE: i64 = 32;
    /// Message too long.
    pub const EMSGSIZE: i64 = 90;
    /// Connection refused.
    pub const ECONNREFUSED: i64 = 111;

    /// Human-readable name for an errno value, if it is one we define.
    pub fn name(value: i64) -> Option<&'static str> {
        Some(match value {
            EPERM => "EPERM",
            ENOENT => "ENOENT",
            EINTR => "EINTR",
            EIO => "EIO",
            EBADF => "EBADF",
            EAGAIN => "EAGAIN",
            ENOMEM => "ENOMEM",
            EACCES => "EACCES",
            EBUSY => "EBUSY",
            EEXIST => "EEXIST",
            ENOTDIR => "ENOTDIR",
            EISDIR => "EISDIR",
            EINVAL => "EINVAL",
            EMFILE => "EMFILE",
            ENOSPC => "ENOSPC",
            EPIPE => "EPIPE",
            EMSGSIZE => "EMSGSIZE",
            ECONNREFUSED => "ECONNREFUSED",
            _ => return None,
        })
    }

    /// Parse a symbolic errno name (`"EINTR"`) into its value.
    pub fn from_name(name: &str) -> Option<i64> {
        Some(match name {
            "EPERM" => EPERM,
            "ENOENT" => ENOENT,
            "EINTR" => EINTR,
            "EIO" => EIO,
            "EBADF" => EBADF,
            "EAGAIN" => EAGAIN,
            "ENOMEM" => ENOMEM,
            "EACCES" => EACCES,
            "EBUSY" => EBUSY,
            "EEXIST" => EEXIST,
            "ENOTDIR" => ENOTDIR,
            "EISDIR" => EISDIR,
            "EINVAL" => EINVAL,
            "EMFILE" => EMFILE,
            "ENOSPC" => ENOSPC,
            "EPIPE" => EPIPE,
            "EMSGSIZE" => EMSGSIZE,
            "ECONNREFUSED" => ECONNREFUSED,
            _ => return None,
        })
    }

    /// All errno values this environment defines.
    pub const ALL: [i64; 18] = [
        EPERM,
        ENOENT,
        EINTR,
        EIO,
        EBADF,
        EAGAIN,
        ENOMEM,
        EACCES,
        EBUSY,
        EEXIST,
        ENOTDIR,
        EISDIR,
        EINVAL,
        EMFILE,
        ENOSPC,
        EPIPE,
        EMSGSIZE,
        ECONNREFUSED,
    ];
}

/// Syscall numbers exposed by the VM to the simulated libc.
///
/// Arguments are passed in `r1..r6`; the result is returned in `r0` using the
/// kernel convention: non-negative on success, `-errno` on failure.
pub mod sys {
    /// Terminate the process with the exit code in `r1`.
    pub const EXIT: i64 = 1;
    /// Open a file: `r1` = path pointer, `r2` = flags, `r3` = mode. Returns fd.
    pub const OPEN: i64 = 2;
    /// Close a file descriptor in `r1`.
    pub const CLOSE: i64 = 3;
    /// Read: `r1` = fd, `r2` = buffer, `r3` = count. Returns bytes read.
    pub const READ: i64 = 4;
    /// Write: `r1` = fd, `r2` = buffer, `r3` = count. Returns bytes written.
    pub const WRITE: i64 = 5;
    /// Seek: `r1` = fd, `r2` = offset, `r3` = whence.
    pub const LSEEK: i64 = 6;
    /// Stat by fd: `r1` = fd, `r2` = stat buffer pointer.
    pub const FSTAT: i64 = 7;
    /// Stat by path: `r1` = path pointer, `r2` = stat buffer pointer.
    pub const STAT: i64 = 8;
    /// Remove a file: `r1` = path pointer.
    pub const UNLINK: i64 = 9;
    /// Create a directory: `r1` = path pointer.
    pub const MKDIR: i64 = 10;
    /// Open a directory for iteration: `r1` = path pointer. Returns a handle.
    pub const OPENDIR: i64 = 11;
    /// Read the next directory entry: `r1` = handle, `r2` = name buffer,
    /// `r3` = buffer capacity. Returns name length, 0 at end.
    pub const READDIR: i64 = 12;
    /// Close a directory handle in `r1`.
    pub const CLOSEDIR: i64 = 13;
    /// Read a symlink target: `r1` = path, `r2` = buffer, `r3` = capacity.
    pub const READLINK: i64 = 14;
    /// Create a symlink: `r1` = target, `r2` = link path.
    pub const SYMLINK: i64 = 15;
    /// Rename: `r1` = old path, `r2` = new path.
    pub const RENAME: i64 = 16;
    /// Grow the heap break by `r1` bytes. Returns the previous break address.
    pub const SBRK: i64 = 17;
    /// Set an environment variable: `r1` = name, `r2` = value.
    pub const SETENV: i64 = 18;
    /// Get an environment variable: `r1` = name, `r2` = buffer, `r3` = cap.
    /// Returns value length or -ENOENT.
    pub const GETENV: i64 = 19;
    /// Create a datagram socket. Returns a socket descriptor.
    pub const SOCKET: i64 = 20;
    /// Bind a socket: `r1` = sockfd, `r2` = port.
    pub const BIND: i64 = 21;
    /// Send a datagram: `r1` = sockfd, `r2` = buffer, `r3` = length,
    /// `r4` = destination node id, `r5` = destination port.
    pub const SENDTO: i64 = 22;
    /// Receive a datagram: `r1` = sockfd, `r2` = buffer, `r3` = capacity,
    /// `r4` = pointer to sender info (2 words: node, port) or 0.
    pub const RECVFROM: i64 = 23;
    /// File-descriptor control: `r1` = fd, `r2` = command, `r3` = argument.
    pub const FCNTL: i64 = 24;
    /// Current virtual time in ticks.
    pub const GETTIME: i64 = 25;
    /// Abort the process (SIGABRT analogue).
    pub const ABORT: i64 = 26;
    /// Spawn a green thread: `r1` = entry address, `r2` = argument word.
    pub const THREAD_CREATE: i64 = 27;
    /// Terminate the calling thread.
    pub const THREAD_EXIT: i64 = 28;
    /// Yield the processor to another runnable thread.
    pub const YIELD: i64 = 29;
    /// Initialize a mutex: `r1` = mutex id.
    pub const MUTEX_INIT: i64 = 30;
    /// Lock a mutex: `r1` = mutex id.
    pub const MUTEX_LOCK: i64 = 31;
    /// Unlock a mutex: `r1` = mutex id. Unlocking a mutex that is not held is
    /// a fatal process fault (error-checking mutex, as in glibc).
    pub const MUTEX_UNLOCK: i64 = 32;
    /// Pseudo-random number from the process-deterministic stream.
    pub const RANDOM: i64 = 33;
    /// Truncate a file: `r1` = path, `r2` = length.
    pub const TRUNCATE: i64 = 34;

    /// Human-readable name of a syscall number (for traces and logs).
    pub fn name(num: i64) -> Option<&'static str> {
        Some(match num {
            EXIT => "exit",
            OPEN => "open",
            CLOSE => "close",
            READ => "read",
            WRITE => "write",
            LSEEK => "lseek",
            FSTAT => "fstat",
            STAT => "stat",
            UNLINK => "unlink",
            MKDIR => "mkdir",
            OPENDIR => "opendir",
            READDIR => "readdir",
            CLOSEDIR => "closedir",
            READLINK => "readlink",
            SYMLINK => "symlink",
            RENAME => "rename",
            SBRK => "sbrk",
            SETENV => "setenv",
            GETENV => "getenv",
            SOCKET => "socket",
            BIND => "bind",
            SENDTO => "sendto",
            RECVFROM => "recvfrom",
            FCNTL => "fcntl",
            GETTIME => "gettime",
            ABORT => "abort",
            THREAD_CREATE => "thread_create",
            THREAD_EXIT => "thread_exit",
            YIELD => "yield",
            MUTEX_INIT => "mutex_init",
            MUTEX_LOCK => "mutex_lock",
            MUTEX_UNLOCK => "mutex_unlock",
            RANDOM => "random",
            TRUNCATE => "truncate",
            _ => return None,
        })
    }
}

/// File-descriptor kinds reported by `fstat`/`stat` in the `kind` field of the
/// stat buffer (word 0). Mirrors `S_ISREG`/`S_ISFIFO`/`S_ISSOCK`/`S_ISDIR`.
pub mod filekind {
    /// Regular file.
    pub const REGULAR: i64 = 1;
    /// Directory.
    pub const DIRECTORY: i64 = 2;
    /// Pipe / FIFO.
    pub const FIFO: i64 = 3;
    /// Socket.
    pub const SOCKET: i64 = 4;
    /// Symbolic link.
    pub const SYMLINK: i64 = 5;
}

/// `open` flag bits used by the simulated environment.
pub mod openflags {
    /// Open for reading.
    pub const RDONLY: i64 = 0;
    /// Open for writing.
    pub const WRONLY: i64 = 1;
    /// Open for reading and writing.
    pub const RDWR: i64 = 2;
    /// Create the file if it does not exist.
    pub const CREAT: i64 = 64;
    /// Truncate the file on open.
    pub const TRUNC: i64 = 512;
    /// Append on every write.
    pub const APPEND: i64 = 1024;
    /// Non-blocking I/O.
    pub const NONBLOCK: i64 = 2048;
}

/// `fcntl` commands.
pub mod fcntlcmd {
    /// Get file status flags.
    pub const GETFL: i64 = 3;
    /// Set file status flags.
    pub const SETFL: i64 = 4;
    /// Get lock information (the MySQL Table 6 experiment injects here).
    pub const GETLK: i64 = 5;
    /// Set a lock.
    pub const SETLK: i64 = 6;
}

/// The calling convention used by compiled code and enforced by the VM at
/// interposition points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallConv;

impl CallConv {
    /// Register holding a function's return value.
    pub const RETURN: Reg = Reg::RET;

    /// Registers holding the first six arguments, in order.
    pub const ARGUMENTS: [Reg; 6] = Reg::ARGS;

    /// Maximum number of register arguments; additional arguments go on the
    /// stack (pushed right-to-left by the caller).
    pub const MAX_REG_ARGS: usize = 6;

    /// Name of the thread-local symbol that carries the C error number.
    pub const ERRNO_SYMBOL: &'static str = "errno";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_names_roundtrip() {
        for value in errno::ALL {
            let name = errno::name(value).expect("every listed errno has a name");
            assert_eq!(errno::from_name(name), Some(value));
        }
    }

    #[test]
    fn errno_unknown_values() {
        assert_eq!(errno::name(0), None);
        assert_eq!(errno::name(-1), None);
        assert_eq!(errno::from_name("EWHATEVER"), None);
    }

    #[test]
    fn errno_values_are_unique() {
        let mut values = errno::ALL.to_vec();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), errno::ALL.len());
    }

    #[test]
    fn syscall_names_cover_contiguous_range() {
        for num in sys::EXIT..=sys::TRUNCATE {
            assert!(sys::name(num).is_some(), "syscall {num} has no name");
        }
        assert_eq!(sys::name(0), None);
        assert_eq!(sys::name(sys::TRUNCATE + 1), None);
    }

    #[test]
    fn calling_convention_registers_are_disjoint() {
        for arg in CallConv::ARGUMENTS {
            assert_ne!(arg, CallConv::RETURN);
        }
    }
}
