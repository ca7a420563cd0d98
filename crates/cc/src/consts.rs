//! Named constants predefined by the compiler.
//!
//! Mini-C programs can use the familiar POSIX spellings (`O_RDONLY`,
//! `EINVAL`, `SEEK_SET`, ...) without declaring them; the compiler resolves
//! them to the ABI values defined in `lfi-arch`. Syscall numbers are exposed
//! with a `SYS_` prefix for use with the `__sys` builtin in the simulated
//! libc sources.

use lfi_arch::{abi::fcntlcmd, abi::filekind, abi::openflags, errno, sys};

/// Look up a predefined named constant.
pub fn predefined(name: &str) -> Option<i64> {
    if let Some(v) = errno::from_name(name) {
        return Some(v);
    }
    if let Some(rest) = name.strip_prefix("SYS_") {
        let lower = rest.to_lowercase();
        for num in sys::EXIT..=sys::LAST {
            if sys::name(num) == Some(lower.as_str()) {
                return Some(num);
            }
        }
    }
    Some(match name {
        "NULL" => 0,
        "O_RDONLY" => openflags::RDONLY,
        "O_WRONLY" => openflags::WRONLY,
        "O_RDWR" => openflags::RDWR,
        "O_CREAT" => openflags::CREAT,
        "O_TRUNC" => openflags::TRUNC,
        "O_APPEND" => openflags::APPEND,
        "O_NONBLOCK" => openflags::NONBLOCK,
        "SEEK_SET" => 0,
        "SEEK_CUR" => 1,
        "SEEK_END" => 2,
        "S_REGULAR" => filekind::REGULAR,
        "S_DIRECTORY" => filekind::DIRECTORY,
        "S_FIFO" => filekind::FIFO,
        "S_SOCKET" => filekind::SOCKET,
        "S_SYMLINK" => filekind::SYMLINK,
        "F_GETFL" => fcntlcmd::GETFL,
        "F_SETFL" => fcntlcmd::SETFL,
        "F_GETLK" => fcntlcmd::GETLK,
        "F_SETLK" => fcntlcmd::SETLK,
        "STDOUT" => 1,
        "STDERR" => 2,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_and_sys_constants_resolve() {
        assert_eq!(predefined("EINVAL"), Some(errno::EINVAL));
        assert_eq!(predefined("ENOENT"), Some(errno::ENOENT));
        assert_eq!(predefined("SYS_READ"), Some(sys::READ));
        assert_eq!(predefined("SYS_MUTEX_UNLOCK"), Some(sys::MUTEX_UNLOCK));
    }

    #[test]
    fn posix_flags_resolve() {
        assert_eq!(predefined("O_CREAT"), Some(openflags::CREAT));
        assert_eq!(predefined("NULL"), Some(0));
        assert_eq!(predefined("F_GETLK"), Some(fcntlcmd::GETLK));
        assert_eq!(predefined("S_SOCKET"), Some(filekind::SOCKET));
    }

    #[test]
    fn unknown_names_are_not_constants() {
        assert_eq!(predefined("not_a_constant"), None);
        assert_eq!(predefined("SYS_NOPE"), None);
    }
}
