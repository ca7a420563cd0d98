//! Syscall layer: the boundary between the simulated libc and the VM.
//!
//! The convention mirrors Linux: arguments arrive in `r1..r6`, the result is
//! returned in `r0`, failures are negative errno values. The simulated libc
//! translates them into `-1` + `errno`, which is the surface LFI injects at.

use lfi_arch::{abi::fcntlcmd, abi::filekind, abi::openflags, errno, sys, Addr, Reg, Word};
use rand::Rng;

use crate::machine::{FaultKind, FdEntry, Machine, RunExit, SysOutcome};
use crate::mem::PAGE_SIZE;
use crate::net::Datagram;

/// Virtual-time cost of a syscall, in ticks.
fn syscall_cost(num: Word) -> u64 {
    match num {
        sys::READ | sys::WRITE | sys::OPEN | sys::CLOSE | sys::LSEEK | sys::TRUNCATE => 100,
        sys::SENDTO | sys::RECVFROM => 150,
        sys::OPENDIR | sys::READDIR | sys::CLOSEDIR | sys::STAT | sys::FSTAT => 80,
        sys::UNLINK | sys::MKDIR | sys::RENAME | sys::SYMLINK | sys::READLINK => 80,
        sys::SBRK => 40,
        _ => 20,
    }
}

impl Machine {
    fn arg(&self, index: usize) -> Word {
        self.current_reg(Reg::ARGS[index])
    }

    fn read_path(&self, addr: Word) -> Result<String, Word> {
        if addr == 0 {
            return Err(-errno::EINVAL);
        }
        self.mem
            .read_cstring(addr as Addr, 4096)
            .map_err(|_| -errno::EINVAL)
    }

    fn alloc_fd(&mut self, entry: FdEntry) -> Word {
        for (i, slot) in self.fds.iter_mut().enumerate().skip(3) {
            if slot.is_none() {
                *slot = Some(entry);
                return i as Word;
            }
        }
        self.fds.push(Some(entry));
        (self.fds.len() - 1) as Word
    }

    pub(crate) fn syscall(&mut self, num: Word) -> SysOutcome {
        self.clock += syscall_cost(num);
        match num {
            sys::EXIT => SysOutcome::Exit(RunExit::Exited(self.arg(0))),
            sys::ABORT => SysOutcome::Exit(self.make_fault(FaultKind::Abort)),
            sys::OPEN => SysOutcome::Done(self.sys_open()),
            sys::CLOSE => SysOutcome::Done(self.sys_close()),
            sys::READ => SysOutcome::Done(self.sys_read()),
            sys::WRITE => SysOutcome::Done(self.sys_write()),
            sys::LSEEK => SysOutcome::Done(self.sys_lseek()),
            sys::FSTAT => SysOutcome::Done(self.sys_fstat()),
            sys::STAT => SysOutcome::Done(self.sys_stat()),
            sys::UNLINK => SysOutcome::Done(self.sys_unlink()),
            sys::MKDIR => SysOutcome::Done(self.sys_mkdir()),
            sys::OPENDIR => SysOutcome::Done(self.sys_opendir()),
            sys::READDIR => SysOutcome::Done(self.sys_readdir()),
            sys::CLOSEDIR => SysOutcome::Done(self.sys_close()),
            sys::READLINK => SysOutcome::Done(self.sys_readlink()),
            sys::SYMLINK => SysOutcome::Done(self.sys_symlink()),
            sys::RENAME => SysOutcome::Done(self.sys_rename()),
            sys::TRUNCATE => SysOutcome::Done(self.sys_truncate()),
            sys::SBRK => SysOutcome::Done(self.sys_sbrk()),
            sys::SETENV => SysOutcome::Done(self.sys_setenv()),
            sys::GETENV => SysOutcome::Done(self.sys_getenv()),
            sys::SOCKET => SysOutcome::Done(self.alloc_fd(FdEntry::Socket {
                port: None,
                flags: 0,
            })),
            sys::BIND => SysOutcome::Done(self.sys_bind()),
            sys::SENDTO => SysOutcome::Done(self.sys_sendto()),
            sys::RECVFROM => SysOutcome::Done(self.sys_recvfrom()),
            sys::FCNTL => SysOutcome::Done(self.sys_fcntl()),
            sys::GETTIME => SysOutcome::Done(self.clock as Word),
            sys::RANDOM => SysOutcome::Done((self.rng.gen::<u32>() >> 1) as Word),
            sys::THREAD_CREATE => self.sys_thread_create(),
            sys::THREAD_EXIT => {
                self.exit_current_thread();
                SysOutcome::Done(0)
            }
            sys::YIELD => SysOutcome::Done(0),
            sys::MUTEX_INIT => {
                let id = self.arg(0);
                self.mutex_state(id);
                SysOutcome::Done(0)
            }
            sys::MUTEX_LOCK => self.sys_mutex_lock(),
            sys::MUTEX_UNLOCK => self.sys_mutex_unlock(),
            other => SysOutcome::Exit(self.make_fault(FaultKind::BadSyscall { num: other })),
        }
    }

    fn sys_open(&mut self) -> Word {
        let path = match self.read_path(self.arg(0)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let flags = self.arg(1);
        let exists = self.fs.exists(&path);
        if !exists {
            if flags & openflags::CREAT != 0 {
                if let Err(e) = self.fs.write_file(&path, b"") {
                    return -e.errno();
                }
            } else {
                return -errno::ENOENT;
            }
        } else if flags & openflags::TRUNC != 0 {
            if let Err(e) = self.fs.truncate(&path, 0) {
                return -e.errno();
            }
        }
        if let Ok((kind, _)) = self.fs.stat(&path) {
            if kind == filekind::DIRECTORY && flags & (openflags::WRONLY | openflags::RDWR) != 0 {
                return -errno::EISDIR;
            }
        }
        let pos = if flags & openflags::APPEND != 0 {
            self.fs.file_len(&path).unwrap_or(0)
        } else {
            0
        };
        self.alloc_fd(FdEntry::File { path, pos, flags })
    }

    fn sys_close(&mut self) -> Word {
        let fd = self.arg(0);
        if fd < 0 {
            return -errno::EBADF;
        }
        match self.fds.get_mut(fd as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                0
            }
            _ => -errno::EBADF,
        }
    }

    fn sys_read(&mut self) -> Word {
        let (fd, buf, count) = (self.arg(0), self.arg(1), self.arg(2).max(0) as usize);
        let entry = match self.fds.get(fd.max(0) as usize).and_then(|e| e.clone()) {
            Some(e) => e,
            None => return -errno::EBADF,
        };
        match entry {
            FdEntry::File { path, pos, .. } => {
                let data = match self.fs.read_at(&path, pos, count) {
                    Ok(d) => d,
                    Err(e) => return -e.errno(),
                };
                if !data.is_empty() && self.mem.write_bytes(buf as Addr, &data).is_err() {
                    return -errno::EINVAL;
                }
                if let Some(Some(FdEntry::File { pos: p, .. })) = self.fds.get_mut(fd as usize) {
                    *p += data.len() as u64;
                }
                data.len() as Word
            }
            FdEntry::Socket { port, .. } => self.socket_recv(port, buf, count, 0),
            FdEntry::Dir { .. } => -errno::EISDIR,
            FdEntry::Stdout | FdEntry::Stderr => -errno::EBADF,
        }
    }

    fn sys_write(&mut self) -> Word {
        let (fd, buf, count) = (self.arg(0), self.arg(1), self.arg(2).max(0) as usize);
        let entry = match self.fds.get(fd.max(0) as usize).and_then(|e| e.clone()) {
            Some(e) => e,
            None => return -errno::EBADF,
        };
        let mut bytes = vec![0u8; count];
        if count > 0 && self.mem.read_bytes(buf as Addr, &mut bytes).is_err() {
            return -errno::EINVAL;
        }
        match entry {
            FdEntry::Stdout | FdEntry::Stderr => {
                self.output.extend_from_slice(&bytes);
                count as Word
            }
            FdEntry::File { path, pos, flags } => {
                let write_pos = if flags & openflags::APPEND != 0 {
                    self.fs.file_len(&path).unwrap_or(pos)
                } else {
                    pos
                };
                match self.fs.write_at(&path, write_pos, &bytes) {
                    Ok(n) => {
                        if let Some(Some(FdEntry::File { pos: p, .. })) =
                            self.fds.get_mut(fd as usize)
                        {
                            *p = write_pos + n as u64;
                        }
                        n as Word
                    }
                    Err(e) => -e.errno(),
                }
            }
            FdEntry::Socket { .. } => -errno::EINVAL,
            FdEntry::Dir { .. } => -errno::EISDIR,
        }
    }

    fn sys_lseek(&mut self) -> Word {
        let (fd, offset, whence) = (self.arg(0), self.arg(1), self.arg(2));
        let len = match self.fds.get(fd.max(0) as usize).and_then(|e| e.clone()) {
            Some(FdEntry::File { path, .. }) => self.fs.file_len(&path).unwrap_or(0),
            Some(_) => return -errno::EINVAL,
            None => return -errno::EBADF,
        };
        let Some(Some(FdEntry::File { pos, .. })) = self.fds.get_mut(fd as usize) else {
            return -errno::EBADF;
        };
        let new_pos = match whence {
            0 => offset,
            1 => *pos as Word + offset,
            2 => len as Word + offset,
            _ => return -errno::EINVAL,
        };
        if new_pos < 0 {
            return -errno::EINVAL;
        }
        *pos = new_pos as u64;
        new_pos
    }

    fn write_stat(&mut self, buf: Word, kind: i64, size: i64) -> Word {
        if self.mem.write_word(buf as Addr, kind).is_err()
            || self.mem.write_word(buf as Addr + 8, size).is_err()
        {
            return -errno::EINVAL;
        }
        0
    }

    fn sys_fstat(&mut self) -> Word {
        let (fd, buf) = (self.arg(0), self.arg(1));
        let (kind, size) = match self.fds.get(fd.max(0) as usize).and_then(|e| e.clone()) {
            Some(FdEntry::File { path, .. }) => match self.fs.stat(&path) {
                Ok(ks) => ks,
                Err(e) => return -e.errno(),
            },
            Some(FdEntry::Socket { .. }) => (filekind::SOCKET, 0),
            Some(FdEntry::Dir { entries, .. }) => (filekind::DIRECTORY, entries.len() as i64),
            Some(FdEntry::Stdout | FdEntry::Stderr) => (filekind::REGULAR, 0),
            None => return -errno::EBADF,
        };
        self.write_stat(buf, kind, size)
    }

    fn sys_stat(&mut self) -> Word {
        let path = match self.read_path(self.arg(0)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        match self.fs.stat(&path) {
            Ok((kind, size)) => self.write_stat(self.arg(1), kind, size),
            Err(e) => -e.errno(),
        }
    }

    fn sys_unlink(&mut self) -> Word {
        match self.read_path(self.arg(0)) {
            Ok(path) => match self.fs.unlink(&path) {
                Ok(()) => 0,
                Err(e) => -e.errno(),
            },
            Err(e) => e,
        }
    }

    fn sys_mkdir(&mut self) -> Word {
        match self.read_path(self.arg(0)) {
            Ok(path) => match self.fs.mkdir(&path) {
                Ok(()) => 0,
                Err(e) => -e.errno(),
            },
            Err(e) => e,
        }
    }

    fn sys_opendir(&mut self) -> Word {
        let path = match self.read_path(self.arg(0)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        match self.fs.list_dir(&path) {
            Ok(mut entries) => {
                entries.sort();
                self.alloc_fd(FdEntry::Dir { entries, pos: 0 })
            }
            Err(e) => -e.errno(),
        }
    }

    fn sys_readdir(&mut self) -> Word {
        let (fd, buf, cap) = (self.arg(0), self.arg(1), self.arg(2).max(0) as usize);
        let name = match self.fds.get_mut(fd.max(0) as usize) {
            Some(Some(FdEntry::Dir { entries, pos })) => {
                if *pos >= entries.len() {
                    return 0;
                }
                let name = entries[*pos].clone();
                *pos += 1;
                name
            }
            Some(Some(_)) => return -errno::ENOTDIR,
            _ => return -errno::EBADF,
        };
        if cap == 0 {
            return -errno::EINVAL;
        }
        let truncated: String = name.chars().take(cap - 1).collect();
        if self.mem.write_cstring(buf as Addr, &truncated).is_err() {
            return -errno::EINVAL;
        }
        truncated.len() as Word
    }

    fn sys_readlink(&mut self) -> Word {
        let (path, buf, cap) = (self.arg(0), self.arg(1), self.arg(2).max(0) as usize);
        let path = match self.read_path(path) {
            Ok(p) => p,
            Err(e) => return e,
        };
        match self.fs.readlink(&path) {
            Ok(target) => {
                let truncated: String = target.chars().take(cap.saturating_sub(1)).collect();
                if self.mem.write_cstring(buf as Addr, &truncated).is_err() {
                    return -errno::EINVAL;
                }
                truncated.len() as Word
            }
            Err(e) => -e.errno(),
        }
    }

    fn sys_symlink(&mut self) -> Word {
        let target = match self.read_path(self.arg(0)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let link = match self.read_path(self.arg(1)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        match self.fs.symlink(&target, &link) {
            Ok(()) => 0,
            Err(e) => -e.errno(),
        }
    }

    fn sys_rename(&mut self) -> Word {
        let old = match self.read_path(self.arg(0)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let new = match self.read_path(self.arg(1)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        match self.fs.rename(&old, &new) {
            Ok(()) => 0,
            Err(e) => -e.errno(),
        }
    }

    fn sys_truncate(&mut self) -> Word {
        let path = match self.read_path(self.arg(0)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        match self.fs.truncate(&path, self.arg(1).max(0) as u64) {
            Ok(()) => 0,
            Err(e) => -e.errno(),
        }
    }

    fn sys_sbrk(&mut self) -> Word {
        let grow = self.arg(0);
        let old = self.heap_brk;
        if grow <= 0 {
            return old as Word;
        }
        let new = old + grow as u64;
        if new > crate::machine::HEAP_BASE + self.heap_limit {
            return -errno::ENOMEM;
        }
        self.mem.map_region(old, grow as u64 + PAGE_SIZE);
        self.heap_brk = new;
        old as Word
    }

    fn sys_setenv(&mut self) -> Word {
        let name = match self.read_path(self.arg(0)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let value = match self.read_path(self.arg(1)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        self.env.insert(name, value);
        0
    }

    fn sys_getenv(&mut self) -> Word {
        let name = match self.read_path(self.arg(0)) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let (buf, cap) = (self.arg(1), self.arg(2).max(0) as usize);
        let Some(value) = self.env.get(&name).cloned() else {
            return -errno::ENOENT;
        };
        let truncated: String = value.chars().take(cap.saturating_sub(1)).collect();
        if self.mem.write_cstring(buf as Addr, &truncated).is_err() {
            return -errno::EINVAL;
        }
        value.len() as Word
    }

    fn sys_bind(&mut self) -> Word {
        let (fd, port) = (self.arg(0), self.arg(1));
        let node = self.node_id;
        match self.fds.get_mut(fd.max(0) as usize) {
            Some(Some(FdEntry::Socket { port: p, .. })) => {
                *p = Some(port);
                if let Some(net) = &self.net {
                    net.bind(node, port);
                }
                0
            }
            Some(Some(_)) => -errno::EINVAL,
            _ => -errno::EBADF,
        }
    }

    fn sys_sendto(&mut self) -> Word {
        let (fd, buf, len) = (self.arg(0), self.arg(1), self.arg(2).max(0) as usize);
        let (to_node, to_port) = (self.arg(3), self.arg(4));
        let from_port = match self.socket_port(fd) {
            Ok(port) => port.unwrap_or(0),
            Err(err) => return err,
        };
        let mut payload = vec![0u8; len];
        if len > 0 && self.mem.read_bytes(buf as Addr, &mut payload).is_err() {
            return -errno::EINVAL;
        }
        let Some(net) = &self.net else {
            return -errno::ECONNREFUSED;
        };
        net.send(Datagram {
            from_node: self.node_id,
            from_port,
            to_node,
            to_port,
            payload,
        });
        len as Word
    }

    /// The bound port of socket `fd`, or the negative errno for a
    /// descriptor that is not an open socket. Borrows the descriptor table
    /// instead of cloning the entry: every idle `recvfrom` poll comes here.
    fn socket_port(&self, fd: Word) -> Result<Option<i64>, Word> {
        match self.fds.get(fd.max(0) as usize) {
            Some(Some(FdEntry::Socket { port, .. })) => Ok(*port),
            Some(Some(_)) => Err(-errno::EINVAL),
            _ => Err(-errno::EBADF),
        }
    }

    fn socket_recv(&mut self, port: Option<i64>, buf: Word, cap: usize, srcinfo: Word) -> Word {
        let Some(port) = port else {
            return -errno::EINVAL;
        };
        let Some(net) = &self.net else {
            return -errno::EAGAIN;
        };
        let Some(datagram) = net.recv(self.node_id, port) else {
            return -errno::EAGAIN;
        };
        let n = datagram.payload.len().min(cap);
        if n > 0
            && self
                .mem
                .write_bytes(buf as Addr, &datagram.payload[..n])
                .is_err()
        {
            return -errno::EINVAL;
        }
        if srcinfo != 0 {
            let ok = self
                .mem
                .write_word(srcinfo as Addr, datagram.from_node)
                .and_then(|_| self.mem.write_word(srcinfo as Addr + 8, datagram.from_port));
            if ok.is_err() {
                return -errno::EINVAL;
            }
        }
        n as Word
    }

    fn sys_recvfrom(&mut self) -> Word {
        let (fd, buf, cap, srcinfo) = (
            self.arg(0),
            self.arg(1),
            self.arg(2).max(0) as usize,
            self.arg(3),
        );
        match self.socket_port(fd) {
            Ok(port) => self.socket_recv(port, buf, cap, srcinfo),
            Err(err) => err,
        }
    }

    fn sys_fcntl(&mut self) -> Word {
        let (fd, cmd, arg) = (self.arg(0), self.arg(1), self.arg(2));
        match self.fds.get_mut(fd.max(0) as usize) {
            Some(Some(FdEntry::File { flags, .. } | FdEntry::Socket { flags, .. })) => match cmd {
                fcntlcmd::GETFL => *flags,
                fcntlcmd::SETFL => {
                    *flags = arg;
                    0
                }
                fcntlcmd::GETLK | fcntlcmd::SETLK => 0,
                _ => -errno::EINVAL,
            },
            Some(Some(_)) => match cmd {
                fcntlcmd::GETFL => 0,
                fcntlcmd::GETLK | fcntlcmd::SETLK => 0,
                _ => -errno::EINVAL,
            },
            _ => -errno::EBADF,
        }
    }

    fn sys_thread_create(&mut self) -> SysOutcome {
        let (entry, arg) = (self.arg(0), self.arg(1));
        if self.image.find_code(entry as Addr).is_none() {
            return SysOutcome::Done(-errno::EINVAL);
        }
        let tid = self.spawn_thread(entry as Addr, arg);
        SysOutcome::Done(tid)
    }

    fn sys_mutex_lock(&mut self) -> SysOutcome {
        let id = self.arg(0);
        let me = self.current_thread();
        match self.mutex_owner(id) {
            None => {
                self.set_mutex_owner(id, Some(me));
                SysOutcome::Done(0)
            }
            Some(owner) if owner == me => SysOutcome::Done(-errno::EPERM),
            Some(_) => SysOutcome::Block(id),
        }
    }

    fn sys_mutex_unlock(&mut self) -> SysOutcome {
        let id = self.arg(0);
        let me = self.current_thread();
        match self.mutex_owner(id) {
            Some(owner) if owner == me => {
                self.set_mutex_owner(id, None);
                self.wake_mutex_waiters(id);
                SysOutcome::Done(0)
            }
            // Unlocking a mutex that is not held (or held by another thread)
            // is fatal, like glibc's error-checking mutexes: this is how the
            // MySQL double-unlock bug from Table 1 crashes the process.
            _ => SysOutcome::Exit(self.make_fault(FaultKind::DoubleUnlock)),
        }
    }
}
