//! Sparse paged process memory.
//!
//! Memory is allocated in pages and only explicitly mapped regions are
//! accessible. The zero page is never mapped, so null-pointer dereferences
//! fault exactly like a SIGSEGV would in the paper's experiments (several of
//! the Table 1 bugs manifest as dereferences of NULL returned by a failed
//! `malloc`/`opendir`/`fopen`).
//!
//! Pages are reference-counted and copied on write: cloning a [`Memory`]
//! shares every page with the original, and a write to either side copies
//! only the touched page. This is what makes [`crate::MachineSnapshot`]
//! forks cheap — a campaign can restore hundreds of VMs from one snapshot
//! and pay only for the pages each run actually dirties.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use lfi_arch::{Addr, Word};

/// Size of a memory page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// One page of memory.
type Page = [u8; PAGE_SIZE as usize];

/// Bytes in a machine word.
const WORD_BYTES: usize = std::mem::size_of::<Word>();

/// Hasher for page indices: one multiply by a 64-bit odd constant
/// (Fibonacci hashing). The low bits stay distinct for consecutive pages
/// and the high bits are well mixed, which is all the page map needs, at a
/// fraction of SipHash's cost. It is deterministic; nothing depends on the
/// map's iteration order either way. It offers no protection against keys
/// crafted to collide, which is fine: the keys are pages of the regions the
/// VM itself maps (data, heap, stacks), not values chosen from outside.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Page index -> page, keyed with [`PageHasher`].
type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>;

/// Memory access errors, surfaced to the machine as faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access to an address in an unmapped page.
    Unmapped {
        /// The faulting address.
        addr: Addr,
    },
    /// Address arithmetic overflowed.
    AddressOverflow,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped memory access at {addr:#x}"),
            MemError::AddressOverflow => write!(f, "address arithmetic overflow"),
        }
    }
}

impl std::error::Error for MemError {}

/// Sparse byte-addressable memory with copy-on-write pages.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    pages: PageMap,
    mapped_bytes: u64,
}

impl Memory {
    /// Create an empty address space with nothing mapped.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Map the pages covering `[start, start + len)`; the new memory is
    /// zero-filled. Mapping an already-mapped page is a no-op.
    pub fn map_region(&mut self, start: Addr, len: u64) {
        if len == 0 {
            return;
        }
        let first = start / PAGE_SIZE;
        let last = (start + len - 1) / PAGE_SIZE;
        for page in first..=last {
            self.pages.entry(page).or_insert_with(|| {
                self.mapped_bytes += PAGE_SIZE;
                Arc::new([0u8; PAGE_SIZE as usize])
            });
        }
    }

    /// Whether `addr` lies in a mapped page.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.pages.contains_key(&(addr / PAGE_SIZE))
    }

    /// Total number of bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }

    /// Number of pages physically shared with `other` (same backing
    /// allocation, i.e. untouched since the clone that separated them).
    pub fn pages_shared_with(&self, other: &Memory) -> usize {
        self.pages
            .iter()
            .filter(|(index, page)| {
                other
                    .pages
                    .get(index)
                    .is_some_and(|theirs| Arc::ptr_eq(page, theirs))
            })
            .count()
    }

    /// A stable FNV-1a digest of the full memory contents (mapped page
    /// indices and bytes, in page order). Used to assert snapshot/restore
    /// round-trips are byte-identical.
    pub fn digest(&self) -> u64 {
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        indices.sort_unstable();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for byte in bytes {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for index in indices {
            mix(&index.to_le_bytes());
            mix(self.pages[&index].as_ref());
        }
        hash
    }

    fn page(&self, addr: Addr) -> Result<&Page, MemError> {
        self.pages
            .get(&(addr / PAGE_SIZE))
            .map(|b| b.as_ref())
            .ok_or(MemError::Unmapped { addr })
    }

    fn page_mut(&mut self, addr: Addr) -> Result<&mut Page, MemError> {
        self.pages
            .get_mut(&(addr / PAGE_SIZE))
            .map(Arc::make_mut)
            .ok_or(MemError::Unmapped { addr })
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: Addr) -> Result<u8, MemError> {
        let page = self.page(addr)?;
        Ok(page[(addr % PAGE_SIZE) as usize])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), MemError> {
        let page = self.page_mut(addr)?;
        page[(addr % PAGE_SIZE) as usize] = value;
        Ok(())
    }

    /// Read a 64-bit word (little endian). The access may straddle pages.
    pub fn read_word(&self, addr: Addr) -> Result<Word, MemError> {
        let offset = (addr % PAGE_SIZE) as usize;
        let mut bytes = [0u8; WORD_BYTES];
        if offset <= PAGE_SIZE as usize - WORD_BYTES {
            // Within one page: a single lookup.
            bytes.copy_from_slice(&self.page(addr)?[offset..offset + WORD_BYTES]);
        } else {
            self.read_bytes(addr, &mut bytes)?;
        }
        Ok(Word::from_le_bytes(bytes))
    }

    /// Write a 64-bit word (little endian). The access may straddle pages;
    /// a straddling write that faults on its second page has already
    /// written the bytes on the first.
    pub fn write_word(&mut self, addr: Addr, value: Word) -> Result<(), MemError> {
        let offset = (addr % PAGE_SIZE) as usize;
        if offset <= PAGE_SIZE as usize - WORD_BYTES {
            // Within one page: a single lookup and copy-on-write check.
            self.page_mut(addr)?[offset..offset + WORD_BYTES].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Read `buf.len()` bytes starting at `addr`, one page at a time. On a
    /// fault, the bytes before the faulting address have been read into
    /// `buf`.
    pub fn read_bytes(&self, mut addr: Addr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut rest = buf;
        while !rest.is_empty() {
            let offset = (addr % PAGE_SIZE) as usize;
            let len = rest.len().min(PAGE_SIZE as usize - offset);
            let (chunk, tail) = rest.split_at_mut(len);
            chunk.copy_from_slice(&self.page(addr)?[offset..offset + len]);
            rest = tail;
            if !rest.is_empty() {
                addr = next_page(addr, len)?;
            }
        }
        Ok(())
    }

    /// Write all of `bytes` starting at `addr`, one page at a time. On a
    /// fault, the bytes before the faulting address have been written.
    pub fn write_bytes(&mut self, mut addr: Addr, bytes: &[u8]) -> Result<(), MemError> {
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = (addr % PAGE_SIZE) as usize;
            let len = rest.len().min(PAGE_SIZE as usize - offset);
            let (chunk, tail) = rest.split_at(len);
            self.page_mut(addr)?[offset..offset + len].copy_from_slice(chunk);
            rest = tail;
            if !rest.is_empty() {
                addr = next_page(addr, len)?;
            }
        }
        Ok(())
    }

    /// Read a NUL-terminated string of at most `max_len` bytes, one page at
    /// a time.
    pub fn read_cstring(&self, mut addr: Addr, max_len: usize) -> Result<String, MemError> {
        let mut bytes = Vec::new();
        let mut remaining = max_len;
        while remaining > 0 {
            let offset = (addr % PAGE_SIZE) as usize;
            let len = remaining.min(PAGE_SIZE as usize - offset);
            let chunk = &self.page(addr)?[offset..offset + len];
            if let Some(nul) = chunk.iter().position(|&b| b == 0) {
                bytes.extend_from_slice(&chunk[..nul]);
                break;
            }
            bytes.extend_from_slice(chunk);
            remaining -= len;
            if remaining > 0 {
                addr = next_page(addr, len)?;
            }
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Write a string followed by a NUL terminator.
    pub fn write_cstring(&mut self, addr: Addr, s: &str) -> Result<(), MemError> {
        self.write_bytes(addr, s.as_bytes())?;
        self.write_u8(addr + s.len() as u64, 0)
    }
}

/// The address `len` bytes past `addr`, where a multi-page access
/// continues on the next page.
fn next_page(addr: Addr, len: usize) -> Result<Addr, MemError> {
    addr.checked_add(len as u64)
        .ok_or(MemError::AddressOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let mut mem = Memory::new();
        assert_eq!(
            mem.read_u8(0x1000),
            Err(MemError::Unmapped { addr: 0x1000 })
        );
        assert_eq!(
            mem.write_word(0x2000, 7),
            Err(MemError::Unmapped { addr: 0x2000 })
        );
    }

    #[test]
    fn null_page_is_never_mapped_by_default() {
        let mem = Memory::new();
        assert!(!mem.is_mapped(0));
        assert!(mem.read_word(0).is_err());
    }

    #[test]
    fn mapped_region_reads_back_zero_then_written_values() {
        let mut mem = Memory::new();
        mem.map_region(0x10_000, 64);
        assert_eq!(mem.read_word(0x10_000).unwrap(), 0);
        mem.write_word(0x10_008, -42).unwrap();
        assert_eq!(mem.read_word(0x10_008).unwrap(), -42);
        mem.write_u8(0x10_001, 0xAB).unwrap();
        assert_eq!(mem.read_u8(0x10_001).unwrap(), 0xAB);
    }

    #[test]
    fn word_access_straddling_pages_works() {
        let mut mem = Memory::new();
        mem.map_region(PAGE_SIZE - 8, 16);
        let addr = PAGE_SIZE - 4;
        mem.write_word(addr, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_word(addr).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn word_access_straddling_into_unmapped_page_faults() {
        let mut mem = Memory::new();
        // Map only the first page; a word write near its end spills over.
        mem.map_region(0, PAGE_SIZE);
        assert!(mem.write_word(PAGE_SIZE - 4, 1).is_err());
    }

    #[test]
    fn cstring_roundtrip_and_truncation() {
        let mut mem = Memory::new();
        mem.map_region(0x20_000, PAGE_SIZE);
        mem.write_cstring(0x20_000, "hello").unwrap();
        assert_eq!(mem.read_cstring(0x20_000, 100).unwrap(), "hello");
        assert_eq!(mem.read_cstring(0x20_000, 3).unwrap(), "hel");
    }

    #[test]
    fn mapping_twice_does_not_reset_contents() {
        let mut mem = Memory::new();
        mem.map_region(0x30_000, 8);
        mem.write_word(0x30_000, 9).unwrap();
        mem.map_region(0x30_000, PAGE_SIZE);
        assert_eq!(mem.read_word(0x30_000).unwrap(), 9);
    }

    #[test]
    fn clones_share_pages_until_written() {
        let mut mem = Memory::new();
        mem.map_region(0x40_000, PAGE_SIZE * 3);
        mem.write_word(0x40_000, 1).unwrap();
        let mut fork = mem.clone();
        assert_eq!(fork.pages_shared_with(&mem), 3, "clone is COW, not a copy");
        assert_eq!(fork.digest(), mem.digest());

        // Writing through the fork copies only the touched page.
        fork.write_word(0x40_000, 2).unwrap();
        assert_eq!(fork.pages_shared_with(&mem), 2);
        assert_eq!(mem.read_word(0x40_000).unwrap(), 1, "original unchanged");
        assert_eq!(fork.read_word(0x40_000).unwrap(), 2);
        assert_ne!(fork.digest(), mem.digest());

        // Writing the original value back restores byte identity (digests
        // compare contents, not sharing).
        fork.write_word(0x40_000, 1).unwrap();
        assert_eq!(fork.digest(), mem.digest());
    }

    #[test]
    fn mapped_bytes_accounting() {
        let mut mem = Memory::new();
        mem.map_region(0, 1);
        assert_eq!(mem.mapped_bytes(), PAGE_SIZE);
        mem.map_region(0, PAGE_SIZE * 2);
        assert_eq!(mem.mapped_bytes(), PAGE_SIZE * 2);
    }
}
