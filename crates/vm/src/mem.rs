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
//!
//! Each mapped page has a slot: an index into the page vector, handed out
//! in mapping order. Pages are never unmapped, so a slot stays valid for
//! the life of the memory (and of every clone). The interpreter keeps a
//! small page-to-slot cache of its own while it runs, so most loads and
//! stores skip the page-map probe.

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

/// Hasher for the VM's integer-keyed maps: one multiply by a 64-bit odd
/// constant per integer (Fibonacci hashing). The low bits stay distinct for
/// consecutive keys and the high bits are well mixed, which is all the
/// page map and the network's `(node, port)` queue map need, at a fraction
/// of SipHash's cost. It is deterministic; nothing depends on either map's
/// iteration order. It offers no protection against keys crafted to
/// collide, which is fine: the keys are pages of the regions the VM itself
/// maps (data, heap, stacks) and endpoints the simulated programs bind,
/// not values chosen from outside.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

/// A `HashMap` keyed with [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

impl Hasher for IntHasher {
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
    /// Page index -> slot in `pages`.
    slots: IntMap<u64, u32>,
    /// Mapped pages in mapping order.
    pages: Vec<Arc<Page>>,
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
            self.slots.entry(page).or_insert_with(|| {
                let slot = u32::try_from(self.pages.len()).expect("page slots fit in u32");
                self.pages.push(Arc::new([0u8; PAGE_SIZE as usize]));
                slot
            });
        }
    }

    /// Whether `addr` lies in a mapped page.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.slots.contains_key(&(addr / PAGE_SIZE))
    }

    /// Total number of bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Number of pages physically shared with `other` (same backing
    /// allocation, i.e. untouched since the clone that separated them).
    pub fn pages_shared_with(&self, other: &Memory) -> usize {
        self.slots
            .iter()
            .filter(|(index, &slot)| {
                other.slots.get(index).is_some_and(|&theirs| {
                    Arc::ptr_eq(&self.pages[slot as usize], &other.pages[theirs as usize])
                })
            })
            .count()
    }

    /// A stable FNV-1a digest of the full memory contents (mapped page
    /// indices and bytes, in page order). Used to assert snapshot/restore
    /// round-trips are byte-identical.
    pub fn digest(&self) -> u64 {
        let mut indices: Vec<(u64, u32)> = self.slots.iter().map(|(&i, &s)| (i, s)).collect();
        indices.sort_unstable();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for byte in bytes {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (index, slot) in indices {
            mix(&index.to_le_bytes());
            mix(self.pages[slot as usize].as_ref());
        }
        hash
    }

    /// Slot of the page containing `addr`.
    fn slot(&self, addr: Addr) -> Result<usize, MemError> {
        self.slots
            .get(&(addr / PAGE_SIZE))
            .map(|&slot| slot as usize)
            .ok_or(MemError::Unmapped { addr })
    }

    fn page(&self, addr: Addr) -> Result<&Page, MemError> {
        Ok(&self.pages[self.slot(addr)?])
    }

    fn page_mut(&mut self, addr: Addr) -> Result<&mut Page, MemError> {
        let slot = self.slot(addr)?;
        Ok(Arc::make_mut(&mut self.pages[slot]))
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
        let mut bytes = [0u8; WORD_BYTES];
        self.read_bytes(addr, &mut bytes)?;
        Ok(Word::from_le_bytes(bytes))
    }

    /// Write a 64-bit word (little endian). The access may straddle pages;
    /// a straddling write that faults on its second page has already
    /// written the bytes on the first.
    pub fn write_word(&mut self, addr: Addr, value: Word) -> Result<(), MemError> {
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

/// Entries in a [`PageCache`]; a power of two.
const CACHE_ENTRIES: usize = 16;

/// A direct-mapped page-to-slot cache for one stretch of interpretation.
///
/// The interpreter creates one on the stack for each `Machine::run` call,
/// so consecutive stack and data accesses skip the page-map probe. It
/// holds no reference into the memory it caches: a cached slot stays valid
/// because pages are never unmapped and copy on write replaces a page in
/// its own slot, and a page mapped after the cache was filled is simply a
/// miss. Keeping the cache out of [`Memory`] keeps
/// `Memory` free of interior mutability, so snapshots stay `Sync`.
///
/// Every access has the same result as the [`Memory`] method of the same
/// name; a word that straddles two pages takes that method's path.
pub(crate) struct PageCache {
    /// `(page index, slot)`; a page index of `u64::MAX` (no address has
    /// it) marks an empty entry.
    entries: [(u64, u32); CACHE_ENTRIES],
}

impl PageCache {
    pub(crate) fn new() -> PageCache {
        PageCache {
            entries: [(u64::MAX, 0); CACHE_ENTRIES],
        }
    }

    /// Slot of the page containing `addr`, from the cache or the page map.
    #[inline]
    fn slot(&mut self, mem: &Memory, addr: Addr) -> Result<usize, MemError> {
        let page = addr / PAGE_SIZE;
        let entry = &mut self.entries[page as usize % CACHE_ENTRIES];
        if entry.0 == page {
            return Ok(entry.1 as usize);
        }
        let slot = mem.slot(addr)?;
        *entry = (page, slot as u32);
        Ok(slot)
    }

    #[inline]
    pub(crate) fn read_u8(&mut self, mem: &Memory, addr: Addr) -> Result<u8, MemError> {
        let slot = self.slot(mem, addr)?;
        Ok(mem.pages[slot][(addr % PAGE_SIZE) as usize])
    }

    #[inline]
    pub(crate) fn write_u8(
        &mut self,
        mem: &mut Memory,
        addr: Addr,
        value: u8,
    ) -> Result<(), MemError> {
        let slot = self.slot(mem, addr)?;
        Arc::make_mut(&mut mem.pages[slot])[(addr % PAGE_SIZE) as usize] = value;
        Ok(())
    }

    #[inline]
    pub(crate) fn read_word(&mut self, mem: &Memory, addr: Addr) -> Result<Word, MemError> {
        let offset = (addr % PAGE_SIZE) as usize;
        if offset > PAGE_SIZE as usize - WORD_BYTES {
            return mem.read_word(addr);
        }
        let slot = self.slot(mem, addr)?;
        let mut bytes = [0u8; WORD_BYTES];
        bytes.copy_from_slice(&mem.pages[slot][offset..offset + WORD_BYTES]);
        Ok(Word::from_le_bytes(bytes))
    }

    #[inline]
    pub(crate) fn write_word(
        &mut self,
        mem: &mut Memory,
        addr: Addr,
        value: Word,
    ) -> Result<(), MemError> {
        let offset = (addr % PAGE_SIZE) as usize;
        if offset > PAGE_SIZE as usize - WORD_BYTES {
            return mem.write_word(addr, value);
        }
        let slot = self.slot(mem, addr)?;
        Arc::make_mut(&mut mem.pages[slot])[offset..offset + WORD_BYTES]
            .copy_from_slice(&value.to_le_bytes());
        Ok(())
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
    fn page_cache_accesses_match_memory() {
        let mut mem = Memory::new();
        mem.map_region(0x40_000, PAGE_SIZE * 2);
        let mut cache = PageCache::new();
        cache.write_word(&mut mem, 0x40_010, 7).unwrap();
        assert_eq!(mem.read_word(0x40_010), Ok(7));
        assert_eq!(cache.read_word(&mem, 0x40_010), Ok(7));

        // A word straddling the two mapped pages.
        let straddle = 0x40_000 + PAGE_SIZE - 3;
        cache.write_word(&mut mem, straddle, -2).unwrap();
        assert_eq!(mem.read_word(straddle), Ok(-2));
        assert_eq!(cache.read_word(&mem, straddle), Ok(-2));

        // A word straddling into the unmapped page writes the same bytes
        // before it faults as `Memory::write_word`.
        let mut reference = mem.clone();
        let end = 0x40_000 + 2 * PAGE_SIZE - 4;
        assert_eq!(
            cache.write_word(&mut mem, end, -1),
            reference.write_word(end, -1)
        );
        assert_eq!(mem.digest(), reference.digest());

        // Page 0x50 shares a cache entry with page 0x40. It misses while
        // unmapped and hits once mapped; page 0x40 then misses and is
        // looked up again.
        assert!(cache.read_u8(&mem, 0x50_000).is_err());
        mem.map_region(0x50_000, 1);
        cache.write_u8(&mut mem, 0x50_000, 9).unwrap();
        assert_eq!(mem.read_u8(0x50_000), Ok(9));
        assert_eq!(cache.read_word(&mem, 0x40_010), Ok(7));

        // Stores through the cache copy on write.
        let fork = mem.clone();
        cache.write_word(&mut mem, 0x40_010, 8).unwrap();
        assert_eq!(fork.read_word(0x40_010), Ok(7));
        assert_eq!(mem.pages_shared_with(&fork), 2);
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
