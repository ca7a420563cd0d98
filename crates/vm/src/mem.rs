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
//! only the touched page. A page is an array of atomic words, so a store to
//! a page this memory alone holds writes in place, with no compare-and-swap
//! and no `unsafe`. This is what makes [`crate::MachineSnapshot`]
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
use std::sync::atomic::{self, AtomicU64, Ordering};
use std::sync::Arc;

use lfi_arch::{Addr, Word};

/// Size of a memory page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Bytes in a machine word.
const WORD_BYTES: usize = std::mem::size_of::<Word>();

/// Words in a page.
const PAGE_WORDS: usize = PAGE_SIZE as usize / WORD_BYTES;

/// One page of memory: 512 words, each holding eight bytes of the page in
/// little-endian order, so the byte at in-page offset `o` is byte `o % 8`
/// of word `o / 8` on any host. Relaxed loads and stores of an
/// `AtomicU64` compile to plain moves.
///
/// Pages are shared between clones of a [`Memory`] through an `Arc`, and a
/// store writes in place only when `Arc::strong_count` is 1. That check
/// needs no compare-and-swap because of two invariants:
///
/// - no `Weak` to a page is ever created (this module is the only one that
///   sees the type, and it never calls `Arc::downgrade`), so the strong
///   count alone says whether anyone else can reach the page;
/// - the count is checked under `&mut Memory`, so no other handle on this
///   memory can clone the `Arc` meanwhile. Other holders can only drop
///   theirs, which lowers the count and never raises it.
///
/// Were either broken, a store could write into a page a clone still
/// reads. It would still be no data race (every access is atomic), which
/// is why the crate needs no `unsafe` for it.
#[derive(Debug)]
struct Page([AtomicU64; PAGE_WORDS]);

impl Page {
    fn zeroed() -> Page {
        Page([const { AtomicU64::new(0) }; PAGE_WORDS])
    }

    // The accessors mask word indices to the page so the compiler drops
    // the bounds checks; callers keep offsets inside the page.

    #[inline(always)]
    fn word(&self, index: usize) -> u64 {
        self.0[index % PAGE_WORDS].load(Ordering::Relaxed)
    }

    #[inline(always)]
    fn set_word(&self, index: usize, value: u64) {
        self.0[index % PAGE_WORDS].store(value, Ordering::Relaxed);
    }

    #[inline(always)]
    fn read_u8(&self, offset: usize) -> u8 {
        (self.word(offset / WORD_BYTES) >> (offset % WORD_BYTES * 8)) as u8
    }

    #[inline(always)]
    fn write_u8(&self, offset: usize, value: u8) {
        let index = offset / WORD_BYTES;
        let shift = offset % WORD_BYTES * 8;
        let word = self.word(index) & !(0xff << shift);
        self.set_word(index, word | u64::from(value) << shift);
    }

    /// The word at in-page `offset`, which is at most `PAGE_SIZE - 8`. An
    /// unaligned word is put together from the two words it spans.
    #[inline(always)]
    fn read_word(&self, offset: usize) -> Word {
        let index = offset / WORD_BYTES;
        let shift = offset % WORD_BYTES * 8;
        let low = self.word(index);
        if shift == 0 {
            return low as Word;
        }
        (low >> shift | self.word(index + 1) << (64 - shift)) as Word
    }

    /// Store a word at in-page `offset`, which is at most `PAGE_SIZE - 8`.
    #[inline(always)]
    fn write_word(&self, offset: usize, value: Word) {
        let value = value as u64;
        let index = offset / WORD_BYTES;
        let shift = offset % WORD_BYTES * 8;
        if shift == 0 {
            self.set_word(index, value);
            return;
        }
        // The low `shift` bits of the first word and the rest of the
        // second stay.
        let keep = u64::MAX >> (64 - shift);
        self.set_word(index, self.word(index) & keep | value << shift);
        self.set_word(
            index + 1,
            self.word(index + 1) & !keep | value >> (64 - shift),
        );
    }

    /// Copy the bytes at in-page `offset` into `buf`, which must not run
    /// past the page: single bytes up to the first word boundary, then
    /// whole words, then the bytes after the last one.
    fn read_bytes(&self, offset: usize, buf: &mut [u8]) {
        let end = offset + buf.len();
        let head = offset.next_multiple_of(WORD_BYTES) - offset;
        let (head, words) = buf.split_at_mut(head.min(buf.len()));
        for (at, byte) in (offset..).zip(head.iter_mut()) {
            *byte = self.read_u8(at);
        }
        let first = (offset + head.len()) / WORD_BYTES;
        let mut words = words.chunks_exact_mut(WORD_BYTES);
        for (index, chunk) in (first..).zip(&mut words) {
            chunk.copy_from_slice(&self.word(index).to_le_bytes());
        }
        let tail = words.into_remainder();
        for (at, byte) in (end - tail.len()..).zip(tail) {
            *byte = self.read_u8(at);
        }
    }

    /// Copy `bytes` to in-page `offset`; they must not run past the page.
    /// Split like [`Page::read_bytes`].
    fn write_bytes(&self, offset: usize, bytes: &[u8]) {
        let head = offset.next_multiple_of(WORD_BYTES) - offset;
        let (head, words) = bytes.split_at(head.min(bytes.len()));
        for (at, &byte) in (offset..).zip(head) {
            self.write_u8(at, byte);
        }
        let first = (offset + head.len()) / WORD_BYTES;
        let mut words = words.chunks_exact(WORD_BYTES);
        for (index, chunk) in (first..).zip(&mut words) {
            let chunk: [u8; WORD_BYTES] = chunk.try_into().expect("a whole word");
            self.set_word(index, u64::from_le_bytes(chunk));
        }
        let tail = words.remainder();
        let end = offset + bytes.len();
        for (at, &byte) in (end - tail.len()..).zip(tail) {
            self.write_u8(at, byte);
        }
    }
}

/// The page in `page` ready for a store: written in place if this memory
/// holds the only reference, else first copied into the slot (see
/// [`Page`] for why the check needs no compare-and-swap).
#[inline(always)]
fn unshare(page: &mut Arc<Page>) -> &Page {
    if Arc::strong_count(page) == 1 {
        // As `Arc::get_mut` does: order this memory's stores after
        // everything the last other holder did before it dropped its
        // reference.
        atomic::fence(Ordering::Acquire);
    } else {
        copy_into(page);
    }
    page
}

/// Replace a shared page with a private copy of it.
#[cold]
#[inline(never)]
fn copy_into(page: &mut Arc<Page>) {
    let copy = Page(std::array::from_fn(|index| {
        AtomicU64::new(page.word(index))
    }));
    *page = Arc::new(copy);
}

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
                self.pages.push(Arc::new(Page::zeroed()));
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
            for word in &self.pages[slot as usize].0 {
                mix(&word.load(Ordering::Relaxed).to_le_bytes());
            }
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

    fn page_mut(&mut self, addr: Addr) -> Result<&Page, MemError> {
        let slot = self.slot(addr)?;
        Ok(unshare(&mut self.pages[slot]))
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: Addr) -> Result<u8, MemError> {
        Ok(self.page(addr)?.read_u8((addr % PAGE_SIZE) as usize))
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), MemError> {
        self.page_mut(addr)?
            .write_u8((addr % PAGE_SIZE) as usize, value);
        Ok(())
    }

    /// Read a 64-bit word (little endian). The access may straddle pages.
    pub fn read_word(&self, addr: Addr) -> Result<Word, MemError> {
        let offset = (addr % PAGE_SIZE) as usize;
        if offset <= PAGE_SIZE as usize - WORD_BYTES {
            return Ok(self.page(addr)?.read_word(offset));
        }
        let mut bytes = [0u8; WORD_BYTES];
        self.read_bytes(addr, &mut bytes)?;
        Ok(Word::from_le_bytes(bytes))
    }

    /// Write a 64-bit word (little endian). The access may straddle pages;
    /// a straddling write that faults on its second page has already
    /// written the bytes on the first.
    pub fn write_word(&mut self, addr: Addr, value: Word) -> Result<(), MemError> {
        let offset = (addr % PAGE_SIZE) as usize;
        if offset <= PAGE_SIZE as usize - WORD_BYTES {
            self.page_mut(addr)?.write_word(offset, value);
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
            self.page(addr)?.read_bytes(offset, chunk);
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
            self.page_mut(addr)?.write_bytes(offset, chunk);
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
        'pages: while remaining > 0 {
            let offset = (addr % PAGE_SIZE) as usize;
            let len = remaining.min(PAGE_SIZE as usize - offset);
            let page = self.page(addr)?;
            // Copy a block at a time, so a short string costs a short copy.
            const BLOCK: usize = 64;
            let mut buf = [0u8; BLOCK];
            for start in (offset..offset + len).step_by(BLOCK) {
                let block = &mut buf[..(offset + len - start).min(BLOCK)];
                page.read_bytes(start, block);
                if let Some(nul) = block.iter().position(|&b| b == 0) {
                    bytes.extend_from_slice(&block[..nul]);
                    break 'pages;
                }
                bytes.extend_from_slice(block);
            }
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
    #[inline(always)]
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

    #[inline(always)]
    pub(crate) fn read_u8(&mut self, mem: &Memory, addr: Addr) -> Result<u8, MemError> {
        let slot = self.slot(mem, addr)?;
        Ok(mem.pages[slot].read_u8((addr % PAGE_SIZE) as usize))
    }

    #[inline(always)]
    pub(crate) fn write_u8(
        &mut self,
        mem: &mut Memory,
        addr: Addr,
        value: u8,
    ) -> Result<(), MemError> {
        let slot = self.slot(mem, addr)?;
        unshare(&mut mem.pages[slot]).write_u8((addr % PAGE_SIZE) as usize, value);
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn read_word(&mut self, mem: &Memory, addr: Addr) -> Result<Word, MemError> {
        let offset = (addr % PAGE_SIZE) as usize;
        if offset > PAGE_SIZE as usize - WORD_BYTES {
            return mem.read_word(addr);
        }
        let slot = self.slot(mem, addr)?;
        Ok(mem.pages[slot].read_word(offset))
    }

    #[inline(always)]
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
        unshare(&mut mem.pages[slot]).write_word(offset, value);
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
