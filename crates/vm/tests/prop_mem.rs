//! Differential property test: [`Memory`] against a byte-at-a-time
//! reference model.
//!
//! The model performs every multi-byte access as a sequence of single-byte
//! accesses in ascending address order, stopping at the first fault. That
//! is the guest-visible contract of `Memory`: a word or range that
//! straddles into an unmapped page writes every byte before the fault and
//! then reports the first unmapped address, and an access running past the
//! top of the address space reports `AddressOverflow` at the first byte
//! that would wrap. Random operation sequences run against both, over a
//! handful of pages (including the topmost page) with addresses biased to
//! page edges and to unaligned words inside a page, and must agree on every value, every error, the partially
//! filled read buffers, `digest()`, `mapped_bytes()` and — across a
//! clone — `pages_shared_with`.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use lfi_vm::{MemError, Memory, PAGE_SIZE};
use proptest::prelude::*;

/// The byte-at-a-time model. `dirty` holds the pages written since the
/// last clone (those no longer share their backing with the clone).
#[derive(Clone, Default)]
struct Model {
    pages: BTreeMap<u64, Vec<u8>>,
    dirty: BTreeSet<u64>,
}

impl Model {
    fn map_region(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        for page in start / PAGE_SIZE..=(start + len - 1) / PAGE_SIZE {
            if let Entry::Vacant(slot) = self.pages.entry(page) {
                slot.insert(vec![0; PAGE_SIZE as usize]);
                self.dirty.insert(page);
            }
        }
    }

    fn read_u8(&self, addr: u64) -> Result<u8, MemError> {
        self.pages
            .get(&(addr / PAGE_SIZE))
            .map(|page| page[(addr % PAGE_SIZE) as usize])
            .ok_or(MemError::Unmapped { addr })
    }

    fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), MemError> {
        let page = self
            .pages
            .get_mut(&(addr / PAGE_SIZE))
            .ok_or(MemError::Unmapped { addr })?;
        page[(addr % PAGE_SIZE) as usize] = value;
        self.dirty.insert(addr / PAGE_SIZE);
        Ok(())
    }

    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        for (i, slot) in buf.iter_mut().enumerate() {
            let a = addr
                .checked_add(i as u64)
                .ok_or(MemError::AddressOverflow)?;
            *slot = self.read_u8(a)?;
        }
        Ok(())
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr
                .checked_add(i as u64)
                .ok_or(MemError::AddressOverflow)?;
            self.write_u8(a, b)?;
        }
        Ok(())
    }

    fn read_word(&self, addr: u64) -> Result<i64, MemError> {
        let mut bytes = [0u8; 8];
        self.read_bytes(addr, &mut bytes)?;
        Ok(i64::from_le_bytes(bytes))
    }

    fn write_word(&mut self, addr: u64, value: i64) -> Result<(), MemError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    fn read_cstring(&self, addr: u64, max_len: usize) -> Result<String, MemError> {
        let mut bytes = Vec::new();
        for i in 0..max_len as u64 {
            let a = addr.checked_add(i).ok_or(MemError::AddressOverflow)?;
            let b = self.read_u8(a)?;
            if b == 0 {
                break;
            }
            bytes.push(b);
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// The same FNV-1a digest `Memory::digest` documents: page indices and
    /// bytes, in page order.
    fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for byte in bytes {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (index, page) in &self.pages {
            mix(&index.to_le_bytes());
            mix(page);
        }
        hash
    }

    fn mapped_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }
}

/// Pages the operations touch: a run of low pages, a run higher up, and the
/// topmost page of the address space (where ranges run into overflow).
const PAGES: [u64; 8] = [
    1,
    2,
    3,
    4,
    0x50_000,
    0x50_001,
    0x50_003,
    u64::MAX / PAGE_SIZE,
];

/// In-page offset of the words that unaligned accesses overlap on: four
/// words in the middle of a page, so their split loads and stores do not
/// straddle a page.
const HOT_WORDS: u64 = 0x7f0;

/// An address on one of [`PAGES`]: usually within a word of a page edge,
/// often at any byte of four words in the middle of the page (so
/// unaligned words overlap each other and aligned ones), and otherwise
/// anywhere in the page.
fn address() -> impl Strategy<Value = u64> {
    (0..PAGES.len(), 0u64..40, any::<bool>(), 0u64..PAGE_SIZE).prop_map(
        |(page, near, from_end, anywhere)| {
            let offset = match near {
                0..=15 if from_end => PAGE_SIZE - 1 - near,
                0..=15 => near,
                16..=31 => HOT_WORDS + 2 * (near - 16) + u64::from(from_end),
                _ => anywhere,
            };
            PAGES[page] * PAGE_SIZE + offset
        },
    )
}

#[derive(Debug, Clone)]
enum Op {
    Map { addr: u64, len: u64 },
    WriteU8 { addr: u64, value: u8 },
    WriteWord { addr: u64, value: i64 },
    WriteBytes { addr: u64, bytes: Vec<u8> },
    WriteCString { addr: u64, text: String },
    ReadU8 { addr: u64 },
    ReadWord { addr: u64 },
    ReadBytes { addr: u64, len: usize },
    ReadCString { addr: u64, max_len: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (address(), 1u64..3 * PAGE_SIZE).prop_map(|(addr, len)| Op::Map {
            // Keep `addr + len` inside the address space.
            addr: addr.min(u64::MAX - len),
            len,
        }),
        (address(), any::<u8>()).prop_map(|(addr, value)| Op::WriteU8 { addr, value }),
        (address(), any::<i64>()).prop_map(|(addr, value)| Op::WriteWord { addr, value }),
        (address(), proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(addr, bytes)| Op::WriteBytes { addr, bytes }),
        (address(), 0usize..2 * PAGE_SIZE as usize)
            .prop_map(|(addr, len)| Op::ReadBytes { addr, len }),
        // Strings without interior NULs, stored clear of the top page so
        // the terminator address cannot wrap.
        (address(), "[a-z]{0,24}").prop_map(|(addr, text)| Op::WriteCString {
            addr: addr.min(u64::MAX - PAGE_SIZE),
            text,
        }),
        address().prop_map(|addr| Op::ReadU8 { addr }),
        address().prop_map(|addr| Op::ReadWord { addr }),
        address().prop_map(|addr| Op::ReadWord { addr }),
        (address(), 0usize..5000).prop_map(|(addr, max_len)| Op::ReadCString { addr, max_len }),
    ]
}

/// Apply `op` to both sides and assert they agree on its result.
fn apply(mem: &mut Memory, model: &mut Model, op: &Op) {
    match op {
        Op::Map { addr, len } => {
            mem.map_region(*addr, *len);
            model.map_region(*addr, *len);
        }
        Op::WriteU8 { addr, value } => {
            assert_eq!(mem.write_u8(*addr, *value), model.write_u8(*addr, *value))
        }
        Op::WriteWord { addr, value } => {
            assert_eq!(
                mem.write_word(*addr, *value),
                model.write_word(*addr, *value),
                "{op:?}"
            )
        }
        Op::WriteBytes { addr, bytes } => {
            assert_eq!(
                mem.write_bytes(*addr, bytes),
                model.write_bytes(*addr, bytes),
                "{op:?}"
            )
        }
        Op::WriteCString { addr, text } => {
            let expected = model
                .write_bytes(*addr, text.as_bytes())
                .and_then(|()| model.write_u8(addr + text.len() as u64, 0));
            assert_eq!(mem.write_cstring(*addr, text), expected, "{op:?}");
        }
        Op::ReadU8 { addr } => assert_eq!(mem.read_u8(*addr), model.read_u8(*addr)),
        Op::ReadWord { addr } => {
            assert_eq!(mem.read_word(*addr), model.read_word(*addr), "{op:?}")
        }
        Op::ReadBytes { addr, len } => {
            // Fill both buffers with a marker so a partial read that stops
            // at a fault must leave exactly the same prefix written.
            let mut got = vec![0xA5; *len];
            let mut want = vec![0xA5; *len];
            assert_eq!(
                mem.read_bytes(*addr, &mut got),
                model.read_bytes(*addr, &mut want),
                "{op:?}"
            );
            assert!(got == want, "{op:?}: read buffers differ");
        }
        Op::ReadCString { addr, max_len } => {
            assert_eq!(
                mem.read_cstring(*addr, *max_len),
                model.read_cstring(*addr, *max_len),
                "{op:?}"
            )
        }
    }
}

fn assert_same(mem: &Memory, model: &Model) {
    assert_eq!(mem.digest(), model.digest());
    assert_eq!(mem.mapped_bytes(), model.mapped_bytes());
    for page in PAGES {
        assert_eq!(
            mem.is_mapped(page * PAGE_SIZE),
            model.pages.contains_key(&page)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memory_matches_the_byte_at_a_time_model(
        setup in proptest::collection::vec(op(), 1..40),
        parent_ops in proptest::collection::vec(op(), 0..20),
        fork_ops in proptest::collection::vec(op(), 0..20),
    ) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        // Start with most of the pages mapped, so accesses mostly straddle
        // into mapped or unmapped neighbours rather than fault outright.
        for (i, page) in PAGES.iter().enumerate() {
            if i % 3 != 2 {
                mem.map_region(page * PAGE_SIZE, 1);
                model.map_region(page * PAGE_SIZE, 1);
            }
        }
        for op in &setup {
            apply(&mut mem, &mut model, op);
        }
        assert_same(&mem, &model);

        // Clone, then diverge both sides: every page either side writes or
        // newly maps stops being shared; every other page stays shared.
        let mut fork = mem.clone();
        let mut fork_model = model.clone();
        model.dirty.clear();
        fork_model.dirty.clear();
        prop_assert_eq!(fork.pages_shared_with(&mem), model.pages.len());
        for op in &parent_ops {
            apply(&mut mem, &mut model, op);
        }
        for op in &fork_ops {
            apply(&mut fork, &mut fork_model, op);
        }
        assert_same(&mem, &model);
        assert_same(&fork, &fork_model);
        let shared = fork_model
            .pages
            .keys()
            .filter(|page| {
                model.pages.contains_key(page)
                    && !model.dirty.contains(page)
                    && !fork_model.dirty.contains(page)
            })
            .count();
        prop_assert_eq!(fork.pages_shared_with(&mem), shared);
        prop_assert_eq!(mem.pages_shared_with(&fork), shared);
    }
}
