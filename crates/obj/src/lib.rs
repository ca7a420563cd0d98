//! Object and shared-library format for the LFI reproduction.
//!
//! A [`Module`] is the substrate's analogue of an ELF object: it carries a
//! code section of fixed-width instructions, an initialized data section, a
//! BSS size, a symbol-reference table used by `callsym`/`leasym`/`tls*`
//! instructions, an export table, data relocations, and a DWARF-like line
//! table mapping code offsets back to source file/line. Everything the LFI
//! tool chain needs — call-site discovery through symbol references, library
//! profiling of exported functions, file/line triggers, coverage accounting —
//! is expressed in terms of this format.

pub mod module;
pub mod symbol;

pub use module::{LineEntry, Module, ModuleKind, ValidateError};
pub use symbol::{DataReloc, Export, SymKind, SymRef};
