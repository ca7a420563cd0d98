//! Loader and dynamic linker.
//!
//! The loader assembles an executable and its shared libraries into an
//! [`Image`]: every module gets a code and a data base address, every symbol
//! reference is resolved following the preload-aware search order, and data
//! relocations are prepared. Interposition works exactly like the paper's
//! LD_PRELOAD shims: function names registered with [`Loader::interpose`]
//! resolve to a *hook* instead of the original definition, and the hook
//! carries the original address so the LFI runtime can fall through to it
//! when it decides not to inject.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use lfi_arch::{decode_all, Addr, CallConv};
use lfi_obj::{Export, Module, ModuleKind, SymKind};

use crate::mem::PAGE_SIZE;
use crate::op::Op;

/// Spacing between module base addresses.
const MODULE_SPACING: Addr = 0x0100_0000;
/// Base address of the first module.
const FIRST_MODULE_BASE: Addr = 0x1000_0000;

/// A module mapped into an image.
#[derive(Debug, Clone)]
pub struct LoadedModule {
    /// The module contents.
    pub module: Module,
    /// Position in the image's module list.
    pub index: usize,
    /// Virtual address of the first instruction.
    pub code_base: Addr,
    /// Virtual address of the start of the data section (BSS follows it).
    pub data_base: Addr,
    /// Instructions lowered for the interpreter (index = offset /
    /// INSN_SIZE).
    pub(crate) ops: Vec<Op>,
    /// Function exports as `(offset, export index)`, sorted by offset once
    /// at load time. The sort is stable, so of several exports at one offset
    /// the last in export order comes last.
    functions: Vec<(u64, usize)>,
}

impl LoadedModule {
    /// Total size of the data + BSS region.
    pub fn data_size(&self) -> u64 {
        self.module.data.len() as u64 + self.module.bss_size
    }

    /// Whether a virtual address falls inside this module's code range.
    pub fn contains_code(&self, addr: Addr) -> bool {
        addr >= self.code_base && addr < self.code_base + self.module.code.len() as u64
    }

    /// The function export whose code range contains `offset`: the export
    /// [`Module::containing_function`] returns (the last of several at one
    /// offset included), found by binary search instead of a scan.
    pub fn containing_function(&self, offset: u64) -> Option<&Export> {
        let end = self
            .functions
            .partition_point(|&(start, _)| start <= offset);
        let &(_, index) = self.functions.get(end.checked_sub(1)?)?;
        Some(&self.module.exports[index])
    }
}

/// How one symbol reference of one module resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// A function definition at an absolute address.
    Func { addr: Addr },
    /// A data object at an absolute address.
    Data { addr: Addr },
    /// A thread-local variable. The loader numbers the image's distinct
    /// TLS names densely, and each thread keeps one word per `slot`.
    Tls { name: String, slot: usize },
    /// An interposed function: calls are redirected to the LFI runtime hook;
    /// `original` is the address of the definition that would have been used
    /// without interposition (if any), so the hook can forward to it.
    Hooked {
        /// Function name, as appearing in the injection scenario.
        name: String,
        /// The non-interposed resolution, if the symbol is defined anywhere.
        original: Option<Addr>,
    },
    /// No definition was found; calling or taking the address of this symbol
    /// faults at run time.
    Unresolved { name: String },
}

/// A fully loaded and resolved program image.
#[derive(Debug, Clone)]
pub struct Image {
    /// Modules in load order: executable first, then libraries.
    pub modules: Vec<LoadedModule>,
    /// Per-module, per-symref resolutions.
    resolutions: Vec<Vec<Resolution>>,
    /// Thread-local variable names by slot. Slot `ERRNO_SLOT` is always
    /// `errno`, which an injected failure may store even in an image that
    /// never names it.
    tls_names: Vec<String>,
    /// Address of `main` in the executable.
    pub entry: Addr,
}

impl Image {
    /// TLS slot of `errno`.
    pub(crate) const ERRNO_SLOT: usize = 0;

    /// Resolution of symref `sym` of module `module_index`.
    pub fn resolution(&self, module_index: usize, sym: u32) -> &Resolution {
        &self.resolutions[module_index][sym as usize]
    }

    /// Number of distinct thread-local variable names: the TLS slots every
    /// thread has.
    pub(crate) fn tls_slots(&self) -> usize {
        self.tls_names.len()
    }

    /// Name of the thread-local variable in `slot`.
    pub(crate) fn tls_name(&self, slot: usize) -> &str {
        &self.tls_names[slot]
    }

    /// The module whose code range contains `addr`, with the offset inside it.
    pub fn find_code(&self, addr: Addr) -> Option<(usize, u64)> {
        self.modules
            .iter()
            .find(|m| m.contains_code(addr))
            .map(|m| (m.index, addr - m.code_base))
    }

    /// Address of a function export, searching the usual symbol order.
    pub fn func_addr(&self, name: &str) -> Option<Addr> {
        self.modules
            .iter()
            .find_map(|m| m.module.func_export(name).map(|e| m.code_base + e.offset))
    }

    /// Address of a data export, searching the usual symbol order.
    pub fn data_addr(&self, name: &str) -> Option<Addr> {
        self.modules.iter().find_map(|m| {
            m.module
                .export(name, SymKind::Data)
                .map(|e| m.data_base + e.offset)
        })
    }

    /// Name of the function containing a code address, if known.
    pub fn func_name_at(&self, addr: Addr) -> Option<(&str, &str)> {
        let (idx, off) = self.find_code(addr)?;
        let module = &self.modules[idx];
        let export = module.containing_function(off)?;
        Some((module.module.name.as_str(), export.name.as_str()))
    }

    /// The executable module (always index 0).
    pub fn executable(&self) -> &LoadedModule {
        &self.modules[0]
    }

    /// Look up a loaded module by name.
    pub fn module_by_name(&self, name: &str) -> Option<&LoadedModule> {
        self.modules.iter().find(|m| m.module.name == name)
    }
}

/// Errors reported while loading an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A needed library was not registered with the loader.
    MissingLibrary {
        /// The missing library name.
        name: String,
        /// The module that needed it.
        needed_by: String,
    },
    /// A module failed structural validation.
    InvalidModule {
        /// Module name.
        name: String,
        /// Human-readable validation problems.
        problems: Vec<String>,
    },
    /// The executable does not define `main`.
    NoEntryPoint,
    /// Two loaded modules share a name.
    DuplicateModule(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::MissingLibrary { name, needed_by } => {
                write!(f, "library `{name}` (needed by `{needed_by}`) not found")
            }
            LoadError::InvalidModule { name, problems } => {
                write!(f, "module `{name}` is invalid: {}", problems.join("; "))
            }
            LoadError::NoEntryPoint => write!(f, "executable does not export `main`"),
            LoadError::DuplicateModule(name) => write!(f, "duplicate module `{name}`"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The dynamic loader. Register libraries and interposed names, then load an
/// executable into an [`Image`].
#[derive(Debug, Clone, Default)]
pub struct Loader {
    libraries: Vec<Module>,
    preload: Vec<Module>,
    interpose: HashSet<String>,
}

impl Loader {
    /// Create an empty loader.
    pub fn new() -> Loader {
        Loader::default()
    }

    /// Register a shared library that `needed` declarations can refer to.
    pub fn add_library(&mut self, module: Module) -> &mut Self {
        self.libraries.push(module);
        self
    }

    /// Register a preloaded library whose exports take precedence over the
    /// regular libraries (the LD_PRELOAD slot). Rarely needed directly —
    /// the LFI runtime uses [`Loader::interpose`] hooks instead — but kept to
    /// mirror the mechanism described in the paper.
    pub fn add_preload(&mut self, module: Module) -> &mut Self {
        self.preload.push(module);
        self
    }

    /// Interpose on a function name: calls through symbol references to this
    /// name will be routed to the [`crate::HookHandler`] at run time.
    pub fn interpose(&mut self, name: impl Into<String>) -> &mut Self {
        self.interpose.insert(name.into());
        self
    }

    /// Interpose on several function names.
    pub fn interpose_all<I, S>(&mut self, names: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for name in names {
            self.interpose(name);
        }
        self
    }

    /// The set of currently interposed names.
    pub fn interposed(&self) -> Vec<String> {
        let mut v: Vec<String> = self.interpose.iter().cloned().collect();
        v.sort();
        v
    }

    /// Load an executable, pulling in preloads and needed libraries, and
    /// resolve every symbol reference.
    pub fn load(&self, exe: Module) -> Result<Image, LoadError> {
        if exe.kind != ModuleKind::Executable || exe.func_export("main").is_none() {
            return Err(LoadError::NoEntryPoint);
        }

        // Assemble the module list: executable, preloads, then needed
        // libraries discovered breadth-first.
        let mut ordered: Vec<Module> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut queue: VecDeque<Module> = VecDeque::new();
        queue.push_back(exe);
        for p in &self.preload {
            queue.push_back(p.clone());
        }
        while let Some(module) = queue.pop_front() {
            if !seen.insert(module.name.clone()) {
                continue;
            }
            for needed in &module.needed {
                if seen.contains(needed) {
                    continue;
                }
                let found = self
                    .libraries
                    .iter()
                    .find(|l| &l.name == needed)
                    .cloned()
                    .ok_or_else(|| LoadError::MissingLibrary {
                        name: needed.clone(),
                        needed_by: module.name.clone(),
                    })?;
                queue.push_back(found);
            }
            ordered.push(module);
        }

        // Validate and lay out modules. Their instructions are lowered
        // once their symbol references are resolved, below.
        let mut loaded = Vec::with_capacity(ordered.len());
        let mut decoded = Vec::with_capacity(ordered.len());
        for (index, module) in ordered.into_iter().enumerate() {
            if let Err(problems) = module.validate() {
                return Err(LoadError::InvalidModule {
                    name: module.name.clone(),
                    problems: problems.iter().map(|p| p.to_string()).collect(),
                });
            }
            let code_base = FIRST_MODULE_BASE + index as Addr * MODULE_SPACING;
            let code_len = module.code.len() as u64;
            let data_base = code_base + code_len.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE;
            let (insn_pairs, decode_err) = decode_all(&module.code);
            debug_assert!(decode_err.is_none(), "validated module failed to decode");
            decoded.push(insn_pairs);
            let mut functions: Vec<(u64, usize)> = module
                .exports
                .iter()
                .enumerate()
                .filter(|(_, e)| e.kind == SymKind::Func)
                .map(|(i, e)| (e.offset, i))
                .collect();
            functions.sort_by_key(|&(offset, _)| offset);
            loaded.push(LoadedModule {
                module,
                index,
                code_base,
                data_base,
                ops: Vec::new(),
                functions,
            });
        }

        // Global export maps. Search order for cross-module resolution:
        // preloads first (they sit right after the executable in the list but
        // take precedence for *function* symbols, which is what LD_PRELOAD
        // does), then the executable, then libraries in load order. For
        // simplicity — and because our executables never export library
        // function names — "first definition in load order, with preloads
        // promoted" collapses to scanning preloads, then load order.
        let preload_names: HashSet<&str> = self.preload.iter().map(|m| m.name.as_str()).collect();
        let mut func_map: HashMap<String, Addr> = HashMap::new();
        let mut data_map: HashMap<String, Addr> = HashMap::new();
        let mut scan_order: Vec<&LoadedModule> = Vec::with_capacity(loaded.len());
        scan_order.extend(
            loaded
                .iter()
                .filter(|m| preload_names.contains(m.module.name.as_str())),
        );
        scan_order.extend(
            loaded
                .iter()
                .filter(|m| !preload_names.contains(m.module.name.as_str())),
        );
        for lm in &scan_order {
            for export in &lm.module.exports {
                match export.kind {
                    SymKind::Func => {
                        func_map
                            .entry(export.name.clone())
                            .or_insert(lm.code_base + export.offset);
                    }
                    SymKind::Data => {
                        data_map
                            .entry(export.name.clone())
                            .or_insert(lm.data_base + export.offset);
                    }
                    SymKind::Tls => {}
                }
            }
        }

        // Number the distinct TLS names, `errno` first.
        let mut tls_names = vec![CallConv::ERRNO_SYMBOL.to_string()];
        let mut tls_slot = |name: &str| match tls_names.iter().position(|n| n == name) {
            Some(slot) => slot,
            None => {
                tls_names.push(name.to_string());
                tls_names.len() - 1
            }
        };

        // Resolve symbol references per module, then lower its code.
        let mut resolutions = Vec::with_capacity(loaded.len());
        for (lm, insns) in loaded.iter_mut().zip(decoded) {
            let mut module_res = Vec::with_capacity(lm.module.symrefs.len());
            for symref in &lm.module.symrefs {
                let res = match symref.kind {
                    SymKind::Tls => Resolution::Tls {
                        name: symref.name.clone(),
                        slot: tls_slot(&symref.name),
                    },
                    SymKind::Data => {
                        // A module's own definition wins for its own data refs.
                        let own = lm
                            .module
                            .export(&symref.name, SymKind::Data)
                            .map(|e| lm.data_base + e.offset);
                        match own.or_else(|| data_map.get(&symref.name).copied()) {
                            Some(addr) => Resolution::Data { addr },
                            None => Resolution::Unresolved {
                                name: symref.name.clone(),
                            },
                        }
                    }
                    SymKind::Func => {
                        let original = func_map.get(&symref.name).copied();
                        if self.interpose.contains(&symref.name) {
                            Resolution::Hooked {
                                name: symref.name.clone(),
                                original,
                            }
                        } else {
                            match original {
                                Some(addr) => Resolution::Func { addr },
                                None => Resolution::Unresolved {
                                    name: symref.name.clone(),
                                },
                            }
                        }
                    }
                };
                module_res.push(res);
            }
            // A TLS instruction may name a symref that is not a TLS
            // symbol; it then accesses the variable of the symref's name.
            let symrefs = &lm.module.symrefs;
            let mut slot_of = |sym: u32| tls_slot(&symrefs[sym as usize].name);
            lm.ops = insns
                .into_iter()
                .map(|(_, insn)| Op::lower(insn, lm.code_base, &module_res, &mut slot_of))
                .collect();
            resolutions.push(module_res);
        }

        let entry = loaded[0]
            .module
            .func_export("main")
            .map(|e| loaded[0].code_base + e.offset)
            .ok_or(LoadError::NoEntryPoint)?;

        Ok(Image {
            modules: loaded,
            resolutions,
            tls_names,
            entry,
        })
    }
}

#[cfg(test)]
mod tests {
    use lfi_arch::{Insn, INSN_SIZE};
    use lfi_obj::{Export, SymRef};

    use super::*;

    fn lib_with_func(name: &str, func: &str) -> Module {
        let mut m = Module::new(name, ModuleKind::SharedLib);
        m.code.extend_from_slice(&Insn::Ret.encode());
        m.exports.push(Export {
            name: func.into(),
            kind: SymKind::Func,
            offset: 0,
            size: INSN_SIZE,
        });
        m
    }

    fn exe_calling(func: &str, needed: &[&str]) -> Module {
        let mut m = Module::new("app", ModuleKind::Executable);
        m.needed = needed.iter().map(|s| s.to_string()).collect();
        m.symrefs.push(SymRef::func(func));
        m.code.extend_from_slice(&Insn::CallSym { sym: 0 }.encode());
        m.code.extend_from_slice(&Insn::Ret.encode());
        m.exports.push(Export {
            name: "main".into(),
            kind: SymKind::Func,
            offset: 0,
            size: 2 * INSN_SIZE,
        });
        m
    }

    #[test]
    fn loads_executable_with_needed_library() {
        let mut loader = Loader::new();
        loader.add_library(lib_with_func("libc", "read"));
        let image = loader.load(exe_calling("read", &["libc"])).expect("load");
        assert_eq!(image.modules.len(), 2);
        assert_eq!(image.modules[0].module.name, "app");
        assert_eq!(image.modules[1].module.name, "libc");
        let read_addr = image.func_addr("read").unwrap();
        assert_eq!(
            image.resolution(0, 0),
            &Resolution::Func { addr: read_addr }
        );
        assert_eq!(image.entry, image.modules[0].code_base);
    }

    #[test]
    fn missing_library_is_reported() {
        let loader = Loader::new();
        let err = loader.load(exe_calling("read", &["libc"])).unwrap_err();
        assert_eq!(
            err,
            LoadError::MissingLibrary {
                name: "libc".into(),
                needed_by: "app".into()
            }
        );
    }

    #[test]
    fn unresolved_symbols_are_tolerated_until_called() {
        let loader = Loader::new();
        let image = loader.load(exe_calling("mystery", &[])).expect("load");
        assert_eq!(
            image.resolution(0, 0),
            &Resolution::Unresolved {
                name: "mystery".into()
            }
        );
    }

    #[test]
    fn interposed_functions_resolve_to_hooks_with_originals() {
        let mut loader = Loader::new();
        loader.add_library(lib_with_func("libc", "read"));
        loader.interpose("read");
        let image = loader.load(exe_calling("read", &["libc"])).expect("load");
        let read_addr = image.func_addr("read").unwrap();
        assert_eq!(
            image.resolution(0, 0),
            &Resolution::Hooked {
                name: "read".into(),
                original: Some(read_addr)
            }
        );
    }

    #[test]
    fn interposition_applies_to_library_to_library_calls_too() {
        // libssl calls read from libc; interposing read must catch that call
        // as well, as LD_PRELOAD does.
        let mut libssl = Module::new("libssl", ModuleKind::SharedLib);
        libssl.needed.push("libc".into());
        libssl.symrefs.push(SymRef::func("read"));
        libssl
            .code
            .extend_from_slice(&Insn::CallSym { sym: 0 }.encode());
        libssl.code.extend_from_slice(&Insn::Ret.encode());
        libssl.exports.push(Export {
            name: "ssl_read".into(),
            kind: SymKind::Func,
            offset: 0,
            size: 2 * INSN_SIZE,
        });

        let mut loader = Loader::new();
        loader.add_library(lib_with_func("libc", "read"));
        loader.add_library(libssl);
        loader.interpose("read");

        let mut exe = exe_calling("ssl_read", &["libssl"]);
        exe.needed.push("libc".into());
        let image = loader.load(exe).expect("load");
        let ssl_index = image.module_by_name("libssl").unwrap().index;
        assert!(matches!(
            image.resolution(ssl_index, 0),
            Resolution::Hooked { .. }
        ));
    }

    #[test]
    fn transitive_needed_libraries_are_loaded_once() {
        let mut liba = lib_with_func("liba", "fa");
        liba.needed.push("libc".into());
        let mut libb = lib_with_func("libb", "fb");
        libb.needed.push("libc".into());
        let mut loader = Loader::new();
        loader.add_library(liba);
        loader.add_library(libb);
        loader.add_library(lib_with_func("libc", "read"));
        let mut exe = exe_calling("fa", &["liba", "libb"]);
        exe.symrefs.push(SymRef::func("fb"));
        let image = loader.load(exe).expect("load");
        assert_eq!(image.modules.len(), 4);
        let names: Vec<_> = image
            .modules
            .iter()
            .map(|m| m.module.name.clone())
            .collect();
        assert_eq!(names, vec!["app", "liba", "libb", "libc"]);
    }

    #[test]
    fn rejects_executable_without_main() {
        let loader = Loader::new();
        let lib = lib_with_func("libc", "read");
        assert!(matches!(loader.load(lib), Err(LoadError::NoEntryPoint)));
    }

    #[test]
    fn find_code_and_func_name_lookup() {
        let mut loader = Loader::new();
        loader.add_library(lib_with_func("libc", "read"));
        let image = loader.load(exe_calling("read", &["libc"])).expect("load");
        let (idx, off) = image.find_code(image.entry + INSN_SIZE).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(off, INSN_SIZE);
        assert_eq!(
            image.func_name_at(image.entry + INSN_SIZE),
            Some(("app", "main"))
        );
        assert_eq!(image.find_code(0xdead_beef), None);
    }
}
