//! Whole-program call graph over loaded modules.
//!
//! The graph records, for every function *name*, the call sites that target
//! it — whether through a `callsym` (symbolic, possibly cross-module, the
//! only kind [`Module::call_sites_of`] sees) or a direct `call` to a local
//! code offset (what the compiler emits for intra-module calls, invisible to
//! symbol-based discovery). The interprocedural propagation pass walks this
//! graph *upward*: from a wrapper function to the callers that consume its
//! return value.
//!
//! Construction is deterministic regardless of the order modules are
//! supplied in: modules are sorted by name before scanning and every edge
//! list is sorted by (module, offset).

use std::collections::BTreeMap;

use lfi_arch::Insn;
use lfi_obj::{Module, SymKind};

/// One call site targeting a function, seen from the caller's side.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CallSiteRef {
    /// Name of the module containing the call instruction.
    pub module: String,
    /// Function containing the call instruction, if attributable.
    pub caller: Option<String>,
    /// Code offset of the call instruction within `module`.
    pub offset: u64,
}

/// Callers-of index over a set of modules.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Callee function name → call sites targeting it, sorted.
    callers: BTreeMap<String, Vec<CallSiteRef>>,
}

impl CallGraph {
    /// Build the graph over a set of modules. Both symbolic (`callsym`) and
    /// direct local (`call`) edges are collected; indirect calls (`callr`)
    /// have no static target and contribute no edges.
    pub fn build(modules: &[&Module]) -> CallGraph {
        let mut sorted: Vec<&Module> = modules.to_vec();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let mut graph = CallGraph::default();
        for module in sorted {
            for (offset, insn) in module.decode_code() {
                let callee = match insn {
                    Insn::CallSym { sym } => module
                        .symrefs
                        .get(sym as usize)
                        .filter(|s| s.kind == SymKind::Func)
                        .map(|s| s.name.clone()),
                    Insn::Call { target } => module
                        .containing_function(target as u64)
                        .filter(|e| e.offset == target as u64)
                        .map(|e| e.name.clone()),
                    _ => None,
                };
                let Some(callee) = callee else { continue };
                graph.callers.entry(callee).or_default().push(CallSiteRef {
                    module: module.name.clone(),
                    caller: module.containing_function(offset).map(|e| e.name.clone()),
                    offset,
                });
            }
        }
        for sites in graph.callers.values_mut() {
            sites.sort();
        }
        graph
    }

    /// Call sites targeting `function`, sorted by (module, caller, offset).
    pub fn callers_of(&self, function: &str) -> &[CallSiteRef] {
        self.callers
            .get(function)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Function names that have at least one known call site.
    pub fn called_functions(&self) -> impl Iterator<Item = &str> {
        self.callers.keys().map(|s| s.as_str())
    }

    /// Total number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.callers.values().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use lfi_cc::Compiler;
    use lfi_obj::ModuleKind;

    use super::*;

    fn compile(name: &str, src: &str) -> Module {
        Compiler::new(name, ModuleKind::SharedLib)
            .add_source("t.c", src)
            .compile()
            .unwrap()
    }

    #[test]
    fn direct_local_calls_are_edges() {
        let m = compile(
            "prog",
            r#"
            int helper(int n) { return n + 1; }
            int a() { return helper(1); }
            int b() { return helper(2); }
            "#,
        );
        let graph = CallGraph::build(&[&m]);
        let callers = graph.callers_of("helper");
        assert_eq!(callers.len(), 2);
        let names: Vec<_> = callers.iter().map(|c| c.caller.as_deref()).collect();
        assert_eq!(names, vec![Some("a"), Some("b")]);
        assert!(callers.iter().all(|c| c.module == "prog"));
    }

    #[test]
    fn symbolic_calls_are_edges() {
        let m = compile(
            "prog",
            r#"
            int f() { return malloc(8); }
            "#,
        );
        let graph = CallGraph::build(&[&m]);
        assert_eq!(graph.callers_of("malloc").len(), 1);
        assert_eq!(graph.callers_of("malloc")[0].caller.as_deref(), Some("f"));
    }

    #[test]
    fn construction_is_order_independent() {
        let a = compile("alpha", "int f() { return shared(1); }");
        let b = compile("beta", "int g() { return shared(2); }");
        let forward = CallGraph::build(&[&a, &b]);
        let backward = CallGraph::build(&[&b, &a]);
        assert_eq!(forward.callers_of("shared"), backward.callers_of("shared"));
        assert_eq!(forward.edge_count(), backward.edge_count());
    }

    #[test]
    fn unknown_functions_have_no_callers() {
        let m = compile("prog", "int f() { return 0; }");
        let graph = CallGraph::build(&[&m]);
        assert!(graph.callers_of("nonexistent").is_empty());
    }
}
