//! Library fault profiler.
//!
//! The profiler performs the task described in §2 of the paper: it analyzes a
//! shared library's *binary* and infers, for every exported function, which
//! error values the function can return and which `errno` side effects
//! accompany them. The result — the library's **fault profile** — drives both
//! the call-site analyzer (which needs the set of error codes to check
//! against) and scenario generation (which needs a realistic return value and
//! errno to inject).
//!
//! The analysis is a linear abstract scan of each function's instructions: it
//! tracks the last constant loaded into each register, pairs constants stored
//! to the TLS `errno` variable with the next constant return value on the
//! same path, and records whether the function can also return a
//! non-constant (computed) value. This mirrors the heuristic static analysis
//! of the original LFI profiler, which the paper reports to be accurate in
//! practice despite being intraprocedural and path-insensitive.

use std::collections::BTreeMap;

use lfi_arch::{CallConv, Insn, Reg, Word};
use lfi_json::{invalid, str_field, JsonError, Value};
use lfi_obj::{Module, SymKind};

/// One way a function can fail: a return value and an optional errno.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ErrorCase {
    /// The value returned to the caller (e.g. `-1`, or `0` for NULL).
    pub retval: Word,
    /// The errno value set alongside, if the path sets one.
    pub errno: Option<Word>,
}

/// The fault profile of one exported function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionProfile {
    /// Function name.
    pub name: String,
    /// Distinct error cases discovered in the binary.
    pub error_cases: Vec<ErrorCase>,
    /// Whether the function can also return a computed (non-constant) value —
    /// i.e. it has a success path whose value the analysis cannot enumerate.
    pub returns_dynamic: bool,
}

impl FunctionProfile {
    /// The distinct error return values (the set `E` of Algorithm 1).
    pub fn error_return_values(&self) -> Vec<Word> {
        let mut values: Vec<Word> = self.error_cases.iter().map(|c| c.retval).collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// The distinct errno values this function can set.
    pub fn errno_values(&self) -> Vec<Word> {
        let mut values: Vec<Word> = self.error_cases.iter().filter_map(|c| c.errno).collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// A representative injection: the most common error return paired with
    /// one of its errno values (used when generating scenarios automatically).
    pub fn representative_case(&self) -> Option<ErrorCase> {
        self.error_cases
            .iter()
            .find(|c| c.errno.is_some())
            .or_else(|| self.error_cases.first())
            .copied()
    }
}

/// The fault profile of a whole library.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultProfile {
    /// Library (module) name.
    pub library: String,
    /// Per-function profiles, keyed by function name.
    pub functions: BTreeMap<String, FunctionProfile>,
}

impl FaultProfile {
    /// Profile of a single function, if it was exported by the library.
    pub fn function(&self, name: &str) -> Option<&FunctionProfile> {
        self.functions.get(name)
    }

    /// Iterate over every per-function profile, in function-name order.
    pub fn iter(&self) -> impl Iterator<Item = &FunctionProfile> {
        self.functions.values()
    }

    /// Iterate over the profiles of functions that can fail — the injectable
    /// fault points a campaign enumerates its fault space from.
    pub fn failing(&self) -> impl Iterator<Item = &FunctionProfile> {
        self.iter().filter(|f| !f.error_cases.is_empty())
    }

    /// Names of all profiled functions that have at least one error case.
    pub fn failing_functions(&self) -> Vec<String> {
        self.functions
            .values()
            .filter(|f| !f.error_cases.is_empty())
            .map(|f| f.name.clone())
            .collect()
    }

    /// Serialize to a pretty JSON document (the analogue of the paper's XML
    /// fault-profile files).
    pub fn to_json(&self) -> String {
        let functions = self
            .functions
            .iter()
            .map(|(name, f)| {
                let cases = f
                    .error_cases
                    .iter()
                    .map(|c| {
                        Value::Obj(vec![
                            ("retval".to_string(), Value::Int(c.retval)),
                            ("errno".to_string(), c.errno.map_or(Value::Null, Value::Int)),
                        ])
                    })
                    .collect();
                let profile = Value::Obj(vec![
                    ("name".to_string(), Value::Str(f.name.clone())),
                    ("error_cases".to_string(), Value::Arr(cases)),
                    (
                        "returns_dynamic".to_string(),
                        Value::Bool(f.returns_dynamic),
                    ),
                ]);
                (name.clone(), profile)
            })
            .collect();
        Value::Obj(vec![
            ("library".to_string(), Value::Str(self.library.clone())),
            ("functions".to_string(), Value::Obj(functions)),
        ])
        .to_pretty()
    }

    /// Parse a profile from its JSON form.
    pub fn from_json(text: &str) -> Result<FaultProfile, JsonError> {
        let doc = lfi_json::parse(text)?;
        let library = str_field(&doc, "library")?;
        let Some(Value::Obj(members)) = doc.get("functions") else {
            return Err(invalid("missing object field `functions`"));
        };
        let mut functions = BTreeMap::new();
        for (name, entry) in members {
            let fn_name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid(format!("function `{name}`: missing `name`")))?
                .to_string();
            let cases = entry
                .get("error_cases")
                .and_then(Value::as_arr)
                .ok_or_else(|| invalid(format!("function `{name}`: missing `error_cases`")))?;
            let mut error_cases = Vec::new();
            for case in cases {
                let retval = case
                    .get("retval")
                    .and_then(Value::as_int)
                    .ok_or_else(|| invalid(format!("function `{name}`: case missing `retval`")))?;
                let errno = match case.get("errno") {
                    Some(Value::Null) | None => None,
                    Some(value) => Some(value.as_int().ok_or_else(|| {
                        invalid(format!("function `{name}`: non-integer `errno`"))
                    })?),
                };
                error_cases.push(ErrorCase { retval, errno });
            }
            let returns_dynamic = entry
                .get("returns_dynamic")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            functions.insert(
                name.clone(),
                FunctionProfile {
                    name: fn_name,
                    error_cases,
                    returns_dynamic,
                },
            );
        }
        Ok(FaultProfile { library, functions })
    }

    /// Merge another library's profile into this one (useful when an
    /// application links several libraries).
    pub fn merge(&mut self, other: &FaultProfile) {
        for (name, profile) in &other.functions {
            self.functions
                .entry(name.clone())
                .or_insert_with(|| profile.clone());
        }
    }
}

impl<'a> IntoIterator for &'a FaultProfile {
    type Item = &'a FunctionProfile;
    type IntoIter = std::collections::btree_map::Values<'a, String, FunctionProfile>;

    fn into_iter(self) -> Self::IntoIter {
        self.functions.values()
    }
}

/// Profile every exported function of a library module.
pub fn profile_library(module: &Module) -> FaultProfile {
    let insns = module.decode_code();
    let mut functions = BTreeMap::new();
    for export in &module.exports {
        if export.kind != SymKind::Func {
            continue;
        }
        let start = export.offset;
        let end = if export.size > 0 {
            export.offset + export.size
        } else {
            u64::MAX
        };
        let body: Vec<Insn> = insns
            .iter()
            .filter(|(off, _)| *off >= start && *off < end)
            .map(|(_, insn)| *insn)
            .collect();
        let profile = profile_function(&export.name, &body, module);
        functions.insert(export.name.clone(), profile);
    }
    FaultProfile {
        library: module.name.clone(),
        functions,
    }
}

/// Whether a constant return value is plausibly an error indicator: negative
/// values always are; zero only when the same path set `errno` (NULL-return
/// style APIs such as `malloc`, `fopen`, `opendir`).
pub fn is_error_value(retval: Word, errno: Option<Word>) -> bool {
    retval < 0 || (retval == 0 && errno.is_some())
}

fn profile_function(name: &str, body: &[Insn], module: &Module) -> FunctionProfile {
    let mut profile = FunctionProfile {
        name: name.to_string(),
        ..FunctionProfile::default()
    };
    // Last constant loaded into each register, if still valid.
    let mut last_const: Vec<Option<Word>> = vec![None; Reg::COUNT];
    // Whether the last write to r0 was a constant.
    let mut r0_const: Option<Word> = None;
    let mut r0_dynamic = false;
    // errno constant set on the current path, not yet paired with a return.
    let mut pending_errno: Option<Word> = None;

    for insn in body {
        match insn {
            Insn::MovI { dst, imm } => {
                last_const[dst.index()] = Some(*imm);
                if *dst == Reg::RET {
                    r0_const = Some(*imm);
                    r0_dynamic = false;
                }
            }
            Insn::TlsStore { sym, src } => {
                let is_errno = module
                    .symrefs
                    .get(*sym as usize)
                    .map(|s| s.name == CallConv::ERRNO_SYMBOL)
                    .unwrap_or(false);
                if is_errno {
                    pending_errno = last_const[src.index()];
                }
            }
            Insn::Ret => {
                if let Some(retval) = r0_const {
                    if is_error_value(retval, pending_errno) {
                        let case = ErrorCase {
                            retval,
                            errno: pending_errno,
                        };
                        if !profile.error_cases.contains(&case) {
                            profile.error_cases.push(case);
                        }
                    }
                } else if r0_dynamic {
                    profile.returns_dynamic = true;
                }
                pending_errno = None;
            }
            other => {
                if let Some(written) = other.written_reg() {
                    last_const[written.index()] = None;
                    if written == Reg::RET {
                        r0_const = None;
                        r0_dynamic = true;
                    }
                }
                // Calls and syscalls clobber the return register.
                if matches!(other, Insn::Sys { .. }) || other.is_call() {
                    last_const[Reg::RET.index()] = None;
                    r0_const = None;
                    r0_dynamic = true;
                }
            }
        }
    }
    profile.error_cases.sort();
    profile
}

#[cfg(test)]
mod tests {
    use lfi_arch::errno;
    use lfi_asm::assemble_text;

    use super::*;

    #[test]
    fn profiles_a_hand_written_wrapper() {
        let lib = assemble_text(
            r#"
            .module demo lib
            .func my_read
                sys read
                cmpi r0, 0
                jge ok
                cmpi r0, -4
                jne not_intr
                movi r7, EINTR
                tlsst errno, r7
                movi r0, -1
                ret
            not_intr:
                movi r7, EIO
                tlsst errno, r7
                movi r0, -1
                ret
            ok:
                ret
            "#,
        )
        .unwrap();
        let profile = profile_library(&lib);
        let read = profile.function("my_read").unwrap();
        assert_eq!(read.error_return_values(), vec![-1]);
        assert_eq!(read.errno_values(), vec![errno::EINTR, errno::EIO]);
    }

    #[test]
    fn success_only_functions_have_no_error_cases() {
        let lib = assemble_text(
            r#"
            .module demo lib
            .func seven
                movi r0, 7
                ret
            .func zero_ok
                movi r0, 0
                ret
            "#,
        )
        .unwrap();
        let profile = profile_library(&lib);
        assert!(profile.function("seven").unwrap().error_cases.is_empty());
        // `return 0` without errno is treated as success, not an error case.
        assert!(profile.function("zero_ok").unwrap().error_cases.is_empty());
        assert!(profile.failing_functions().is_empty());
    }

    #[test]
    fn null_return_with_errno_counts_as_error() {
        let lib = assemble_text(
            r#"
            .module demo lib
            .func my_fopen
                sys open
                cmpi r0, 0
                jge ok
                movi r7, ENOENT
                tlsst errno, r7
                movi r0, 0
                ret
            ok:
                ret
            "#,
        )
        .unwrap();
        let profile = profile_library(&lib);
        let fopen = profile.function("my_fopen").unwrap();
        assert_eq!(
            fopen.error_cases,
            vec![ErrorCase {
                retval: 0,
                errno: Some(errno::ENOENT)
            }]
        );
        assert_eq!(
            fopen.representative_case(),
            Some(ErrorCase {
                retval: 0,
                errno: Some(errno::ENOENT)
            })
        );
    }

    #[test]
    fn iteration_exposes_failing_functions() {
        let lib = assemble_text(
            r#"
            .module demo lib
            .func ok
                movi r0, 7
                ret
            .func fails
                movi r7, EIO
                tlsst errno, r7
                movi r0, -1
                ret
            "#,
        )
        .unwrap();
        let profile = profile_library(&lib);
        assert_eq!(profile.iter().count(), 2);
        assert_eq!((&profile).into_iter().count(), 2);
        let failing: Vec<&str> = profile.failing().map(|f| f.name.as_str()).collect();
        assert_eq!(failing, vec!["fails"]);
    }

    #[test]
    fn json_roundtrip() {
        let lib = assemble_text(
            r#"
            .module demo lib
            .func f
                movi r7, EBADF
                tlsst errno, r7
                movi r0, -1
                ret
            "#,
        )
        .unwrap();
        let profile = profile_library(&lib);
        let json = profile.to_json();
        assert!(json.contains("EBADF") || json.contains("\"errno\": 9"));
        let back = FaultProfile::from_json(&json).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn merge_prefers_existing_entries() {
        let mut a = FaultProfile {
            library: "a".into(),
            ..FaultProfile::default()
        };
        a.functions.insert(
            "f".into(),
            FunctionProfile {
                name: "f".into(),
                error_cases: vec![ErrorCase {
                    retval: -1,
                    errno: None,
                }],
                returns_dynamic: false,
            },
        );
        let mut b = FaultProfile {
            library: "b".into(),
            ..FaultProfile::default()
        };
        b.functions.insert(
            "f".into(),
            FunctionProfile {
                name: "f".into(),
                error_cases: vec![],
                returns_dynamic: true,
            },
        );
        b.functions.insert(
            "g".into(),
            FunctionProfile {
                name: "g".into(),
                error_cases: vec![],
                returns_dynamic: true,
            },
        );
        a.merge(&b);
        assert_eq!(a.functions.len(), 2);
        assert_eq!(a.function("f").unwrap().error_cases.len(), 1);
    }
}
