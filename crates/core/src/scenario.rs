//! The fault-injection scenario language (§4 of the paper).
//!
//! A scenario declares named trigger instances and associates them with
//! intercepted library functions, together with the fault to inject (return
//! value and errno side effect). Associating several triggers with one
//! `<function>` element forms a conjunction; repeating `<function>` elements
//! for the same function forms a disjunction. Scenarios can be written by
//! hand in XML, built programmatically, or generated automatically from the
//! call-site analyzer's reports.

use std::collections::BTreeMap;
use std::fmt;

use lfi_analyzer::{CallSiteClass, CallSiteReport};
use lfi_arch::{errno as errno_tbl, Word};
use lfi_profiler::FaultProfile;

use crate::xml::{parse_xml_fragments, XmlError, XmlNode};

/// A named trigger instance declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerDecl {
    /// Instance id referenced by `<reftrigger>` elements.
    pub id: String,
    /// Trigger class name, resolved through the trigger registry.
    pub class: String,
    /// Simple key/value parameters (the `<args>` children with text content).
    pub params: BTreeMap<String, String>,
    /// Stack-frame specifications for call-stack triggers.
    pub frames: Vec<FrameSpec>,
}

/// A stack-frame pattern used by call-stack triggers: every populated field
/// must match for the frame to match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameSpec {
    /// Module (object file) name.
    pub module: Option<String>,
    /// Code offset of the call site within the module.
    pub offset: Option<u64>,
    /// Function name containing the call site.
    pub function: Option<String>,
    /// Source file name.
    pub file: Option<String>,
    /// Source line number.
    pub line: Option<u32>,
}

/// An association between a library function and a conjunction of triggers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionAssoc {
    /// Intercepted function name.
    pub function: String,
    /// Number of call arguments to expose to triggers.
    pub argc: usize,
    /// Return value injected when the triggers fire; `None` means the
    /// association is observational only (the paper's `return="unused"`).
    pub retval: Option<Word>,
    /// errno side effect injected alongside the return value.
    pub errno: Option<Word>,
    /// Ids of the triggers forming the conjunction, in evaluation order.
    pub triggers: Vec<String>,
}

impl FunctionAssoc {
    /// Whether this association injects anything (vs. only observing).
    pub fn injects(&self) -> bool {
        self.retval.is_some()
    }
}

/// A complete fault-injection scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scenario {
    /// Declared trigger instances.
    pub triggers: Vec<TriggerDecl>,
    /// Function associations, in declaration order.
    pub functions: Vec<FunctionAssoc>,
}

/// Scenario parsing / validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// Underlying XML problem.
    Xml(XmlError),
    /// Structural problem (missing attribute, unknown reference, ...).
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Xml(e) => write!(f, "{e}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<XmlError> for ScenarioError {
    fn from(e: XmlError) -> Self {
        ScenarioError::Xml(e)
    }
}

fn parse_value(text: &str) -> Option<Word> {
    let text = text.trim();
    if text.eq_ignore_ascii_case("unused") {
        return None;
    }
    if let Some(v) = errno_tbl::from_name(text) {
        return Some(v);
    }
    if let Some(hex) = text.strip_prefix("0x") {
        return Word::from_str_radix(hex, 16).ok();
    }
    text.parse().ok()
}

impl Scenario {
    /// Create an empty scenario.
    pub fn new() -> Scenario {
        Scenario::default()
    }

    /// Add a trigger declaration (builder style).
    pub fn with_trigger(mut self, decl: TriggerDecl) -> Scenario {
        self.triggers.push(decl);
        self
    }

    /// Add a function association (builder style).
    pub fn with_function(mut self, assoc: FunctionAssoc) -> Scenario {
        self.functions.push(assoc);
        self
    }

    /// Names of all functions that must be intercepted for this scenario.
    pub fn intercepted_functions(&self) -> Vec<String> {
        let mut names: Vec<String> = self.functions.iter().map(|f| f.function.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Find a trigger declaration by id.
    pub fn trigger(&self, id: &str) -> Option<&TriggerDecl> {
        self.triggers.iter().find(|t| t.id == id)
    }

    /// Check internal consistency: trigger ids must be unique and every
    /// referenced trigger must be declared.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let mut seen = std::collections::BTreeSet::new();
        for decl in &self.triggers {
            if !seen.insert(decl.id.as_str()) {
                return Err(ScenarioError::Invalid(format!(
                    "duplicate trigger id `{}`",
                    decl.id
                )));
            }
        }
        for assoc in &self.functions {
            for id in &assoc.triggers {
                if self.trigger(id).is_none() {
                    return Err(ScenarioError::Invalid(format!(
                        "function `{}` references undeclared trigger `{id}`",
                        assoc.function
                    )));
                }
            }
        }
        Ok(())
    }

    /// Parse a scenario from its XML form.
    pub fn parse_xml(text: &str) -> Result<Scenario, ScenarioError> {
        let root = parse_xml_fragments(text)?;
        let mut scenario = Scenario::new();
        for node in &root.children {
            match node.name.as_str() {
                "trigger" => scenario.triggers.push(parse_trigger_decl(node)?),
                "function" => scenario.functions.push(parse_function(node)?),
                other => {
                    return Err(ScenarioError::Invalid(format!(
                        "unexpected element `{other}`"
                    )))
                }
            }
        }
        scenario.validate()?;
        Ok(scenario)
    }

    /// Render the scenario as XML.
    pub fn to_xml(&self) -> String {
        let mut root = XmlNode {
            name: "scenario".into(),
            ..XmlNode::default()
        };
        for decl in &self.triggers {
            let mut node = XmlNode {
                name: "trigger".into(),
                attrs: vec![
                    ("id".into(), decl.id.clone()),
                    ("class".into(), decl.class.clone()),
                ],
                ..XmlNode::default()
            };
            if !decl.params.is_empty() || !decl.frames.is_empty() {
                let mut args = XmlNode {
                    name: "args".into(),
                    ..XmlNode::default()
                };
                for (key, value) in &decl.params {
                    args.children.push(XmlNode {
                        name: key.clone(),
                        text: value.clone(),
                        ..XmlNode::default()
                    });
                }
                for frame in &decl.frames {
                    let mut f = XmlNode {
                        name: "frame".into(),
                        ..XmlNode::default()
                    };
                    let mut push = |name: &str, value: Option<String>| {
                        if let Some(value) = value {
                            f.children.push(XmlNode {
                                name: name.into(),
                                text: value,
                                ..XmlNode::default()
                            });
                        }
                    };
                    push("module", frame.module.clone());
                    push("offset", frame.offset.map(|o| format!("{o:x}")));
                    push("function", frame.function.clone());
                    push("file", frame.file.clone());
                    push("line", frame.line.map(|l| l.to_string()));
                    args.children.push(f);
                }
                node.children.push(args);
            }
            root.children.push(node);
        }
        for assoc in &self.functions {
            let mut node = XmlNode {
                name: "function".into(),
                attrs: vec![
                    ("name".into(), assoc.function.clone()),
                    ("argc".into(), assoc.argc.to_string()),
                ],
                ..XmlNode::default()
            };
            match assoc.retval {
                Some(v) => node.attrs.push(("return".into(), v.to_string())),
                None => node.attrs.push(("return".into(), "unused".into())),
            }
            match assoc.errno {
                Some(v) => node.attrs.push((
                    "errno".into(),
                    errno_tbl::name(v)
                        .map(str::to_string)
                        .unwrap_or(v.to_string()),
                )),
                None => node.attrs.push(("errno".into(), "unused".into())),
            }
            for id in &assoc.triggers {
                node.children.push(XmlNode {
                    name: "reftrigger".into(),
                    attrs: vec![("ref".into(), id.clone())],
                    ..XmlNode::default()
                });
            }
            root.children.push(node);
        }
        root.to_xml()
    }

    /// Build the canonical single-fault-point scenario: a call-stack trigger
    /// pinned to one call-site offset of `module`, injecting `retval` (and
    /// optionally `errno`) into `function`. This is the unit of work of
    /// analyzer-driven bug hunts and campaign sweeps.
    pub fn single_fault_point(
        module: &str,
        function: &str,
        offset: u64,
        retval: Word,
        errno: Option<Word>,
    ) -> Scenario {
        let id = format!("{function}_{offset:x}");
        Scenario::new()
            .with_trigger(TriggerDecl {
                id: id.clone(),
                class: "CallStackTrigger".into(),
                params: BTreeMap::new(),
                frames: vec![FrameSpec {
                    module: Some(module.to_string()),
                    offset: Some(offset),
                    ..FrameSpec::default()
                }],
            })
            .with_function(FunctionAssoc {
                function: function.to_string(),
                argc: 3,
                retval: Some(retval),
                errno,
                triggers: vec![id],
            })
    }

    /// Generate scenarios from call-site analysis reports, as the analyzer
    /// does in the paper (§5): one call-stack-triggered injection per
    /// unchecked (and optionally partially checked) call site, using the
    /// fault profile to pick a realistic return value and errno.
    pub fn from_reports(
        reports: &[CallSiteReport],
        profile: &FaultProfile,
        include_partial: bool,
    ) -> Scenario {
        let mut scenario = Scenario::new();
        for report in reports {
            let Some(func_profile) = profile.function(&report.function) else {
                continue;
            };
            let Some(case) = func_profile.representative_case() else {
                continue;
            };
            for site in &report.sites {
                let eligible = site.class == CallSiteClass::Unchecked
                    || (include_partial && site.class == CallSiteClass::PartiallyChecked);
                if !eligible {
                    continue;
                }
                let id = format!("{}_{:x}", report.function, site.offset);
                scenario.triggers.push(TriggerDecl {
                    id: id.clone(),
                    class: "CallStackTrigger".into(),
                    params: BTreeMap::new(),
                    frames: vec![FrameSpec {
                        module: Some(report.program.clone()),
                        offset: Some(site.offset),
                        ..FrameSpec::default()
                    }],
                });
                scenario.functions.push(FunctionAssoc {
                    function: report.function.clone(),
                    argc: 3,
                    retval: Some(case.retval),
                    errno: case.errno,
                    triggers: vec![id],
                });
            }
        }
        scenario
    }
}

fn parse_frame(node: &XmlNode) -> FrameSpec {
    FrameSpec {
        module: node.child_text("module").map(|s| s.trim().to_string()),
        offset: node
            .child_text("offset")
            .and_then(|s| u64::from_str_radix(s.trim().trim_start_matches("0x"), 16).ok()),
        function: node.child_text("function").map(|s| s.trim().to_string()),
        file: node.child_text("file").map(|s| s.trim().to_string()),
        line: node.child_text("line").and_then(|s| s.trim().parse().ok()),
    }
}

fn parse_trigger_decl(node: &XmlNode) -> Result<TriggerDecl, ScenarioError> {
    let id = node
        .attr("id")
        .ok_or_else(|| ScenarioError::Invalid("<trigger> needs an `id`".into()))?
        .to_string();
    let class = node
        .attr("class")
        .ok_or_else(|| ScenarioError::Invalid("<trigger> needs a `class`".into()))?
        .to_string();
    let mut params = BTreeMap::new();
    let mut frames = Vec::new();
    if let Some(args) = node.child("args") {
        for child in &args.children {
            if child.name == "frame" {
                frames.push(parse_frame(child));
            } else {
                params.insert(child.name.clone(), child.text.clone());
            }
        }
    }
    Ok(TriggerDecl {
        id,
        class,
        params,
        frames,
    })
}

fn parse_function(node: &XmlNode) -> Result<FunctionAssoc, ScenarioError> {
    let function = node
        .attr("name")
        .ok_or_else(|| ScenarioError::Invalid("<function> needs a `name`".into()))?
        .to_string();
    let argc = node
        .attr("argc")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0usize);
    let retval = node
        .attr("return")
        .or(node.attr("retval"))
        .and_then(parse_value);
    let errno = node.attr("errno").and_then(parse_value);
    let triggers = node
        .children_named("reftrigger")
        .filter_map(|c| c.attr("ref").map(str::to_string))
        .collect();
    Ok(FunctionAssoc {
        function,
        argc,
        retval,
        errno,
        triggers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_STYLE: &str = r#"
        <!-- Declare & initialize a parametrized trigger instance -->
        <trigger id="readTrig2" class="ReadPipe">
            <args>
                <low>1024</low>
                <high>4096</high>
            </args>
        </trigger>
        <trigger id="mutexTrig" class="WithMutexTrigger" />

        <!-- Invoke the composition for read() calls -->
        <function name="read" argc="3" return="-1" errno="EINVAL">
            <reftrigger ref="readTrig2" />
            <reftrigger ref="mutexTrig" />
        </function>

        <!-- The trigger needs to see the lock/unlock calls -->
        <function name="pthread_mutex_lock" return="unused" errno="unused">
            <reftrigger ref="mutexTrig" />
        </function>
        <function name="pthread_mutex_unlock" return="unused" errno="unused">
            <reftrigger ref="mutexTrig" />
        </function>
    "#;

    #[test]
    fn parses_the_papers_example_scenario() {
        let scenario = Scenario::parse_xml(PAPER_STYLE).unwrap();
        assert_eq!(scenario.triggers.len(), 2);
        assert_eq!(scenario.functions.len(), 3);
        let read = &scenario.functions[0];
        assert_eq!(read.function, "read");
        assert_eq!(read.argc, 3);
        assert_eq!(read.retval, Some(-1));
        assert_eq!(read.errno, Some(lfi_arch::errno::EINVAL));
        assert_eq!(read.triggers, vec!["readTrig2", "mutexTrig"]);
        // Observational associations carry no injection.
        assert!(!scenario.functions[1].injects());
        let decl = scenario.trigger("readTrig2").unwrap();
        assert_eq!(decl.params.get("low").map(String::as_str), Some("1024"));
        assert_eq!(
            scenario.intercepted_functions(),
            vec!["pthread_mutex_lock", "pthread_mutex_unlock", "read"]
        );
    }

    #[test]
    fn xml_roundtrip_preserves_the_scenario() {
        let scenario = Scenario::parse_xml(PAPER_STYLE).unwrap();
        let xml = scenario.to_xml();
        let back = Scenario::parse_xml(&xml).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn frame_specs_parse_like_the_pbft_example() {
        let doc = r#"
            <trigger id="8054a69" class="CallStackTrigger">
                <args>
                    <frame>
                        <module>bft-simple-server</module>
                        <offset>54a69</offset>
                    </frame>
                </args>
            </trigger>
            <function name="fopen" return="0" errno="EINVAL">
                <reftrigger ref="8054a69" />
            </function>
        "#;
        let scenario = Scenario::parse_xml(doc).unwrap();
        let frame = &scenario.triggers[0].frames[0];
        assert_eq!(frame.module.as_deref(), Some("bft-simple-server"));
        assert_eq!(frame.offset, Some(0x54a69));
        assert_eq!(scenario.functions[0].retval, Some(0));
    }

    #[test]
    fn undeclared_trigger_references_are_rejected() {
        let doc = r#"
            <function name="read" return="-1" errno="EIO">
                <reftrigger ref="ghost" />
            </function>
        "#;
        assert!(matches!(
            Scenario::parse_xml(doc),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn duplicate_trigger_ids_are_rejected() {
        let dup = TriggerDecl {
            id: "t".into(),
            class: "SingletonTrigger".into(),
            params: BTreeMap::new(),
            frames: vec![],
        };
        let scenario = Scenario::new().with_trigger(dup.clone()).with_trigger(dup);
        assert!(matches!(
            scenario.validate(),
            Err(ScenarioError::Invalid(msg)) if msg.contains("duplicate trigger id")
        ));
    }

    #[test]
    fn programmatic_undeclared_references_are_rejected() {
        let scenario = Scenario::new().with_function(FunctionAssoc {
            function: "read".into(),
            argc: 3,
            retval: Some(-1),
            errno: None,
            triggers: vec!["ghost".into()],
        });
        assert!(matches!(
            scenario.validate(),
            Err(ScenarioError::Invalid(msg)) if msg.contains("undeclared trigger")
        ));
    }

    #[test]
    fn single_fault_point_scenarios_validate_and_roundtrip() {
        let scenario = Scenario::single_fault_point("app", "read", 0x40, -1, Some(errno_tbl::EIO));
        scenario.validate().unwrap();
        assert_eq!(scenario.intercepted_functions(), vec!["read"]);
        let frame = &scenario.triggers[0].frames[0];
        assert_eq!(frame.module.as_deref(), Some("app"));
        assert_eq!(frame.offset, Some(0x40));
        let back = Scenario::parse_xml(&scenario.to_xml()).unwrap();
        assert_eq!(back, scenario);
    }

    #[test]
    fn errno_names_and_numbers_are_accepted() {
        let doc = r#"
            <trigger id="t" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
            <function name="write" return="-1" errno="28"><reftrigger ref="t" /></function>
        "#;
        let scenario = Scenario::parse_xml(doc).unwrap();
        assert_eq!(scenario.functions[0].errno, Some(lfi_arch::errno::ENOSPC));
    }
}
