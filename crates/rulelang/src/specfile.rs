//! The toolkit's bespoke specification-file format.
//!
//! Section 4.1 of the paper describes two configuration artifacts:
//!
//! * the **CM-RID** (CM-Raw Interface Description), which "configures
//!   standard CM-Translators to the particular underlying data source"
//!   — interface statements offered, plus RIS-specific details such as
//!   the SQL command template to issue for a write;
//! * the **Strategy Specification**, read by every CM-Shell, which
//!   carries the strategy rules and "also indicates where objects are
//!   located" (§4.2.2).
//!
//! Both use the same simple sectioned text format parsed here:
//!
//! ```text
//! # comment
//! key = value                      # top-level properties
//!
//! [section arg1 arg2]
//! free-form body lines…
//! ```
//!
//! Interpretation of section kinds is up to the consumer (`hcm-toolkit`).

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// One `[header …]` section with its body lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Header words: kind first, then arguments.
    pub header: Vec<String>,
    /// Non-empty, non-comment body lines, trimmed.
    pub lines: Vec<String>,
    /// The 1-based file line of each entry of `lines`.
    pub line_numbers: Vec<usize>,
}

impl Section {
    /// The section kind (first header word).
    #[must_use]
    pub(crate) fn kind(&self) -> &str {
        self.header.first().map_or("", String::as_str)
    }

    /// The header arguments (words after the kind).
    #[must_use]
    pub fn args(&self) -> &[String] {
        self.header.get(1..).unwrap_or(&[])
    }

    /// Parse the body as `key = value` pairs; lines without `=` and
    /// repeated keys are errors.
    pub fn as_pairs(&self) -> Result<BTreeMap<String, String>, SpecError> {
        let mut m = BTreeMap::new();
        for (l, &lineno) in self.lines.iter().zip(&self.line_numbers) {
            let (k, v) = l.split_once('=').ok_or_else(|| SpecError {
                msg: format!(
                    "line {lineno}: expected `key = value` in section [{}], got `{l}`",
                    self.header.join(" ")
                ),
            })?;
            if !insert_new(&mut m, k, v) {
                return Err(SpecError {
                    msg: format!(
                        "line {lineno}: key `{}` repeated in section [{}]",
                        k.trim(),
                        self.header.join(" ")
                    ),
                });
            }
        }
        Ok(m)
    }
}

/// Insert `key = value`, both trimmed; `false`, and no change, when the
/// key is already there.
fn insert_new(m: &mut BTreeMap<String, String>, key: &str, value: &str) -> bool {
    match m.entry(key.trim().to_owned()) {
        Entry::Occupied(_) => false,
        Entry::Vacant(e) => {
            e.insert(value.trim().to_owned());
            true
        }
    }
}

/// A parsed specification file: top-level properties plus sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecFile {
    /// Top-level `key = value` properties (before the first section).
    pub props: BTreeMap<String, String>,
    /// Sections in file order.
    pub sections: Vec<Section>,
}

/// A spec-file syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.msg)
    }
}

impl std::error::Error for SpecError {}

impl SpecFile {
    /// Parse a specification file.
    pub fn parse(src: &str) -> Result<SpecFile, SpecError> {
        let mut spec = SpecFile::default();
        let mut current: Option<Section> = None;
        for (lineno, raw) in src.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let inner = rest.strip_suffix(']').ok_or_else(|| SpecError {
                    msg: format!("line {}: unterminated section header", lineno + 1),
                })?;
                let header: Vec<String> = inner.split_whitespace().map(str::to_owned).collect();
                if header.is_empty() {
                    return Err(SpecError {
                        msg: format!("line {}: empty section header", lineno + 1),
                    });
                }
                if let Some(s) = current.take() {
                    spec.sections.push(s);
                }
                current = Some(Section {
                    header,
                    lines: Vec::new(),
                    line_numbers: Vec::new(),
                });
            } else {
                match &mut current {
                    Some(s) => {
                        s.lines.push(line.to_owned());
                        s.line_numbers.push(lineno + 1);
                    }
                    None => {
                        let (k, v) = line.split_once('=').ok_or_else(|| SpecError {
                            msg: format!(
                                "line {}: expected `key = value` before first section",
                                lineno + 1
                            ),
                        })?;
                        if !insert_new(&mut spec.props, k, v) {
                            return Err(SpecError {
                                msg: format!(
                                    "line {}: key `{}` repeated in the top-level properties",
                                    lineno + 1,
                                    k.trim()
                                ),
                            });
                        }
                    }
                }
            }
        }
        if let Some(s) = current.take() {
            spec.sections.push(s);
        }
        Ok(spec)
    }

    /// All sections of a given kind.
    pub fn sections_of<'a>(&'a self, kind: &str) -> impl Iterator<Item = &'a Section> + 'a {
        let kind = kind.to_owned();
        self.sections.iter().filter(move |s| s.kind() == kind)
    }

    /// A required top-level property.
    pub fn require(&self, key: &str) -> Result<&str, SpecError> {
        self.props
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| SpecError {
                msg: format!("missing required property `{key}`"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# CM-RID for site A
ris = relational
site = A            # trailing comment

[interface notify]
Ws(salary1(n), b) -> N(salary1(n), b) within 2s

[command write salary2(n)]
update employees set salary = $b where empid = $n

[options]
poll = 60s
retry = 3
"#;

    #[test]
    fn parses_props_and_sections() {
        let spec = SpecFile::parse(SAMPLE).unwrap();
        assert_eq!(
            spec.props.get("ris").map(String::as_str),
            Some("relational")
        );
        assert_eq!(spec.require("site").unwrap(), "A");
        assert_eq!(spec.sections.len(), 3);
        let cmd = spec.sections_of("command").next().unwrap();
        assert_eq!(cmd.args(), ["write".to_string(), "salary2(n)".to_string()]);
        assert_eq!(cmd.lines.len(), 1);
        assert!(cmd.lines[0].starts_with("update employees"));
    }

    #[test]
    fn pairs_helper() {
        let spec = SpecFile::parse(SAMPLE).unwrap();
        let opts = spec
            .sections_of("options")
            .next()
            .unwrap()
            .as_pairs()
            .unwrap();
        assert_eq!(opts.get("poll").map(String::as_str), Some("60s"));
        assert_eq!(opts.get("retry").map(String::as_str), Some("3"));
    }

    #[test]
    fn require_missing_prop() {
        let spec = SpecFile::parse("").unwrap();
        assert!(spec.require("site").is_err());
    }

    #[test]
    fn syntax_errors() {
        assert!(SpecFile::parse("[oops\nx=1").is_err());
        assert!(SpecFile::parse("stray line without equals").is_err());
        assert!(SpecFile::parse("[]").is_err());
    }

    #[test]
    fn repeated_key_in_section_is_an_error() {
        let spec = SpecFile::parse("[locate]\nsalary1 = A\n# moved?\nsalary1 = B\n").unwrap();
        let err = spec.sections[0].as_pairs().unwrap_err();
        assert_eq!(
            err.msg,
            "line 4: key `salary1` repeated in section [locate]"
        );
        // Keys are compared trimmed, and the header names the section.
        let spec = SpecFile::parse("[map salary1]\ncol = a\n col=b\n").unwrap();
        let err = spec.sections[0].as_pairs().unwrap_err();
        assert_eq!(
            err.msg,
            "line 3: key `col` repeated in section [map salary1]"
        );
    }

    #[test]
    fn repeated_top_level_property_is_an_error() {
        let err = SpecFile::parse("ris = kv\nservice = 1ms\nris = relational\n").unwrap_err();
        assert_eq!(
            err.msg,
            "line 3: key `ris` repeated in the top-level properties"
        );
        // The same key in two different sections is fine.
        let spec = SpecFile::parse("[a]\nx = 1\n[b]\nx = 2\n").unwrap();
        assert!(spec.sections.iter().all(|s| s.as_pairs().is_ok()));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let spec = SpecFile::parse("# only comments\n\n  \n").unwrap();
        assert!(spec.props.is_empty());
        assert!(spec.sections.is_empty());
    }

    #[test]
    fn body_lines_keep_interior_content() {
        let spec = SpecFile::parse("[sql]\nselect * from t where a = \"x\"\n").unwrap();
        assert_eq!(spec.sections[0].lines[0], "select * from t where a = \"x\"");
        // as_pairs on a non-kv section errors cleanly.
        let s = SpecFile::parse("[x]\nno equals here\n").unwrap();
        assert!(s.sections[0].as_pairs().is_err());
    }
}
