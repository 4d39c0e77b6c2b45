//! A dependency-free TOML-subset reader/writer for scenario files.
//!
//! The build environment is offline, so — in the spirit of the CLI's
//! `--key value` parser — scenarios serialize through a hand-rolled
//! subset of TOML instead of a `serde` stack. The subset is exactly what
//! scenario files need and nothing more:
//!
//! * `key = value` pairs, optionally grouped under `[section]` headers
//!   (one level, no nested or array-of-table sections),
//! * values: double-quoted strings (with `\"`, `\\`, `\n`, `\t`
//!   escapes), booleans, decimal numbers, flat arrays of numbers, and
//!   half-open integer ranges (`0..5`, used by sweep axes),
//! * `#` comments (whole-line or trailing) and blank lines.
//!
//! Numbers are kept as their raw tokens and parsed on demand, so an
//! `f32` written with its shortest round-trip representation is
//! recovered bit-for-bit.

use std::fmt::Write as _;

/// A parse failure, pointing at the offending line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextError {}

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A double-quoted string, unescaped.
    Str(String),
    /// A numeric token, kept raw (`"0.05"`, `"42"`, `"-3"`).
    Number(String),
    /// `true` / `false`.
    Bool(bool),
    /// A flat array of numeric tokens.
    NumberList(Vec<String>),
    /// A half-open integer range `start..end` (`end` exclusive), kept as
    /// raw tokens. Sweep axes use this for replicate grids (`seed = 0..5`).
    Range(String, String),
}

impl Value {
    /// The value an unquoted token spells — a finite number, a boolean,
    /// or else a word — for the places a knob arrives as bare text (a
    /// sweep axis value, a CLI flag value) instead of as a file line.
    pub fn from_token(token: &str) -> Self {
        match token {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ if token.parse::<f64>().map(f64::is_finite) == Ok(true) => {
                Value::Number(token.to_string())
            }
            _ => Value::Str(token.to_string()),
        }
    }
}

/// An ordered `key = value` table (insertion order is preserved so
/// serialized files stay diff-friendly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    entries: Vec<(String, Value)>,
}

impl Table {
    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts (or replaces) a key.
    pub fn set(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Iterates over the entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A parsed document: bare top-level keys plus named sections, in file
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// Keys that appear before the first `[section]` header.
    pub root: Table,
    sections: Vec<(String, Table)>,
}

impl Document {
    /// The named section, if present.
    pub fn section(&self, name: &str) -> Option<&Table> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// The named section, created on first use.
    pub fn section_mut(&mut self, name: &str) -> &mut Table {
        if !self.sections.iter().any(|(n, _)| n == name) {
            self.sections.push((name.to_string(), Table::default()));
        }
        let idx = self
            .sections
            .iter()
            .position(|(n, _)| n == name)
            .expect("just inserted");
        &mut self.sections[idx].1
    }

    /// All section names, in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Returns a [`TextError`] pointing at the first malformed line.
    pub fn parse(input: &str) -> Result<Self, TextError> {
        let mut doc = Document::default();
        let mut current: Option<String> = None;
        for (idx, raw_line) in input.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw_line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or_else(|| TextError {
                    line: line_no,
                    message: format!("unterminated section header `{line}`"),
                })?;
                let name = name.trim();
                if name.is_empty() || name.contains(['[', ']']) {
                    return Err(TextError {
                        line: line_no,
                        message: format!("invalid section name `{name}`"),
                    });
                }
                if doc.section(name).is_some() {
                    return Err(TextError {
                        line: line_no,
                        message: format!("duplicate section `[{name}]`"),
                    });
                }
                doc.section_mut(name);
                current = Some(name.to_string());
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| TextError {
                line: line_no,
                message: format!("expected `key = value` or `[section]`, got `{line}`"),
            })?;
            let key = key.trim();
            if key.is_empty() || key.contains(char::is_whitespace) {
                return Err(TextError {
                    line: line_no,
                    message: format!("invalid key `{key}`"),
                });
            }
            let value = parse_value(value.trim(), line_no)?;
            let table = match &current {
                Some(name) => doc.section_mut(name),
                None => &mut doc.root,
            };
            if table.get(key).is_some() {
                return Err(TextError {
                    line: line_no,
                    message: format!("duplicate key `{key}`"),
                });
            }
            table.set(key, value);
        }
        Ok(doc)
    }

    /// Serializes the document back to text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in self.root.iter() {
            let _ = writeln!(out, "{key} = {}", format_value(value));
        }
        for (name, table) in &self.sections {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{name}]");
            for (key, value) in table.iter() {
                let _ = writeln!(out, "{key} = {}", format_value(value));
            }
        }
        out
    }
}

/// Removes a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn parse_value(token: &str, line: usize) -> Result<Value, TextError> {
    if token.is_empty() {
        return Err(TextError {
            line,
            message: "missing value".into(),
        });
    }
    if let Some(rest) = token.strip_prefix('"') {
        let body = rest.strip_suffix('"').ok_or_else(|| TextError {
            line,
            message: format!("unterminated string `{token}`"),
        })?;
        return Ok(Value::Str(unescape(body, line)?));
    }
    if token == "true" {
        return Ok(Value::Bool(true));
    }
    if token == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(rest) = token.strip_prefix('[') {
        let body = rest.strip_suffix(']').ok_or_else(|| TextError {
            line,
            message: format!("unterminated array `{token}`"),
        })?;
        let body = body.trim();
        let mut items = Vec::new();
        if !body.is_empty() {
            for item in body.split(',') {
                items.push(number_token(item.trim(), line)?);
            }
        }
        return Ok(Value::NumberList(items));
    }
    if let Some((start, end)) = token.split_once("..") {
        let (start, end) = (start.trim(), end.trim());
        if start.parse::<u64>().is_ok() && end.parse::<u64>().is_ok() {
            return Ok(Value::Range(start.to_string(), end.to_string()));
        }
        return Err(TextError {
            line,
            message: format!("`{token}` is not an integer range (expected `start..end`)"),
        });
    }
    Ok(Value::Number(number_token(token, line)?))
}

fn number_token(token: &str, line: usize) -> Result<String, TextError> {
    if token.parse::<f64>().map(f64::is_finite) == Ok(true) {
        Ok(token.to_string())
    } else {
        Err(TextError {
            line,
            message: format!("`{token}` is not a finite number"),
        })
    }
}

fn unescape(body: &str, line: usize) -> Result<String, TextError> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return Err(TextError {
                line,
                message: "unescaped quote inside string".into(),
            });
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => {
                return Err(TextError {
                    line,
                    message: format!("unsupported escape `\\{}`", other.unwrap_or(' ')),
                })
            }
        }
    }
    Ok(out)
}

fn format_value(value: &Value) -> String {
    match value {
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Number(n) => n.clone(),
        Value::Bool(b) => b.to_string(),
        Value::NumberList(items) => format!("[{}]", items.join(", ")),
        Value::Range(start, end) => format!("{start}..{end}"),
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            '\t' => vec!['\\', 't'],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_comments() {
        let doc = Document::parse(
            "# experiment\nname = \"demo\"\n\n[dataset]\nkind = \"fmnist\" # trailing\nclients = 15\nrelaxation = 0.18\n[model]\nhidden = [64, 32]\nbias = true\n",
        )
        .unwrap();
        assert_eq!(doc.root.get("name"), Some(&Value::Str("demo".into())));
        let dataset = doc.section("dataset").unwrap();
        assert_eq!(dataset.get("kind"), Some(&Value::Str("fmnist".into())));
        assert_eq!(dataset.get("clients"), Some(&Value::Number("15".into())));
        let model = doc.section("model").unwrap();
        assert_eq!(
            model.get("hidden"),
            Some(&Value::NumberList(vec!["64".into(), "32".into()]))
        );
        assert_eq!(model.get("bias"), Some(&Value::Bool(true)));
    }

    #[test]
    fn round_trips_through_text() {
        let input = "name = \"a b # c\"\n\n[x]\nk = 1.5\nflag = false\nlist = [1, 2]\n";
        let doc = Document::parse(input).unwrap();
        assert_eq!(doc.to_text(), input);
        assert_eq!(Document::parse(&doc.to_text()).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (input, needle) in [
            ("just words", "key = value"),
            ("[unterminated", "unterminated section"),
            ("[]", "invalid section name"),
            ("k = ", "missing value"),
            ("k = \"open", "unterminated string"),
            ("k = [1, 2", "unterminated array"),
            ("k = maybe", "not a finite number"),
            ("k = nan", "not a finite number"),
            ("a = 1\na = 2", "duplicate key"),
            ("[s]\nx = 1\n[s]", "duplicate section"),
            ("bad key = 1", "invalid key"),
        ] {
            let err = Document::parse(input).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{input:?}: expected `{needle}` in `{}`",
                err.message
            );
        }
    }

    #[test]
    fn error_points_at_the_line() {
        let err = Document::parse("a = 1\nb = 2\noops\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().starts_with("line 3"));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let mut doc = Document::default();
        doc.root
            .set("s", Value::Str("quote \" slash \\ nl \n tab \t".into()));
        let reparsed = Document::parse(&doc.to_text()).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn integer_ranges_parse_and_round_trip() {
        let doc = Document::parse("[axes]\nseed = 0..5\nreplicate = 2 .. 4\n").unwrap();
        let axes = doc.section("axes").unwrap();
        assert_eq!(
            axes.get("seed"),
            Some(&Value::Range("0".into(), "5".into()))
        );
        assert_eq!(
            axes.get("replicate"),
            Some(&Value::Range("2".into(), "4".into()))
        );
        let text = doc.to_text();
        assert!(text.contains("seed = 0..5"), "{text}");
        assert_eq!(Document::parse(&text).unwrap(), doc);
    }

    #[test]
    fn malformed_ranges_are_rejected() {
        for input in ["k = 0..x", "k = ..5", "k = 1.5..3", "k = -1..3"] {
            let err = Document::parse(input).unwrap_err();
            assert!(
                err.message.contains("integer range"),
                "{input:?}: {}",
                err.message
            );
        }
    }

    #[test]
    fn comment_hash_inside_string_is_preserved() {
        let doc = Document::parse("k = \"a # b\"").unwrap();
        assert_eq!(doc.root.get("k"), Some(&Value::Str("a # b".into())));
    }
}
