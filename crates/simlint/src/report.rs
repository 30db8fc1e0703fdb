//! The findings report and its renderings: the `--json` document, SARIF
//! 2.1.0 and GitHub Actions annotations.
//!
//! Everything here is dependency-free: a hand-rolled JSON emitter with
//! proper string escaping, and a small recursive-descent JSON parser
//! (objects, arrays, strings with escapes, numbers, booleans, null) that
//! reads the checked-in shard certificate back ([`crate::shard`]).

use std::collections::BTreeMap;

use crate::Finding;

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
}

impl Report {
    /// The full machine-readable report (`--json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}{}\n",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// SARIF 2.1.0 (`--sarif`): one run, rules from the registry, one
    /// `error`-level result per finding. Minimal but valid — enough for
    /// `github/codeql-action/upload-sarif` to render findings as PR
    /// annotations in the Security tab.
    pub fn to_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \
             \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \
             \"tool\": {\n        \"driver\": {\n          \
             \"name\": \"simlint\",\n          \
             \"informationUri\": \"https://example.invalid/simlint\",\n          \
             \"rules\": [\n",
        );
        let n_rules = crate::rules::TABLE.len();
        for (i, r) in crate::rules::TABLE.iter().enumerate() {
            out.push_str(&format!(
                "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
                 \"fullDescription\": {{\"text\": {}}}}}{}\n",
                json_str(r.name),
                json_str(&r.fires_on.replace('\n', " ")),
                json_str(&r.detail.replace('\n', " ")),
                if i + 1 < n_rules { "," } else { "" }
            ));
        }
        out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"ruleId\": {}, \"level\": \"error\", \"message\": \
                 {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": \
                 {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": \
                 {{\"startLine\": {}}}}}}}]}}{}\n",
                json_str(f.rule),
                json_str(&f.message),
                json_str(&f.file),
                f.line,
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n    }\n  ]\n}\n");
        out
    }

    /// GitHub Actions workflow-command annotations, one per finding.
    pub fn to_annotations(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "::error file={},line={}::[{}] {}\n",
                f.file,
                f.line,
                f.rule,
                gha_escape(&f.message)
            ));
        }
        out
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn gha_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

// ---------------------------------------------------------------------------
// Mini JSON parser (read-side, for the shard certificate)
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }
}

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{c}` at offset {pos}"))
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key is not a string at offset {pos}")),
                };
                expect(b, pos, ':')?;
                map.insert(key, parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    '"' => return Ok(Value::Str(s)),
                    '\\' => {
                        let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                        *pos += 1;
                        match esc {
                            '"' => s.push('"'),
                            '\\' => s.push('\\'),
                            '/' => s.push('/'),
                            'n' => s.push('\n'),
                            'r' => s.push('\r'),
                            't' => s.push('\t'),
                            'b' => s.push('\u{8}'),
                            'f' => s.push('\u{c}'),
                            'u' => {
                                let hex: String =
                                    b.get(*pos..*pos + 4).ok_or("short \\u")?.iter().collect();
                                *pos += 4;
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| format!("bad \\u{hex}"))?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape \\{other}")),
                        }
                    }
                    c => s.push(c),
                }
            }
            Err("unterminated string".into())
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while b
                .get(*pos)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            {
                *pos += 1;
            }
            let text: String = b[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number `{text}`"))
        }
        Some('t')
            if b.get(*pos..*pos + 4)
                .is_some_and(|s| s.iter().collect::<String>() == "true") =>
        {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some('f')
            if b.get(*pos..*pos + 5)
                .is_some_and(|s| s.iter().collect::<String>() == "false") =>
        {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some('n')
            if b.get(*pos..*pos + 4)
                .is_some_and(|s| s.iter().collect::<String>() == "null") =>
        {
            *pos += 4;
            Ok(Value::Null)
        }
        _ => Err(format!("unexpected character at offset {pos}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, rule: &'static str) -> Finding {
        Finding {
            file: file.into(),
            line,
            rule,
            message: "m \"quoted\"\nsecond".into(),
        }
    }

    fn report_with(findings: Vec<Finding>) -> Report {
        Report {
            files_scanned: 3,
            findings,
        }
    }

    #[test]
    fn json_roundtrips_through_own_parser() {
        let report = report_with(vec![finding("a.rs", 7, "float-sort")]);
        let value = parse_json(&report.to_json()).expect("valid JSON");
        assert_eq!(
            value.get("files_scanned").and_then(Value::as_usize),
            Some(3)
        );
        let f = &value.get("findings").and_then(Value::as_array).unwrap()[0];
        assert_eq!(f.get("file").and_then(Value::as_str), Some("a.rs"));
        assert_eq!(f.get("line").and_then(Value::as_usize), Some(7));
        assert_eq!(
            f.get("message").and_then(Value::as_str),
            Some("m \"quoted\"\nsecond")
        );
    }

    #[test]
    fn annotations_escape_newlines() {
        let report = report_with(vec![finding("a.rs", 7, "float-sort")]);
        let ann = report.to_annotations();
        assert!(ann.starts_with("::error file=a.rs,line=7::[float-sort]"));
        assert!(ann.contains("%0A"));
        assert!(!ann.trim_end().contains('\n') || ann.lines().count() == 1);
    }

    #[test]
    fn sarif_is_valid_json_with_rules_and_results() {
        let report = report_with(vec![finding("a.rs", 7, "float-sort")]);
        let value = parse_json(&report.to_sarif()).expect("valid SARIF JSON");
        assert_eq!(value.get("version").and_then(Value::as_str), Some("2.1.0"));
        let run = &value.get("runs").and_then(Value::as_array).unwrap()[0];
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(rules.len(), crate::rules::TABLE.len());
        let results = run.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].get("ruleId").and_then(Value::as_str),
            Some("float-sort")
        );
        let loc = &results[0]
            .get("locations")
            .and_then(Value::as_array)
            .unwrap()[0];
        assert_eq!(
            loc.get("physicalLocation")
                .and_then(|p| p.get("region"))
                .and_then(|r| r.get("startLine"))
                .and_then(Value::as_usize),
            Some(7)
        );
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": }").is_err());
    }
}
