//! Waiver parsing and lifecycle for the token pass.
//!
//! Two directive forms, both requiring a non-empty `reason=` (which
//! swallows the rest of the parenthesized body, commas included):
//!
//! ```text
//! // simlint: allow(rule[, rule…], reason=why this is sound)
//! // simlint: allow-block(rule[, rule…], lines=N, reason=why)
//! ```
//!
//! `allow` covers its own line and the next — the v1 contract. The
//! `allow-block` form covers its own line and the next `N` lines, so a
//! multi-line construct needs one waiver, not one per line; `lines=0`
//! (a waiver that covers nothing beyond its own comment) is rejected as
//! `bad-waiver`, as is a missing or malformed `lines=`.
//!
//! Waivers are parsed from *plain* comments only; doc comments may show
//! the syntax without enacting it (the lexer never surfaces doc text
//! here). Every waiver tracks which of its rules actually suppressed a
//! finding: a declared rule that never fires inside the covered span is
//! a `stale-waiver` finding, which is how the waiver ledger can only
//! shrink.

use std::collections::BTreeSet;

use crate::rules;
use crate::Finding;

/// One parsed waiver directive.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 1-based line of the directive comment.
    pub line: usize,
    /// Rules this waiver may suppress.
    pub rules: Vec<String>,
    /// First covered line (the directive's own), 1-based.
    pub first: usize,
    /// Last covered line, 1-based inclusive.
    pub last: usize,
    /// True for `allow-block`.
    pub block: bool,
}

/// All waivers of one file, with usage tracking for stale detection.
#[derive(Debug, Default)]
pub struct WaiverSet {
    /// Well-formed waivers in line order.
    pub waivers: Vec<Waiver>,
    /// Malformed-waiver findings as (1-based line, message).
    pub bad: Vec<(usize, String)>,
    /// Per waiver: the subset of its rules that suppressed a finding.
    used: Vec<BTreeSet<String>>,
}

impl WaiverSet {
    /// Parse waivers from per-line plain-comment text (0-based index =
    /// line - 1), as produced by [`crate::lexer::lex`].
    pub fn parse(comments: &[String]) -> WaiverSet {
        let mut set = WaiverSet::default();
        for (idx, comment) in comments.iter().enumerate() {
            let line = idx + 1;
            let Some(pos) = comment.find("simlint:") else {
                continue;
            };
            let rest = comment[pos + "simlint:".len()..].trim_start();
            let (block, body) = if let Some(b) = rest.strip_prefix("allow-block(") {
                (true, b)
            } else if let Some(b) = rest.strip_prefix("allow(") {
                (false, b)
            } else {
                set.bad.push((
                    line,
                    "waiver must use `allow(rule, reason=...)` or \
                     `allow-block(rule, lines=N, reason=...)`"
                        .into(),
                ));
                continue;
            };
            let Some(close) = body.find(')') else {
                set.bad
                    .push((line, "unterminated waiver: missing `)`".into()));
                continue;
            };
            let inner = &body[..close];
            // Everything after `reason=` is the reason, commas included;
            // rule names (and `lines=` for blocks) come before it.
            let (head, reason) = match inner.find("reason=") {
                Some(at) => (
                    inner[..at].trim_end_matches([' ', ',']),
                    Some(inner[at + "reason=".len()..].trim().to_string()),
                ),
                None => (inner, None),
            };
            let Some(reason) = reason.filter(|r| !r.is_empty()) else {
                set.bad.push((
                    line,
                    "waiver is missing a non-empty `reason=`: every exception \
                     must say why it is sound"
                        .into(),
                ));
                continue;
            };
            let _ = reason; // recorded implicitly by being present
            let mut names = Vec::new();
            let mut span: Option<usize> = None;
            let mut ok = true;
            for part in head.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                if let Some(n) = part.strip_prefix("lines=") {
                    if !block {
                        set.bad
                            .push((line, "`lines=` is only valid in `allow-block(...)`".into()));
                        ok = false;
                        break;
                    }
                    match n.trim().parse::<usize>() {
                        Ok(0) => {
                            set.bad.push((
                                line,
                                "allow-block with `lines=0` covers nothing; a \
                                 waiver that suppresses nothing is a stale \
                                 waiver by construction"
                                    .into(),
                            ));
                            ok = false;
                            break;
                        }
                        Ok(n) => span = Some(n),
                        Err(_) => {
                            set.bad
                                .push((line, format!("allow-block has unparsable `lines={n}`")));
                            ok = false;
                            break;
                        }
                    }
                } else {
                    names.push(part.to_string());
                }
            }
            if !ok {
                continue;
            }
            if block && span.is_none() {
                set.bad.push((
                    line,
                    "allow-block needs `lines=N` (how many lines past the \
                     directive it covers)"
                        .into(),
                ));
                continue;
            }
            if names.is_empty() {
                set.bad.push((line, "waiver allows no rule".into()));
                continue;
            }
            let mut name_ok = true;
            for name in &names {
                if !rules::RULES.contains(&name.as_str()) {
                    set.bad
                        .push((line, format!("waiver names unknown rule `{name}`")));
                    name_ok = false;
                } else if !rules::waivable(name) {
                    set.bad.push((
                        line,
                        format!("rule `{name}` cannot be waived at a source site"),
                    ));
                    name_ok = false;
                }
            }
            if !name_ok {
                continue;
            }
            let covered = if block { span.unwrap() } else { 1 };
            set.waivers.push(Waiver {
                line,
                rules: names,
                first: line,
                last: line + covered,
                block,
            });
        }
        set.used = vec![BTreeSet::new(); set.waivers.len()];
        set
    }

    /// If some waiver covers `line` (1-based) for `rule`, mark it used
    /// and return true. Hits are distributed: the earliest *unused*
    /// matching waiver takes the hit first, so when two findings of the
    /// same rule land on one covered line, a second overlapping waiver
    /// absorbs the second finding instead of being reported stale. A
    /// waiver that overlaps a span where nothing extra fires still rots
    /// into `stale-waiver`.
    pub fn suppresses(&mut self, line: usize, rule: &str) -> bool {
        let mut covered = false;
        for (i, w) in self.waivers.iter().enumerate() {
            if w.first <= line && line <= w.last && w.rules.iter().any(|r| r == rule) {
                if !self.used[i].contains(rule) {
                    self.used[i].insert(rule.to_string());
                    return true;
                }
                covered = true;
            }
        }
        covered
    }

    /// Mark the earliest unused waiver covering `line` for `rule` as
    /// used *without* suppressing anything. This is how an
    /// interprocedural finding whose sink lives in another file keeps
    /// its source-side waiver alive: the finding is only waivable at the
    /// sink line, but the source file's waiver still documents the
    /// hazard it excuses and must not rot into `stale-waiver`.
    pub fn credit(&mut self, line: usize, rule: &str) {
        for (i, w) in self.waivers.iter().enumerate() {
            if w.first <= line
                && line <= w.last
                && w.rules.iter().any(|r| r == rule)
                && !self.used[i].contains(rule)
            {
                self.used[i].insert(rule.to_string());
                return;
            }
        }
    }

    /// After rule evaluation: one `stale-waiver` finding per waiver that
    /// declares a rule which never fired inside its covered span.
    pub fn stale_findings(&self, rel_path: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        for (i, w) in self.waivers.iter().enumerate() {
            let unused: Vec<&str> = w
                .rules
                .iter()
                .filter(|r| !self.used[i].contains(r.as_str()))
                .map(String::as_str)
                .collect();
            if !unused.is_empty() {
                out.push(Finding {
                    file: rel_path.to_string(),
                    line: w.line,
                    rule: "stale-waiver",
                    message: format!(
                        "waiver for `{}` suppresses nothing on lines {}-{}; \
                         the hazard it excused is gone, so delete the waiver",
                        unused.join("`, `"),
                        w.first,
                        w.last
                    ),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(lines: &[&str]) -> WaiverSet {
        let comments: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        WaiverSet::parse(&comments)
    }

    #[test]
    fn allow_covers_own_and_next_line() {
        let set = parse(&["simlint: allow(unordered, reason=narrow)", "", ""]);
        assert!(set.bad.is_empty(), "{:?}", set.bad);
        assert_eq!((set.waivers[0].first, set.waivers[0].last), (1, 2));
    }

    #[test]
    fn allow_block_covers_n_lines() {
        let set = parse(&["simlint: allow-block(unordered, lines=3, reason=multi-line literal)"]);
        assert!(set.bad.is_empty(), "{:?}", set.bad);
        assert_eq!((set.waivers[0].first, set.waivers[0].last), (1, 4));
        assert!(set.waivers[0].block);
    }

    #[test]
    fn lines_zero_is_rejected() {
        let set = parse(&["simlint: allow-block(unordered, lines=0, reason=nope)"]);
        assert!(set.waivers.is_empty());
        assert!(set.bad[0].1.contains("lines=0"), "{:?}", set.bad);
    }

    #[test]
    fn allow_block_without_lines_is_rejected() {
        let set = parse(&["simlint: allow-block(unordered, reason=forgot)"]);
        assert!(set.waivers.is_empty());
        assert!(set.bad[0].1.contains("lines=N"), "{:?}", set.bad);
    }

    #[test]
    fn lines_on_plain_allow_is_rejected() {
        let set = parse(&["simlint: allow(unordered, lines=2, reason=wrong form)"]);
        assert!(set.waivers.is_empty());
        assert!(set.bad[0].1.contains("allow-block"), "{:?}", set.bad);
    }

    #[test]
    fn unwaivable_rules_are_rejected() {
        for rule in [
            "stale-waiver",
            "bad-waiver",
            "layer-violation",
            "missing-forbid",
        ] {
            let text = format!("simlint: allow({rule}, reason=try me)");
            let set = parse(&[&text]);
            assert!(set.waivers.is_empty(), "{rule} accepted");
            assert!(set.bad[0].1.contains("cannot be waived"), "{:?}", set.bad);
        }
    }

    #[test]
    fn usage_tracking_feeds_stale_detection() {
        let mut set = parse(&[
            "simlint: allow(unordered, reason=live)",
            "",
            "simlint: allow(unordered, reason=dead)",
        ]);
        assert!(set.suppresses(2, "unordered"));
        let stale = set.stale_findings("x.rs");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].line, 3);
        assert_eq!(stale[0].rule, "stale-waiver");
    }

    #[test]
    fn multi_rule_waiver_is_stale_per_unused_rule() {
        let mut set = parse(&["simlint: allow(unordered, wall-clock, reason=both)"]);
        assert!(set.suppresses(2, "unordered"));
        let stale = set.stale_findings("x.rs");
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("wall-clock"));
        assert!(!stale[0].message.contains("unordered`"));
    }

    #[test]
    fn stacked_waivers_split_same_rule_hits_on_one_line() {
        // Two findings of the same rule on one line, two waivers both
        // covering it: each waiver absorbs one hit, neither is stale.
        // (Regression: suppresses() used to send every hit to the first
        // matching waiver, leaving the second as a false stale-waiver.)
        let mut set = parse(&[
            "simlint: allow-block(unordered, lines=2, reason=map half)",
            "simlint: allow(unordered, reason=set half)",
        ]);
        assert!(set.suppresses(3, "unordered"));
        assert!(set.suppresses(3, "unordered"));
        assert!(set.stale_findings("x.rs").is_empty());
    }

    #[test]
    fn redundant_waiver_with_a_single_hit_is_still_stale() {
        let mut set = parse(&[
            "simlint: allow-block(unordered, lines=2, reason=live)",
            "simlint: allow(unordered, reason=redundant)",
        ]);
        assert!(set.suppresses(3, "unordered"));
        let stale = set.stale_findings("x.rs");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].line, 2);
    }

    #[test]
    fn reason_swallows_commas() {
        let set = parse(&["simlint: allow(unordered, reason=keys, never iterated, honest)"]);
        assert!(set.bad.is_empty(), "{:?}", set.bad);
        assert_eq!(set.waivers[0].rules, vec!["unordered"]);
    }
}
