//! The rule engine: applies scoped rules to lexed files, honouring
//! `#[cfg(test)]` spans and inline waivers.
//!
//! ## Test-code exemption
//!
//! Rules other than `no-unsafe` skip code under a test attribute
//! (`#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[test]`). Spans are found
//! by token scanning: after a test attribute, the following item —
//! through its matching `}` or terminating `;` — is exempt, as is an
//! attributed enum variant, struct field or match arm through its `,`
//! (or up to the enclosing `}`). `cfg(not(test))` is *not* exempt (that
//! is production-only code).
//!
//! ## Waivers
//!
//! A violation is waivable only by an inline comment:
//!
//! ```text
//! // dbclint: allow(rule-name) — justification text
//! ```
//!
//! A trailing comment waives its own line; a standalone comment waives
//! the next code line. The justification is mandatory, unknown rule
//! names are errors, and *unused* waivers are deny-level violations so
//! stale waivers cannot accumulate. Every used waiver is inventoried in
//! the JSON report, making waiver creep visible in diffs.

use crate::config::{Config, RuleConfig};
use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{matches_at, matches_index, RuleKind, Severity};

/// One source file to analyze: workspace-relative path plus content.
pub struct SourceFile {
    pub path: String,
    pub content: String,
}

/// A rule hit that was not waived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name, or a meta-rule (`waiver-syntax`, `waiver-unused`,
    /// `lex-error`).
    pub rule: String,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    /// The pattern label that fired (`unwrap()`, `Vec::new`, ...).
    pub pattern: String,
    /// The trimmed source line.
    pub snippet: String,
}

/// A used waiver, inventoried for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverRecord {
    pub rule: String,
    pub file: String,
    /// The waived code line.
    pub line: u32,
    pub justification: String,
}

/// Full analysis outcome.
#[derive(Debug, Default)]
pub struct Analysis {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    pub waivers: Vec<WaiverRecord>,
}

impl Analysis {
    pub fn deny_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Deny)
            .count()
    }

    pub fn warn_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Warn)
            .count()
    }
}

/// A parsed inline waiver before use-resolution.
struct PendingWaiver {
    rule: Option<RuleKind>,
    raw_rule: String,
    /// Code line this waiver targets.
    target_line: u32,
    /// Line of the comment itself (for diagnostics).
    comment_line: u32,
    justification: String,
    used: bool,
}

fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}

fn is_comment(t: &Token) -> bool {
    matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
}

/// Byte ranges of test-exempt code (attribute through end of item).
fn test_spans(src: &str, toks: &[Token]) -> Vec<(usize, usize)> {
    let sig: Vec<&Token> = toks.iter().filter(|t| !is_comment(t)).collect();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        // Attribute opener: `#[` or `#![`.
        if sig[i].kind != TokenKind::Punct(b'#') {
            i += 1;
            continue;
        }
        let attr_start_tok = i;
        let mut j = i + 1;
        if j < sig.len() && sig[j].kind == TokenKind::Punct(b'!') {
            j += 1;
        }
        if j >= sig.len() || sig[j].kind != TokenKind::Punct(b'[') {
            i += 1;
            continue;
        }
        // Scan the attribute body to its matching `]`, noting idents.
        let mut depth = 0i32;
        let mut has_test = false;
        let mut has_not = false;
        let mut k = j;
        while k < sig.len() {
            match sig[k].kind {
                TokenKind::Punct(b'[') => depth += 1,
                TokenKind::Punct(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident => {
                    let text = sig[k].text(src);
                    if text == "test" {
                        has_test = true;
                    } else if text == "not" {
                        has_not = true;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if k >= sig.len() {
            break; // malformed attribute at EOF
        }
        if !has_test || has_not {
            i = k + 1;
            continue;
        }
        // Test attribute. Skip any further attributes, then consume the
        // attributed item.
        let mut m = k + 1;
        while m + 1 < sig.len() && sig[m].kind == TokenKind::Punct(b'#') {
            let mut n = m + 1;
            if sig[n].kind == TokenKind::Punct(b'!') {
                n += 1;
            }
            if n >= sig.len() || sig[n].kind != TokenKind::Punct(b'[') {
                break;
            }
            let mut d = 0i32;
            while n < sig.len() {
                match sig[n].kind {
                    TokenKind::Punct(b'[') => d += 1,
                    TokenKind::Punct(b']') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                n += 1;
            }
            m = n + 1;
        }
        // The attributed thing may be an item (ends at its block's `}` or
        // a `;`), or an enum variant, struct field or match arm (ends at
        // a `,`, or at the enclosing `}` when it is the last one). Angle
        // brackets are counted only outside delimiters, so the commas of
        // `fn f<A, B>() -> Result<(), E>` do not end the item early; `->`
        // and `=>` are arrows, not closers.
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut end = src.len();
        let mut next = sig.len();
        let mut p = m;
        while p < sig.len() {
            match sig[p].kind {
                TokenKind::Punct(b'<') if depth == 0 => angle += 1,
                TokenKind::Punct(b'>')
                    if depth == 0 && !matches!(sig[p - 1].kind, TokenKind::Punct(b'-' | b'=')) =>
                {
                    angle = (angle - 1).max(0);
                }
                TokenKind::Punct(b'(' | b'[' | b'{') => depth += 1,
                TokenKind::Punct(b')' | b']' | b'}') if depth == 0 => {
                    end = sig[p].start;
                    next = p;
                    break;
                }
                TokenKind::Punct(close @ (b')' | b']' | b'}')) => {
                    depth -= 1;
                    if depth == 0 && close == b'}' {
                        end = sig[p].end;
                        next = p + 1;
                        break;
                    }
                }
                // `;` never occurs inside generics, so a stray `<` (a
                // comparison or shift) cannot carry the span past it.
                TokenKind::Punct(b';') if depth == 0 => {
                    end = sig[p].end;
                    next = p + 1;
                    break;
                }
                TokenKind::Punct(b',') if depth == 0 && angle == 0 => {
                    end = sig[p].end;
                    next = p + 1;
                    break;
                }
                _ => {}
            }
            p += 1;
        }
        spans.push((sig[attr_start_tok].start, end));
        i = next;
    }
    spans
}

/// Parse waiver annotations out of comment tokens.
fn parse_waivers(
    src: &str,
    toks: &[Token],
    file: &str,
    violations: &mut Vec<Violation>,
) -> Vec<PendingWaiver> {
    let mut out = Vec::new();
    for (idx, tok) in toks.iter().enumerate() {
        if !is_comment(tok) {
            continue;
        }
        let text = tok.text(src);
        // Doc comments (`///`, `//!`, `/**`, `/*!`) never carry waivers —
        // they may legitimately *describe* the waiver syntax.
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = text.find("dbclint:") else {
            continue;
        };
        let rest = text[at + "dbclint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            violations.push(Violation {
                rule: "waiver-syntax".into(),
                severity: Severity::Deny,
                file: file.into(),
                line: tok.line,
                pattern: "dbclint:".into(),
                snippet: line_snippet(src, tok.line),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            violations.push(Violation {
                rule: "waiver-syntax".into(),
                severity: Severity::Deny,
                file: file.into(),
                line: tok.line,
                pattern: "allow(".into(),
                snippet: line_snippet(src, tok.line),
            });
            continue;
        };
        let raw_rule = rest[..close].trim().to_string();
        let justification: String = rest[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':', ' '])
            .trim()
            .trim_end_matches("*/")
            .trim()
            .to_string();
        // Trailing comment (code earlier on the same line) waives its own
        // line; a standalone comment waives the next code line.
        let has_code_before = toks[..idx]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !is_comment(t));
        let target_line = if has_code_before {
            tok.line
        } else {
            toks[idx + 1..]
                .iter()
                .find(|t| !is_comment(t))
                .map_or(tok.line, |t| t.line)
        };
        out.push(PendingWaiver {
            rule: RuleKind::from_name(&raw_rule),
            raw_rule,
            target_line,
            comment_line: tok.line,
            justification,
            used: false,
        });
    }
    out
}

/// Analyze one file against the rules that scope to it.
fn analyze_file(cfg: &Config, file: &SourceFile, out: &mut Analysis) {
    let src = &file.content;
    let toks = match lex(src) {
        Ok(t) => t,
        Err(e) => {
            out.violations.push(Violation {
                rule: "lex-error".into(),
                severity: Severity::Deny,
                file: file.path.clone(),
                line: e.line,
                pattern: "lex".into(),
                snippet: e.message,
            });
            return;
        }
    };
    let rules: Vec<&RuleConfig> = cfg
        .rules_for(&file.path)
        .into_iter()
        .filter(|r| r.severity != Severity::Off)
        .collect();

    let mut waivers = parse_waivers(src, &toks, &file.path, &mut out.violations);
    for w in &waivers {
        if w.rule.is_none() {
            out.violations.push(Violation {
                rule: "waiver-syntax".into(),
                severity: Severity::Deny,
                file: file.path.clone(),
                line: w.comment_line,
                pattern: format!("allow({})", w.raw_rule),
                snippet: format!("unknown rule `{}` in waiver", w.raw_rule),
            });
        } else if w.justification.is_empty() {
            out.violations.push(Violation {
                rule: "waiver-syntax".into(),
                severity: Severity::Deny,
                file: file.path.clone(),
                line: w.comment_line,
                pattern: format!("allow({})", w.raw_rule),
                snippet: "waiver without justification".into(),
            });
        }
    }

    if !rules.is_empty() {
        let spans = test_spans(src, &toks);
        let in_test = |offset: usize| spans.iter().any(|&(s, e)| offset >= s && offset < e);
        let sig: Vec<&Token> = toks.iter().filter(|t| !is_comment(t)).collect();

        for rule in &rules {
            let mut hits: Vec<(u32, &'static str, usize)> = Vec::new();
            if rule.kind == RuleKind::SliceIndex {
                for i in 0..sig.len() {
                    let prev = i.checked_sub(1).map(|p| sig[p]);
                    if matches_index(src, prev, sig[i]) {
                        hits.push((sig[i].line, "indexing[]", sig[i].start));
                    }
                }
            } else {
                for i in 0..sig.len() {
                    for pat in rule.kind.patterns() {
                        if matches_at(src, &sig, i, pat) {
                            hits.push((sig[i].line, pat.label, sig[i].start));
                            break;
                        }
                    }
                }
            }
            for (line, label, offset) in hits {
                if rule.kind.exempts_test_code() && in_test(offset) {
                    continue;
                }
                let rule_name = rule.kind.name();
                if let Some(w) = waivers
                    .iter_mut()
                    .find(|w| w.rule == Some(rule.kind) && w.target_line == line)
                {
                    w.used = true;
                    // Each (rule, line) waiver is reported once even if the
                    // line has several matches of the same rule.
                    if !out
                        .waivers
                        .iter()
                        .any(|r| r.rule == rule_name && r.file == file.path && r.line == line)
                    {
                        out.waivers.push(WaiverRecord {
                            rule: rule_name.into(),
                            file: file.path.clone(),
                            line,
                            justification: w.justification.clone(),
                        });
                    }
                    continue;
                }
                out.violations.push(Violation {
                    rule: rule_name.into(),
                    severity: rule.severity,
                    file: file.path.clone(),
                    line,
                    pattern: label.into(),
                    snippet: line_snippet(src, line),
                });
            }
        }
    }

    // Stale waivers are themselves deny violations: a waiver must always
    // sit on a line that needs it.
    for w in waivers.iter().filter(|w| w.rule.is_some() && !w.used) {
        // Only flag staleness when the rule actually scopes to this file;
        // a waiver for an out-of-scope rule is a config/comment mismatch.
        out.violations.push(Violation {
            rule: "waiver-unused".into(),
            severity: Severity::Deny,
            file: file.path.clone(),
            line: w.comment_line,
            pattern: format!("allow({})", w.raw_rule),
            snippet: "waiver does not match any violation on its target line".into(),
        });
    }
}

/// Analyze a set of files under a config. Output ordering is
/// deterministic: violations and waivers sorted by (file, line, rule).
pub fn analyze(cfg: &Config, files: &[SourceFile]) -> Analysis {
    let mut out = Analysis::default();
    for f in files {
        if cfg.walk_excluded(&f.path) {
            continue;
        }
        out.files_scanned += 1;
        analyze_file(cfg, f, &mut out);
    }
    out.violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out.waivers
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse_config;

    fn cfg() -> Config {
        parse_config(
            r#"
[files]
roots = ["crates"]
exclude = []

[rules.hot-path-alloc]
severity = "deny"
include = ["crates/core/src/kcd.rs"]

[rules.panic-free]
severity = "deny"
include = ["crates/core/src"]

[rules.slice-index]
severity = "warn"
include = ["crates/core/src"]

[rules.determinism]
severity = "deny"
include = ["crates/core/src"]

[rules.no-unsafe]
severity = "deny"
include = ["crates"]
"#,
        )
        .unwrap()
    }

    fn run(path: &str, src: &str) -> Analysis {
        analyze(
            &cfg(),
            &[SourceFile {
                path: path.into(),
                content: src.into(),
            }],
        )
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let a = run(
            "crates/core/src/kcd.rs",
            r#"
fn prod() -> f64 { 1.0 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = Vec::new();
        v.push(1.0);
        let x = Some(3).unwrap();
    }
}
"#,
        );
        assert_eq!(a.violations, vec![]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let a = run(
            "crates/core/src/kcd.rs",
            "#[cfg(not(test))]\nfn prod() { let v = Vec::new(); }\n",
        );
        assert_eq!(a.deny_count(), 1);
        assert_eq!(a.violations[0].rule, "hot-path-alloc");
    }

    #[test]
    fn test_fn_attr_is_exempt() {
        let a = run(
            "crates/core/src/kcd.rs",
            "#[test]\nfn t() { let v = Vec::new(); }\nfn prod() { let w = Vec::new(); }\n",
        );
        assert_eq!(a.deny_count(), 1);
        assert_eq!(a.violations[0].line, 3);
    }

    #[test]
    fn test_variant_and_arm_end_at_their_comma() {
        let a = run(
            "crates/core/src/pipeline.rs",
            r#"
enum Job {
    Tick,
    #[cfg(test)]
    Wedge(u64),
}
fn prod(x: Option<u8>) -> u8 { x.expect("a") }
fn arm(j: Job) -> u8 {
    match j {
        #[cfg(test)]
        Job::Wedge(_) => Some(1).unwrap(),
        Job::Tick => Some(2).expect("b"),
    }
}
#[cfg(test)]
fn helper<A, B>() -> Result<(), (A, B)> { None::<u8>.unwrap(); Ok(()) }
fn after() { None::<u8>.unwrap(); }
"#,
        );
        let lines: Vec<u32> = a.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![7, 12, 17], "{:?}", a.violations);
    }

    #[test]
    fn trailing_waiver() {
        let a = run(
            "crates/core/src/pipeline.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // dbclint: allow(panic-free) — checked by caller\n",
        );
        assert_eq!(a.deny_count(), 0, "{:?}", a.violations);
        assert_eq!(a.waivers.len(), 1);
        assert_eq!(a.waivers[0].justification, "checked by caller");
    }

    #[test]
    fn standalone_waiver_covers_next_line() {
        let a = run(
            "crates/core/src/pipeline.rs",
            "// dbclint: allow(panic-free) — invariant: map key exists\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        assert_eq!(a.deny_count(), 0, "{:?}", a.violations);
        assert_eq!(a.waivers.len(), 1);
    }

    #[test]
    fn waiver_without_justification_is_deny() {
        let a = run(
            "crates/core/src/pipeline.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // dbclint: allow(panic-free)\n",
        );
        assert!(a
            .violations
            .iter()
            .any(|v| v.rule == "waiver-syntax" && v.severity == Severity::Deny));
    }

    #[test]
    fn unknown_rule_waiver_is_deny() {
        let a = run(
            "crates/core/src/pipeline.rs",
            "fn f() {} // dbclint: allow(no-such-rule) — whatever\n",
        );
        assert!(a.violations.iter().any(|v| v.rule == "waiver-syntax"));
    }

    #[test]
    fn unused_waiver_is_deny() {
        let a = run(
            "crates/core/src/pipeline.rs",
            "// dbclint: allow(panic-free) — stale\nfn f() {}\n",
        );
        assert!(a.violations.iter().any(|v| v.rule == "waiver-unused"));
    }

    #[test]
    fn unsafe_denied_even_in_tests() {
        let a = run(
            "crates/core/src/kcd.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { std::hint::unreachable_unchecked() } }\n}\n",
        );
        assert!(a.violations.iter().any(|v| v.rule == "no-unsafe"));
    }

    #[test]
    fn out_of_scope_file_untouched() {
        let a = run(
            "crates/eval/src/lib.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        // Only no-unsafe scopes to crates/eval, and there is no unsafe.
        assert_eq!(a.violations, vec![]);
    }

    #[test]
    fn warn_severity_counted_separately() {
        let a = run(
            "crates/core/src/pipeline.rs",
            "fn f(xs: &[f64]) -> f64 { xs[0] }\n",
        );
        assert_eq!(a.deny_count(), 0);
        assert_eq!(a.warn_count(), 1);
        assert_eq!(a.violations[0].rule, "slice-index");
    }

    #[test]
    fn raw_string_and_comment_mentions_ignored() {
        let a = run(
            "crates/core/src/pipeline.rs",
            r###"
// calls unwrap() in a comment
fn f() -> &'static str {
    /* panic! in /* nested */ comment */
    r#"string with .unwrap() and panic!"#
}
"###,
        );
        assert_eq!(a.violations, vec![]);
    }

    #[test]
    fn determinism_rule_fires() {
        let a = run(
            "crates/core/src/fleet2.rs",
            "fn f() { let _t = std::time::Instant::now(); }\n",
        );
        assert!(a.violations.iter().any(|v| v.rule == "determinism"));
    }
}
