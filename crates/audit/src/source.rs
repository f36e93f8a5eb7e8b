//! Per-file context the rules run against: workspace-relative path, owning
//! crate, target kind (lib / test / bench / ...), token stream, allowlist
//! directives, and `#[cfg(test)]` module line ranges.

use crate::lexer::{lex, Tok};

/// What kind of compilation target a file belongs to. Rules scope
/// themselves by kind: determinism rules audit shipped simulator code, not
/// test/bench scaffolding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/**` of a workspace crate).
    Lib,
    /// Binary target (`src/main.rs`, `src/bin/**`).
    Bin,
    /// Integration tests (`tests/**`).
    Test,
    /// Benchmarks (`benches/**`).
    Bench,
    /// Examples (`examples/**`).
    Example,
    /// Build script (`build.rs`).
    Build,
}

/// One `// gh-audit: allow(rule, ...) -- reason` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Rule names inside `allow(...)`.
    pub rules: Vec<String>,
    /// 1-based line the suppression applies to (the directive's own line
    /// for trailing comments, the following code line for standalone
    /// comments, or `None` for `allow-file`).
    pub line: Option<u32>,
    /// Line the directive itself is written on (for diagnostics).
    pub at: u32,
    /// True when a non-empty `-- reason` was present.
    pub has_reason: bool,
}

/// A lexed, classified source file ready for rule walks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Cargo package name owning the file (e.g. `gh-mem`).
    pub crate_name: String,
    /// Target kind (see [`FileKind`]).
    pub kind: FileKind,
    /// Token stream (comments included).
    pub tokens: Vec<Tok>,
    /// Parsed allow directives.
    pub allows: Vec<AllowDirective>,
    /// 1-based inclusive line ranges of `#[cfg(test)] mod { ... }` bodies.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Builds a source file from text; `rel_path` uses `/` separators.
    pub fn parse(rel_path: &str, crate_name: &str, kind: FileKind, text: &str) -> SourceFile {
        let tokens = lex(text);
        let allows = parse_allows(&tokens);
        let test_ranges = find_test_ranges(&tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            tokens,
            allows,
            test_ranges,
        }
    }

    /// True when `line` falls inside a `#[cfg(test)]` module.
    pub fn in_test_mod(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// True when a rule is suppressed at `line` by an allow directive (or
    /// file-wide by `allow-file`).
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.rules.iter().any(|r| r == rule) && (a.line.is_none() || a.line == Some(line))
        })
    }

    /// Iterator over non-comment tokens (most rules match on code
    /// tokens only).
    pub fn code_tokens(&self) -> impl Iterator<Item = &Tok> {
        self.tokens.iter().filter(|t| !t.is_comment())
    }
}

/// Extracts `gh-audit:` directives from comment tokens.
///
/// Grammar (inside any `//` or `/* */` comment):
/// `gh-audit: allow(rule1, rule2) -- reason`      suppress on this line, or
///                                                 the next code line when
///                                                 the comment stands alone
/// `gh-audit: allow-file(rule) -- reason`          suppress for whole file
fn parse_allows(tokens: &[Tok]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if !t.is_comment() || !t.text.contains("gh-audit:") {
            continue;
        }
        // Doc comments describe the directive syntax; only plain comments
        // carry live directives.
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|d| t.text.starts_with(d))
        {
            continue;
        }
        let Some(d) = parse_directive_text(&t.text) else {
            // Malformed directive: recorded with no rules; the engine
            // reports it through the `allow-syntax` meta rule.
            out.push(AllowDirective {
                rules: Vec::new(),
                line: Some(t.line),
                at: t.line,
                has_reason: false,
            });
            continue;
        };
        let line = if d.file_wide {
            None
        } else if tokens[..idx]
            .iter()
            .any(|p| !p.is_comment() && p.line == t.line)
        {
            // Trailing comment: suppress on its own line.
            Some(t.line)
        } else {
            // Standalone comment: suppress on the next line that has code.
            tokens[idx + 1..]
                .iter()
                .find(|n| !n.is_comment())
                .map(|n| n.line)
                .or(Some(t.line))
        };
        out.push(AllowDirective {
            rules: d.rules,
            line,
            at: t.line,
            has_reason: d.has_reason,
        });
    }
    out
}

struct ParsedDirective {
    rules: Vec<String>,
    file_wide: bool,
    has_reason: bool,
}

fn parse_directive_text(comment: &str) -> Option<ParsedDirective> {
    let rest = comment.split("gh-audit:").nth(1)?.trim_start();
    let (file_wide, rest) = match rest.strip_prefix("allow-file") {
        Some(r) => (true, r),
        None => (false, rest.strip_prefix("allow")?),
    };
    // `(rule, rule, ...)` — whitespace anywhere around names and commas is
    // fine; the close paren splits the rule list from the reason.
    let inner = rest.trim_start().strip_prefix('(')?;
    let (inner, after) = inner.split_once(')')?;
    let rules: Vec<String> = inner
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let has_reason = after
        .split_once("--")
        .map(|(_, r)| !r.trim().trim_end_matches("*/").trim().is_empty())
        .unwrap_or(false);
    Some(ParsedDirective {
        rules,
        file_wide,
        has_reason,
    })
}

/// Finds `#[cfg(test)] mod name { ... }` bodies and returns their line
/// ranges. Attribute and mod may be separated by other attributes or doc
/// comments.
fn find_test_ranges(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let code: Vec<(usize, &Tok)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < code.len() {
        let w = &code[i..];
        let is_cfg_test = w[0].1.is_punct("#")
            && w[1].1.is_punct("[")
            && w[2].1.is_ident("cfg")
            && w[3].1.is_punct("(")
            && w[4].1.is_ident("test")
            && w[5].1.is_punct(")")
            && w[6].1.is_punct("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan forward past further attributes to the item; only `mod`
        // bodies get a range (a cfg(test) `use` has no body to skip).
        let mut j = i + 7;
        while j < code.len() && code[j].1.is_punct("#") {
            // Skip a balanced `[...]` attribute.
            let mut depth = 0i32;
            j += 1;
            while j < code.len() {
                if code[j].1.is_punct("[") {
                    depth += 1;
                } else if code[j].1.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if j + 2 < code.len() && code[j].1.is_ident("mod") {
            // Find the opening brace, then its match.
            let mut k = j + 1;
            while k < code.len() && !code[k].1.is_punct("{") {
                k += 1;
            }
            if k < code.len() {
                let start_line = code[i].1.line;
                let mut depth = 0i32;
                let mut end_line = code[k].1.line;
                while k < code.len() {
                    if code[k].1.is_punct("{") {
                        depth += 1;
                    } else if code[k].1.is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            end_line = code[k].1.line;
                            break;
                        }
                    }
                    end_line = code[k].1.line;
                    k += 1;
                }
                out.push((start_line, end_line));
                i = k.max(i + 1);
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(text: &str) -> SourceFile {
        SourceFile::parse("x/src/lib.rs", "x", FileKind::Lib, text)
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let f = sf("let a = m.iter(); // gh-audit: allow(no-unordered-iteration) -- commutative\nlet b = 1;\n");
        assert!(f.is_allowed("no-unordered-iteration", 1));
        assert!(!f.is_allowed("no-unordered-iteration", 2));
        assert!(!f.is_allowed("no-wall-clock", 1));
    }

    #[test]
    fn standalone_allow_applies_to_next_code_line() {
        let f = sf(
            "// gh-audit: allow(no-float-eq) -- sentinel compare\n// more prose\nif x == 0.0 {}\n",
        );
        assert!(f.is_allowed("no-float-eq", 3));
        assert!(!f.is_allowed("no-float-eq", 1));
    }

    #[test]
    fn allow_file_applies_everywhere() {
        let f = sf(
            "// gh-audit: allow-file(no-unwrap-in-lib) -- harness code\nfn f() { x.unwrap(); }\n",
        );
        assert!(f.is_allowed("no-unwrap-in-lib", 2));
        assert!(f.is_allowed("no-unwrap-in-lib", 999));
    }

    #[test]
    fn directive_without_reason_is_flagged_not_honored() {
        let f = sf("// gh-audit: allow(no-float-eq)\nif x == 0.0 {}\n");
        assert!(f.is_allowed("no-float-eq", 2), "still suppresses");
        assert!(!f.allows[0].has_reason, "but engine reports allow-syntax");
    }

    #[test]
    fn multi_rule_allow() {
        let f = sf("x(); // gh-audit: allow(a, b) -- both\n");
        assert!(f.is_allowed("a", 1) && f.is_allowed("b", 1));
    }

    #[test]
    fn multi_rule_allow_file() {
        let f = sf("// gh-audit: allow-file(a, b) -- harness\nfn f() {}\n");
        assert!(f.is_allowed("a", 999) && f.is_allowed("b", 999));
        assert!(f.allows[0].has_reason);
    }

    #[test]
    fn whitespace_in_rule_list_is_tolerated() {
        let f = sf("x(); // gh-audit: allow( a ,  b ) -- spaced\n");
        assert!(f.is_allowed("a", 1) && f.is_allowed("b", 1));
        assert!(f.allows[0].has_reason);
    }

    #[test]
    fn empty_parens_are_malformed() {
        let f = sf("x(); // gh-audit: allow() -- why\n");
        assert_eq!(f.allows.len(), 1);
        assert!(f.allows[0].rules.is_empty(), "recorded for allow-syntax");
    }

    #[test]
    fn missing_close_paren_is_malformed() {
        let f = sf("x(); // gh-audit: allow(a -- why\n");
        assert_eq!(f.allows.len(), 1);
        assert!(f.allows[0].rules.is_empty());
    }

    #[test]
    fn empty_reason_after_dashes_counts_as_missing() {
        let f = sf("x(); // gh-audit: allow(a) --\n");
        assert!(f.is_allowed("a", 1), "still suppresses");
        assert!(!f.allows[0].has_reason);
    }

    #[test]
    fn reason_containing_dashes_is_fine() {
        let f = sf("x(); // gh-audit: allow(a) -- see ADR-7 -- revisit\n");
        assert!(f.allows[0].has_reason);
    }

    #[test]
    fn block_comment_directive_reason_strips_terminator() {
        let f = sf("x(); /* gh-audit: allow(a) -- */\n");
        assert!(!f.allows[0].has_reason, "`*/` alone is not a reason");
    }

    #[test]
    fn cfg_test_module_range() {
        let src = "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = sf(src);
        assert_eq!(f.test_ranges.len(), 1);
        assert!(f.in_test_mod(5));
        assert!(!f.in_test_mod(1));
        assert!(!f.in_test_mod(7));
    }
}
