//! A minimal Rust lexer for the `xtask check` analyzer.
//!
//! Produces a flat significant-token stream (identifiers, punctuation,
//! literals) annotated with line numbers, plus per-line comment records, so
//! the rules never false-positive on the contents of strings or comments.
//! It does not parse: `analysis::ast` builds token trees over this stream,
//! and the comment-association rules in `rules::base` read it directly.

/// One significant (non-comment, non-whitespace) token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (multi-char operators arrive as chars).
    Punct(char),
    /// String literal (regular/raw/byte); payload is the unescaped-ish
    /// source content between the quotes (escapes left as written).
    Str(String),
    /// Character or lifetime-adjacent literal.
    Char,
    /// Numeric literal; payload is the source text (digits, suffix and
    /// underscores as written) so rules can match literal values such as
    /// `Tag::user(7)`.
    Num(String),
}

/// A token plus the 1-based source line it starts on.
#[derive(Clone, Debug)]
pub struct SpannedTok {
    pub tok: Tok,
    pub line: u32,
}

/// Comment text found on one source line (without the `//` / `/*` markers
/// collapsed away — the raw text including markers is kept so rules can
/// distinguish doc comments).
#[derive(Clone, Debug)]
pub struct LineComment {
    pub line: u32,
    pub text: String,
}

/// Lexer output over one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<SpannedTok>,
    pub comments: Vec<LineComment>,
    /// Per line (1-based index into `has_code` - 1): whether any significant
    /// token starts on that line.
    pub has_code: Vec<bool>,
    /// Whether the first significant token on the line is `#` (attribute).
    pub starts_attr: Vec<bool>,
}

impl Lexed {
    /// All comment text on `line`, concatenated.
    pub fn comment_text(&self, line: u32) -> String {
        self.comments
            .iter()
            .filter(|c| c.line == line)
            .map(|c| c.text.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn line_flag(v: &[bool], line: u32) -> bool {
        line >= 1 && v.get(line as usize - 1).copied().unwrap_or(false)
    }

    /// True if any significant token starts on `line`.
    pub fn line_has_code(&self, line: u32) -> bool {
        Self::line_flag(&self.has_code, line)
    }

    /// True if `line`'s first significant token opens an attribute.
    pub fn line_is_attr(&self, line: u32) -> bool {
        Self::line_flag(&self.starts_attr, line)
    }

    /// True if `line` carries a comment.
    pub fn line_has_comment(&self, line: u32) -> bool {
        self.comments.iter().any(|c| c.line == line)
    }
}

/// Lexes `src`. Never fails: unterminated constructs consume to EOF.
pub fn lex(src: &str) -> Lexed {
    let nlines = src.lines().count().max(1);
    let mut out = Lexed {
        tokens: Vec::new(),
        comments: Vec::new(),
        has_code: vec![false; nlines],
        starts_attr: vec![false; nlines],
    };
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let mark_code = |out: &mut Lexed, line: u32, first_char: char| {
        let idx = line as usize - 1;
        if idx < out.has_code.len() && !out.has_code[idx] {
            out.has_code[idx] = true;
            out.starts_attr[idx] = first_char == '#';
        }
    };

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                out.comments.push(LineComment {
                    line,
                    text: b[start..i].iter().collect(),
                });
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                // Nested block comment; may span lines — record a comment
                // entry per line it touches.
                let mut depth = 1;
                let mut text_start = i;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        out.comments.push(LineComment {
                            line,
                            text: b[text_start..i].iter().collect(),
                        });
                        line += 1;
                        text_start = i + 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(LineComment {
                    line,
                    text: b[text_start..i.min(b.len())].iter().collect(),
                });
            }
            '"' => {
                let (s, ni, nl) = lex_string(&b, i, line);
                mark_code(&mut out, line, '"');
                out.tokens.push(SpannedTok {
                    tok: Tok::Str(s),
                    line,
                });
                i = ni;
                line = nl;
            }
            'r' | 'b' if is_raw_or_byte_string(&b, i) => {
                let start_line = line;
                let (s, ni, nl) = lex_raw_or_byte(&b, i, line);
                mark_code(&mut out, start_line, 'r');
                out.tokens.push(SpannedTok {
                    tok: Tok::Str(s),
                    line: start_line,
                });
                i = ni;
                line = nl;
            }
            '\'' => {
                // Char literal vs lifetime. `'a` (lifetime) has no closing
                // quote right after the name; `'x'` / `'\n'` do.
                if let Some(ni) = char_literal_end(&b, i) {
                    mark_code(&mut out, line, '\'');
                    out.tokens.push(SpannedTok {
                        tok: Tok::Char,
                        line,
                    });
                    i = ni;
                } else {
                    // Lifetime: consume the quote and the name.
                    mark_code(&mut out, line, '\'');
                    i += 1;
                    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                mark_code(&mut out, line, c);
                let start = i;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_alphanumeric() || d == '_' {
                        i += 1;
                    } else if d == '.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                        i += 1; // decimal point of a float
                    } else {
                        break;
                    }
                }
                out.tokens.push(SpannedTok {
                    tok: Tok::Num(b[start..i].iter().collect()),
                    line,
                });
            }
            c if c.is_alphanumeric() || c == '_' => {
                mark_code(&mut out, line, c);
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let word: String = b[start..i].iter().collect();
                out.tokens.push(SpannedTok {
                    tok: Tok::Ident(word),
                    line,
                });
            }
            c => {
                mark_code(&mut out, line, c);
                out.tokens.push(SpannedTok {
                    tok: Tok::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    // r"..", r#"..."#, b"..", br"..", rb? (rb is not Rust; br is)
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j < b.len() && b[j] == 'r' {
        j += 1;
        while j < b.len() && b[j] == '#' {
            j += 1;
        }
        return j < b.len() && b[j] == '"';
    }
    // b"..."
    b[i] == 'b' && j < b.len() && b[j] == '"'
}

fn lex_string(b: &[char], mut i: usize, mut line: u32) -> (String, usize, u32) {
    debug_assert_eq!(b[i], '"');
    i += 1;
    let start = i;
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => {
                let s: String = b[start..i].iter().collect();
                return (s, i + 1, line);
            }
            '\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (b[start..].iter().collect(), i, line)
}

fn lex_raw_or_byte(b: &[char], mut i: usize, mut line: u32) -> (String, usize, u32) {
    if b[i] == 'b' {
        i += 1;
    }
    if i < b.len() && b[i] == 'r' {
        i += 1;
        let mut hashes = 0;
        while i < b.len() && b[i] == '#' {
            hashes += 1;
            i += 1;
        }
        debug_assert!(i < b.len() && b[i] == '"');
        i += 1;
        let start = i;
        let closer: String = format!("\"{}", "#".repeat(hashes));
        let closer: Vec<char> = closer.chars().collect();
        while i < b.len() {
            if b[i] == '\n' {
                line += 1;
            }
            if b[i] == '"' && b[i..].len() >= closer.len() && b[i..i + closer.len()] == closer[..] {
                let s: String = b[start..i].iter().collect();
                return (s, i + closer.len(), line);
            }
            i += 1;
        }
        (b[start..].iter().collect(), i, line)
    } else {
        // b"..."
        lex_string(b, i, line)
    }
}

/// If position `i` (at a `'`) starts a char literal, returns the index just
/// past its closing quote; `None` for lifetimes.
fn char_literal_end(b: &[char], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == '\\' {
        // Escape: consume the backslash and escape body up to the quote.
        j += 2;
        while j < b.len() && b[j] != '\'' && b[j] != '\n' {
            j += 1;
        }
        return if j < b.len() && b[j] == '\'' {
            Some(j + 1)
        } else {
            None
        };
    }
    // Plain char: exactly one char then a quote. `'a'` yes; `'a` no.
    if b[j] == '\'' {
        return None; // `''` is invalid; treat as not-a-literal
    }
    j += 1;
    if j < b.len() && b[j] == '\'' {
        Some(j + 1)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_keywords() {
        let src = r##"
            // unsafe in a comment
            let a = "unsafe { }";
            let b = r#"unwrap()"#;
            /* static mut X */
            let c = 'u';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"static".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // Lifetime names are swallowed entirely (not emitted as idents) so
        // `&'static mut T` can never look like a `static mut` item.
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        assert_eq!(ids, ["fn", "f", "x", "str", "str", "x"]);
    }

    #[test]
    fn static_lifetime_does_not_leak_static_ident() {
        let ids = idents("fn f(x: &'static mut u8) {}");
        assert!(!ids.contains(&"static".to_string()));
    }

    #[test]
    fn char_literal_with_quote_escape() {
        let src = r"let q = '\''; let l = '\u{41}'; unsafe {}";
        let ids = idents(src);
        assert!(ids.contains(&"unsafe".to_string()));
    }

    #[test]
    fn comments_recorded_per_line() {
        let src = "// SAFETY: fine\nlet x = 1; // trailing\n";
        let l = lex(src);
        assert!(l.comment_text(1).contains("SAFETY:"));
        assert!(l.comment_text(2).contains("trailing"));
        assert!(!l.line_has_code(1));
        assert!(l.line_has_code(2));
    }

    #[test]
    fn attributes_marked() {
        let src = "#[cfg(test)]\nmod tests {}\n";
        let l = lex(src);
        assert!(l.line_is_attr(1));
        assert!(!l.line_is_attr(2));
        assert!(l.line_has_code(2));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"a\nb\nc\";\nunsafe {}\n";
        let l = lex(src);
        let u = l
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "unsafe"))
            .expect("unsafe token present");
        assert_eq!(u.line, 4);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let src = "for i in 0..10 { let f = 1.5f64; }";
        let l = lex(src);
        let dots = l.tokens.iter().filter(|t| t.tok == Tok::Punct('.')).count();
        assert_eq!(dots, 2, "0..10 contributes exactly two dot puncts");
    }
}
