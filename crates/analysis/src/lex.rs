//! A lossless, dependency-free Rust lexer.
//!
//! [`lex`] turns source text into a flat [`Token`] stream that **tiles the
//! input exactly**: every byte of the source belongs to exactly one token,
//! tokens appear in source order, and re-concatenating their texts
//! reproduces the file byte-for-byte. That invariant (checked for every
//! `.rs` file in the workspace by `tests/lex_lossless.rs`) is what lets the
//! lint and audit passes reason about spans without ever re-reading the
//! file through a second, subtly different scanner.
//!
//! The token model is deliberately coarse — single-byte punctuation, no
//! keyword table, no operator gluing — because the consumers
//! ([`crate::syntax`], [`crate::lint`], [`crate::concurrency`]) do their
//! own structural matching and a `>>` that closes two generic lists must
//! count as two closing angles, not one shift.
//!
//! What the lexer *does* resolve precisely, because line scanners cannot:
//!
//! - string literals, raw strings (`r#"…"#` with any number of hashes),
//!   byte strings, char literals, and the char-vs-lifetime ambiguity;
//! - line and block comments (nested), with doc-ness (`///`, `//!`,
//!   `/**`, `/*!`) recorded so escape parsing can tell prose from code;
//! - numeric literals including float exponents (`1e-12`) and suffixes,
//!   so a guard token like `1e-9` is one token, not a `1`, an ident `e`,
//!   and a minus.

use std::fmt;

/// What a token is. See the module docs for the granularity contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (also raw `r#ident`).
    Ident,
    /// A lifetime such as `'a` or `'static` (quote included).
    Lifetime,
    /// Integer literal, any radix, suffix included.
    Int,
    /// Float literal, exponent and suffix included.
    Float,
    /// `"…"` or `b"…"` string literal, quotes included.
    Str,
    /// `r"…"` / `r#"…"#` / `br#"…"#` raw string literal.
    RawStr,
    /// `'x'` or `b'x'` char/byte literal.
    Char,
    /// `// …` line comment; `doc` distinguishes `///` and `//!` prose.
    LineComment {
        /// True for `///` and `//!` documentation comments.
        doc: bool,
    },
    /// `/* … */` block comment (nesting handled); `doc` marks `/**`, `/*!`.
    BlockComment {
        /// True for `/**` and `/*!` documentation comments.
        doc: bool,
    },
    /// A run of whitespace bytes.
    Whitespace,
    /// One punctuation byte (`.`, `:`, `<`, …). Never glued: `::` is two.
    Punct,
    /// Any byte the lexer does not classify (kept so the stream stays
    /// lossless even on malformed input).
    Unknown,
}

impl TokenKind {
    /// Whether this kind is trivia (whitespace or any comment) that code
    /// scanners skip over.
    pub fn is_trivia(self) -> bool {
        matches!(
            self,
            TokenKind::Whitespace | TokenKind::LineComment { .. } | TokenKind::BlockComment { .. }
        )
    }
}

/// One token: a kind plus the half-open byte span `[start, end)` it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// The token's text within `src` (the source it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{}..{}", self.kind, self.start, self.end)
    }
}

/// Lexes `src` into a stream of tokens that tiles it exactly.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { b: src.as_bytes(), i: 0 }.run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        let mut tokens = Vec::new();
        while self.i < self.b.len() {
            let start = self.i;
            let kind = self.next_kind();
            debug_assert!(self.i > start, "lexer must always make progress");
            tokens.push(Token { kind, start, end: self.i });
        }
        tokens
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    /// Consumes one token's worth of bytes and returns its kind. `self.i`
    /// sits on the token's first byte on entry and one past its last on
    /// exit.
    fn next_kind(&mut self) -> TokenKind {
        let c = self.b[self.i];
        if c.is_ascii_whitespace() {
            while self.peek(0).is_some_and(|b| b.is_ascii_whitespace()) {
                self.i += 1;
            }
            return TokenKind::Whitespace;
        }
        if c == b'/' && self.peek(1) == Some(b'/') {
            return self.line_comment();
        }
        if c == b'/' && self.peek(1) == Some(b'*') {
            return self.block_comment();
        }
        // Raw strings and raw identifiers: r"…", r#"…"#, br"…", r#ident.
        if c == b'r' || c == b'b' {
            if let Some(kind) = self.try_raw_or_byte_prefixed() {
                return kind;
            }
        }
        if c == b'"' {
            self.i += 1;
            self.consume_str_body();
            return TokenKind::Str;
        }
        if c == b'\'' {
            return self.char_or_lifetime();
        }
        if c.is_ascii_digit() {
            return self.number();
        }
        if is_ident_start(c) {
            self.i += 1;
            while self.peek(0).is_some_and(is_ident_continue) {
                self.i += 1;
            }
            return TokenKind::Ident;
        }
        self.i += 1;
        if c.is_ascii_punctuation() {
            TokenKind::Punct
        } else {
            TokenKind::Unknown
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        // `///` is outer doc, `//!` inner doc — but `////…` is plain again.
        let doc = (self.peek(2) == Some(b'/') && self.peek(3) != Some(b'/'))
            || self.peek(2) == Some(b'!');
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.i += 1;
        }
        TokenKind::LineComment { doc }
    }

    fn block_comment(&mut self) -> TokenKind {
        let doc = (self.peek(2) == Some(b'*') && self.peek(3) != Some(b'*'))
            || self.peek(2) == Some(b'!');
        self.i += 2;
        let mut depth = 1u32;
        while self.i < self.b.len() && depth > 0 {
            if self.b[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.i += 2;
            } else if self.b[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.i += 2;
            } else {
                self.i += 1;
            }
        }
        TokenKind::BlockComment { doc }
    }

    /// Handles the `r` / `b` prefixed forms: raw strings, byte strings,
    /// byte chars and raw identifiers. Returns `None` when the `r`/`b` is
    /// just the first letter of a plain identifier.
    fn try_raw_or_byte_prefixed(&mut self) -> Option<TokenKind> {
        let c = self.b[self.i];
        // b"…" byte string: same body rules as a plain string.
        if c == b'b' && self.peek(1) == Some(b'"') {
            self.i += 2;
            self.consume_str_body();
            return Some(TokenKind::Str);
        }
        // b'x' byte char.
        if c == b'b' && self.peek(1) == Some(b'\'') {
            self.i += 1; // now on the quote; reuse the char scanner
            return match self.char_or_lifetime() {
                TokenKind::Char => Some(TokenKind::Char),
                // `b'static`-style text cannot occur in valid Rust; treat
                // whatever was consumed as an unknown-ish char token.
                _ => Some(TokenKind::Char),
            };
        }
        // r"…" / r#"…"# / br#"…"# raw (byte) strings, r#ident raw idents.
        let after_b = if c == b'b' && self.peek(1) == Some(b'r') { 1 } else { 0 };
        if c == b'r' || after_b == 1 {
            let mut j = self.i + after_b + 1;
            let mut hashes = 0usize;
            while self.b.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if self.b.get(j) == Some(&b'"') {
                // Raw string: scan for `"` followed by `hashes` hashes.
                j += 1;
                while j < self.b.len() {
                    if self.b[j] == b'"'
                        && self.b[j + 1..].iter().take_while(|&&h| h == b'#').count() >= hashes
                    {
                        j += 1 + hashes;
                        break;
                    }
                    j += 1;
                }
                self.i = j.min(self.b.len());
                return Some(TokenKind::RawStr);
            }
            if c == b'r'
                && after_b == 0
                && hashes == 1
                && self.b.get(j).is_some_and(|&x| is_ident_start(x))
            {
                // r#ident raw identifier.
                self.i = j;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.i += 1;
                }
                return Some(TokenKind::Ident);
            }
        }
        None
    }

    /// Consumes a string body after the opening quote, through the closing
    /// quote, honouring backslash escapes.
    fn consume_str_body(&mut self) {
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i = (self.i + 2).min(self.b.len()),
                b'"' => {
                    self.i += 1;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Disambiguates `'x'` / `'\n'` char literals from `'a` lifetimes.
    fn char_or_lifetime(&mut self) -> TokenKind {
        // On entry self.i is at the opening quote.
        let q = self.i;
        self.i += 1;
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char: scan to the closing quote.
                self.i += 2; // past the backslash and the escaped byte
                while self.peek(0).is_some_and(|b| b != b'\'' && b != b'\n') {
                    self.i += 1;
                }
                if self.peek(0) == Some(b'\'') {
                    self.i += 1;
                }
                TokenKind::Char
            }
            Some(c) if is_ident_start(c) => {
                // Could be 'a' (char) or 'a / 'static (lifetime): a char
                // has a quote right after one ident char.
                if self.b.get(q + 2) == Some(&b'\'')
                    && !is_ident_continue(*self.b.get(q + 3).unwrap_or(&b' '))
                {
                    self.i = q + 3;
                    TokenKind::Char
                } else {
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.i += 1;
                    }
                    TokenKind::Lifetime
                }
            }
            Some(_) => {
                // Something like '(' — a char literal of a punct byte.
                if self.b.get(q + 2) == Some(&b'\'') {
                    self.i = q + 3;
                } else {
                    self.i += 1;
                }
                TokenKind::Char
            }
            None => TokenKind::Punct,
        }
    }

    fn number(&mut self) -> TokenKind {
        let radix_prefixed = self.peek(0) == Some(b'0')
            && matches!(
                self.peek(1),
                Some(b'x') | Some(b'o') | Some(b'b') | Some(b'X') | Some(b'O') | Some(b'B')
            );
        if radix_prefixed {
            self.i += 2;
            while self.peek(0).is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_') {
                self.i += 1;
            }
            return TokenKind::Int;
        }
        let mut float = false;
        while self.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            self.i += 1;
        }
        // A fractional part only if the dot is followed by a digit or ends
        // the number (`1.`), but NOT `1..2` (range) or `1.max()` (method).
        if self.peek(0) == Some(b'.') {
            match self.peek(1) {
                Some(d) if d.is_ascii_digit() => {
                    float = true;
                    self.i += 1;
                    while self.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                        self.i += 1;
                    }
                }
                Some(b'.') => {}
                Some(c) if is_ident_start(c) => {}
                _ => {
                    float = true;
                    self.i += 1;
                }
            }
        }
        // Exponent: e / E, optional sign, at least one digit.
        if matches!(self.peek(0), Some(b'e') | Some(b'E')) {
            let sign = usize::from(matches!(self.peek(1), Some(b'+') | Some(b'-')));
            if self.peek(1 + sign).is_some_and(|b| b.is_ascii_digit()) {
                float = true;
                self.i += 1 + sign;
                while self.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                    self.i += 1;
                }
            }
        }
        // Suffix (f64, usize, …) glues onto the literal.
        let before_suffix = self.i;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.i += 1;
        }
        let suffix = &self.b[before_suffix..self.i];
        if suffix.starts_with(b"f32") || suffix.starts_with(b"f64") {
            float = true;
        }
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }
}

/// First byte of an identifier. Non-ASCII bytes count as ident material so
/// UTF-8 sequences never get split across token boundaries.
fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

/// Continuation byte of an identifier.
fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text(src))).collect()
    }

    fn reassemble(src: &str) -> String {
        lex(src).iter().map(|t| t.text(src)).collect()
    }

    #[test]
    fn tiles_the_source_exactly() {
        let srcs = [
            "fn main() { println!(\"hi\"); }",
            "let r = r#\"raw \" string\"#; // trailing",
            "let c = '\\''; let lt: &'static str = \"\";",
            "/* block /* nested */ still */ fn f() {}",
            "let x = 1e-12; let y = 0xFF_usize; let z = 1.5f32; let r = 1..2;",
            "let unicode = \"héllo\"; // commentaire é\n",
            "#[cfg(all(test, feature = \"x\"))]\nmod tests {}\n",
        ];
        for src in srcs {
            assert_eq!(reassemble(src), src, "lossless tiling failed for {src:?}");
        }
    }

    #[test]
    fn classifies_strings_and_chars() {
        let toks = kinds("let s = \"a\\\"b\"; let c = 'x'; let e = '\\n'; let lt = &'a str;");
        assert!(toks.contains(&(TokenKind::Str, "\"a\\\"b\"")));
        assert!(toks.contains(&(TokenKind::Char, "'x'")));
        assert!(toks.contains(&(TokenKind::Char, "'\\n'")));
        assert!(toks.contains(&(TokenKind::Lifetime, "'a")));
    }

    #[test]
    fn classifies_raw_strings_and_raw_idents() {
        let toks = kinds("let a = r\"x\"; let b = r#\"y \" z\"#; let c = br#\"w\"#; let d = r#fn;");
        assert!(toks.contains(&(TokenKind::RawStr, "r\"x\"")));
        assert!(toks.contains(&(TokenKind::RawStr, "r#\"y \" z\"#")));
        assert!(toks.contains(&(TokenKind::RawStr, "br#\"w\"#")));
        assert!(toks.contains(&(TokenKind::Ident, "r#fn")));
    }

    #[test]
    fn classifies_numbers() {
        let toks = kinds("1 1.5 1e-12 2.5E+3 0xFF 0b10 1_000 1.0f64 3usize 1..2 1.max(2)");
        assert!(toks.contains(&(TokenKind::Int, "1")));
        assert!(toks.contains(&(TokenKind::Float, "1.5")));
        assert!(toks.contains(&(TokenKind::Float, "1e-12")));
        assert!(toks.contains(&(TokenKind::Float, "2.5E+3")));
        assert!(toks.contains(&(TokenKind::Int, "0xFF")));
        assert!(toks.contains(&(TokenKind::Int, "0b10")));
        assert!(toks.contains(&(TokenKind::Int, "1_000")));
        assert!(toks.contains(&(TokenKind::Float, "1.0f64")));
        assert!(toks.contains(&(TokenKind::Int, "3usize")));
        // `1..2` keeps the ints apart; `1.max` stays an int plus a call.
        assert!(toks.contains(&(TokenKind::Ident, "max")));
    }

    #[test]
    fn comment_docness_recorded() {
        let toks =
            kinds("/// doc\n//! inner\n// plain\n//// plain too\n/** blockdoc */ /* plain */");
        let docs: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| {
                matches!(
                    k,
                    TokenKind::LineComment { doc: true } | TokenKind::BlockComment { doc: true }
                )
            })
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(docs, vec!["/// doc", "//! inner", "/** blockdoc */"]);
    }

    #[test]
    fn punctuation_is_never_glued() {
        let toks = kinds("a::b->c >> d");
        let puncts: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Punct).map(|(_, s)| *s).collect();
        assert_eq!(puncts, vec![":", ":", "-", ">", ">", ">"]);
    }
}
