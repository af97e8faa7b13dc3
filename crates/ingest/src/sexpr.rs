//! A position-tracking s-expression reader for Specctra DSN files.
//!
//! The Specctra design language is a tree of parenthesised lists whose
//! leaves are bare atoms or double-quoted strings. This module parses
//! one top-level expression into [`Sexpr`], keeping the 1-based
//! line/column of every node so the DSN reader can report errors at the
//! construct that caused them.

use crate::error::{err, ParseError, Pos};

/// One node of the parsed tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Sexpr {
    /// A bare or quoted atom.
    Atom { text: String, pos: Pos },
    /// A parenthesised list.
    List { items: Vec<Sexpr>, pos: Pos },
}

impl Sexpr {
    /// The source position of the node (of the opening paren for lists).
    #[must_use]
    pub fn pos(&self) -> Pos {
        match self {
            Sexpr::Atom { pos, .. } | Sexpr::List { pos, .. } => *pos,
        }
    }

    /// The atom text, if this node is an atom.
    #[must_use]
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            Sexpr::Atom { text, .. } => Some(text),
            Sexpr::List { .. } => None,
        }
    }

    /// The list items (empty slice for atoms).
    #[must_use]
    pub fn items(&self) -> &[Sexpr] {
        match self {
            Sexpr::Atom { .. } => &[],
            Sexpr::List { items, .. } => items,
        }
    }

    /// The tag of a list: its first item, when that is an atom.
    #[must_use]
    pub fn tag(&self) -> Option<&str> {
        self.items().first().and_then(Sexpr::as_atom)
    }

    /// Whether this is a list tagged `tag` (ASCII case-insensitive, as
    /// Specctra keywords are case-insensitive).
    #[must_use]
    pub fn is(&self, tag: &str) -> bool {
        self.tag().is_some_and(|t| t.eq_ignore_ascii_case(tag))
    }

    /// The child lists tagged `tag`, in order.
    pub fn children<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a Sexpr> + 'a {
        self.items().iter().skip(1).filter(move |s| s.is(tag))
    }

    /// The first child list tagged `tag`.
    #[must_use]
    pub fn child<'a>(&'a self, tag: &str) -> Option<&'a Sexpr> {
        self.items().iter().skip(1).find(|s| s.is(tag))
    }

    /// The `i`-th item as an atom, or an error naming the tag.
    pub fn atom_at(&self, i: usize, what: &str) -> Result<&str, ParseError> {
        self.items()
            .get(i)
            .and_then(Sexpr::as_atom)
            .ok_or_else(|| err(self.pos(), format!("expected {what}")))
    }

    /// The `i`-th item as a number, or an error naming the tag.
    pub fn num_at(&self, i: usize, what: &str) -> Result<f64, ParseError> {
        let text = self.atom_at(i, what)?;
        text.parse::<f64>()
            .map_err(|_| err(self.pos(), format!("expected {what}, got `{text}`")))
    }
}

/// The deepest list nesting [`parse`] accepts: real designs nest about
/// ten levels, and the reader recurses per level, so a hostile depth
/// must be a parse error rather than a stack overflow.
pub const MAX_DEPTH: usize = 256;

/// Parses one top-level s-expression; trailing content is an error.
///
/// # Errors
///
/// Returns [`ParseError`] with line/column on unbalanced parentheses,
/// an unterminated string, lists nested deeper than [`MAX_DEPTH`], or
/// garbage outside the top-level list.
pub fn parse(text: &str) -> Result<Sexpr, ParseError> {
    let mut lexer = Lexer::new(text);
    let first = lexer
        .next_token()?
        .ok_or_else(|| err(Pos::new(1, 1), "empty input (expected `(pcb ...)`)"))?;
    let expr = parse_node(&mut lexer, first, 0)?;
    if let Some(tok) = lexer.next_token()? {
        return Err(err(tok.pos, "trailing content after the top-level list"));
    }
    Ok(expr)
}

/// Parses the node starting with `tok`, which sits inside `depth` lists.
fn parse_node(lexer: &mut Lexer<'_>, tok: Token, depth: usize) -> Result<Sexpr, ParseError> {
    match tok.kind {
        TokenKind::LParen if depth == MAX_DEPTH => Err(err(
            tok.pos,
            format!("lists nested deeper than {MAX_DEPTH} levels"),
        )),
        TokenKind::LParen => {
            let pos = tok.pos;
            let mut items = Vec::new();
            loop {
                let tok = lexer
                    .next_token()?
                    .ok_or_else(|| err(pos, "unclosed `(`"))?;
                if matches!(tok.kind, TokenKind::RParen) {
                    return Ok(Sexpr::List { items, pos });
                }
                items.push(parse_node(lexer, tok, depth + 1)?);
            }
        }
        TokenKind::RParen => Err(err(tok.pos, "unmatched `)`")),
        TokenKind::Atom(text) => Ok(Sexpr::Atom { text, pos: tok.pos }),
    }
}

enum TokenKind {
    LParen,
    RParen,
    Atom(String),
}

struct Token {
    kind: TokenKind,
    pos: Pos,
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Lexer<'a> {
        Lexer {
            chars: text.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn pos(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    fn next_token(&mut self) -> Result<Option<Token>, ParseError> {
        loop {
            match self.chars.peek() {
                None => return Ok(None),
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    // `#` line comments, matching the native `.layout`
                    // format (fixtures carry provenance headers).
                    while let Some(&c) = self.chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('(') => {
                    let pos = self.pos();
                    self.bump();
                    return Ok(Some(Token {
                        kind: TokenKind::LParen,
                        pos,
                    }));
                }
                Some(')') => {
                    let pos = self.pos();
                    self.bump();
                    return Ok(Some(Token {
                        kind: TokenKind::RParen,
                        pos,
                    }));
                }
                Some('"') => {
                    let pos = self.pos();
                    self.bump();
                    let mut text = String::new();
                    loop {
                        match self.bump() {
                            None => return Err(err(pos, "unterminated string")),
                            Some('"') => break,
                            Some('\\') => match self.bump() {
                                None => return Err(err(pos, "unterminated string")),
                                Some(c) => text.push(c),
                            },
                            Some(c) => text.push(c),
                        }
                    }
                    return Ok(Some(Token {
                        kind: TokenKind::Atom(text),
                        pos,
                    }));
                }
                Some(_) => {
                    let pos = self.pos();
                    let mut text = String::new();
                    while let Some(&c) = self.chars.peek() {
                        if c.is_whitespace() || c == '(' || c == ')' || c == '"' {
                            break;
                        }
                        text.push(c);
                        self.bump();
                    }
                    return Ok(Some(Token {
                        kind: TokenKind::Atom(text),
                        pos,
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_lists_with_positions() {
        let e = parse("(pcb demo\n  (structure (layer F.Cu))\n)").expect("parses");
        assert!(e.is("pcb"));
        assert_eq!(e.items()[1].as_atom(), Some("demo"));
        let structure = e.child("structure").expect("structure child");
        assert_eq!(structure.pos(), Pos::new(2, 3));
        let layer = structure.child("layer").expect("layer child");
        assert_eq!(layer.atom_at(1, "layer name").unwrap(), "F.Cu");
    }

    #[test]
    fn hash_comments_are_skipped() {
        let e = parse("# provenance header\n(pcb demo) # trailing\n").expect("parses");
        assert!(e.is("pcb"));
    }

    #[test]
    fn quoted_strings_are_single_atoms() {
        let e = parse("(keepout \"mount hole (m3)\" (rect pcb 0 0 1 1))").expect("parses");
        assert_eq!(e.items()[1].as_atom(), Some("mount hole (m3)"));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = parse("(pcb\n  (structure\n)").unwrap_err();
        assert_eq!(e.to_string(), "line 1, col 1: unclosed `(`");
        let e = parse("(pcb))").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 1, col 6: trailing content after the top-level list"
        );
        let e = parse(")").unwrap_err();
        assert_eq!(e.to_string(), "line 1, col 1: unmatched `)`");
        let e = parse("(pcb \"open").unwrap_err();
        assert!(e.to_string().contains("unterminated string"), "{e}");
        let e = parse("   ").unwrap_err();
        assert!(e.to_string().contains("empty input"), "{e}");
    }

    #[test]
    fn nesting_is_bounded_with_a_position() {
        let nested = |depth: usize| format!("{}{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            e.to_string(),
            format!(
                "line 1, col {}: lists nested deeper than {MAX_DEPTH} levels",
                MAX_DEPTH + 1
            )
        );
    }

    #[test]
    fn num_at_reports_the_bad_atom() {
        let e = parse("(rect pcb zero 0 1 1)").expect("parses");
        let got = e.num_at(2, "rect x0").unwrap_err();
        assert!(got.to_string().contains("rect x0"), "{got}");
        assert!(got.to_string().contains("`zero`"), "{got}");
    }
}
