//! A compact text syntax for CFD rule files.
//!
//! The sampling loop of §6 expects users to *add* CFDs as they inspect
//! samples; a textual rule format is the natural interface. The grammar:
//!
//! ```text
//! rules   := rule*
//! rule    := name ':' '[' attrs ']' '->' '[' attrs ']' '{' rows '}'
//! attrs   := ident (',' ident)*
//! rows    := row (';' row)*
//! row     := '(' cells '||' cells ')'
//! cell    := '_' | token | '\'' quoted '\''
//! ```
//!
//! `#` starts a line comment. Example (ϕ1 of Fig. 1):
//!
//! ```text
//! phi1: [AC, PN] -> [STR, CT, ST] {
//!   (212, _ || _, NYC, NY);
//!   (610, _ || _, PHI, PA);
//!   (215, _ || _, PHI, PA)
//! }
//! ```
//!
//! An omitted tableau (`{}` or no braces) denotes the standard FD (one
//! all-wildcard row).

use std::fmt::Write as _;

use cfd_model::{AttrId, Schema, Value};

use crate::cfd::Cfd;
use crate::pattern::{PatternRow, PatternValue};

/// Parse error with position information.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rule parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Resolve attribute names against `schema`; an unknown name is reported
/// at the line of its own token.
fn resolve_attrs(schema: &Schema, names: &[(String, usize)]) -> Result<Vec<AttrId>, ParseError> {
    names
        .iter()
        .map(|(name, line)| {
            schema.require_attr(name).map_err(|e| ParseError {
                line: *line,
                message: e.to_string(),
            })
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Colon,
    Arrow,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Semi,
    Sep, // ||
    Wildcard,
}

fn tokenize(input: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut toks = Vec::new();
    for (line_idx, line) in input.lines().enumerate() {
        let line_no = line_idx + 1;
        let line = match line.find('#') {
            Some(pos) => &line[..pos],
            None => line,
        };
        let mut chars = line.chars().peekable();
        while let Some(&c) = chars.peek() {
            match c {
                ' ' | '\t' | '\r' => {
                    chars.next();
                }
                ':' => {
                    chars.next();
                    toks.push((Tok::Colon, line_no));
                }
                '[' => {
                    chars.next();
                    toks.push((Tok::LBracket, line_no));
                }
                ']' => {
                    chars.next();
                    toks.push((Tok::RBracket, line_no));
                }
                '{' => {
                    chars.next();
                    toks.push((Tok::LBrace, line_no));
                }
                '}' => {
                    chars.next();
                    toks.push((Tok::RBrace, line_no));
                }
                '(' => {
                    chars.next();
                    toks.push((Tok::LParen, line_no));
                }
                ')' => {
                    chars.next();
                    toks.push((Tok::RParen, line_no));
                }
                ',' => {
                    chars.next();
                    toks.push((Tok::Comma, line_no));
                }
                ';' => {
                    chars.next();
                    toks.push((Tok::Semi, line_no));
                }
                '|' => {
                    chars.next();
                    if chars.peek() == Some(&'|') {
                        chars.next();
                        toks.push((Tok::Sep, line_no));
                    } else {
                        return Err(ParseError {
                            line: line_no,
                            message: "single `|`; expected `||`".to_string(),
                        });
                    }
                }
                '-' => {
                    chars.next();
                    if chars.peek() == Some(&'>') {
                        chars.next();
                        toks.push((Tok::Arrow, line_no));
                    } else {
                        // a bare token starting with '-'
                        let mut s = String::from('-');
                        while let Some(&c) = chars.peek() {
                            if c.is_whitespace() || "[](){},;|:".contains(c) {
                                break;
                            }
                            s.push(c);
                            chars.next();
                        }
                        toks.push((Tok::Ident(s), line_no));
                    }
                }
                '\'' => {
                    chars.next();
                    let mut s = String::new();
                    let mut closed = false;
                    for c in chars.by_ref() {
                        if c == '\'' {
                            closed = true;
                            break;
                        }
                        s.push(c);
                    }
                    if !closed {
                        return Err(ParseError {
                            line: line_no,
                            message: "unterminated quoted value".to_string(),
                        });
                    }
                    toks.push((Tok::Ident(s), line_no));
                }
                '_' => {
                    chars.next();
                    // `_` alone is a wildcard; `_foo` is a token.
                    match chars.peek() {
                        Some(&c2) if !c2.is_whitespace() && !"[](){},;|:".contains(c2) => {
                            let mut s = String::from('_');
                            while let Some(&c3) = chars.peek() {
                                if c3.is_whitespace() || "[](){},;|:".contains(c3) {
                                    break;
                                }
                                s.push(c3);
                                chars.next();
                            }
                            toks.push((Tok::Ident(s), line_no));
                        }
                        _ => toks.push((Tok::Wildcard, line_no)),
                    }
                }
                _ => {
                    let mut s = String::new();
                    while let Some(&c2) = chars.peek() {
                        if c2.is_whitespace() || "[](){},;|:".contains(c2) {
                            break;
                        }
                        s.push(c2);
                        chars.next();
                    }
                    if s.is_empty() {
                        return Err(ParseError {
                            line: line_no,
                            message: format!("unexpected character `{c}`"),
                        });
                    }
                    toks.push((Tok::Ident(s), line_no));
                }
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: &'a [(Tok, usize)],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t);
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        let line = self.line();
        match self.next() {
            Some(t) if *t == want => Ok(()),
            other => Err(ParseError {
                line,
                message: format!("expected {want:?}, found {other:?}"),
            }),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s.clone()),
            other => Err(ParseError {
                line,
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    /// An attribute list, each name paired with the line of its token.
    fn attr_list(&mut self) -> Result<Vec<(String, usize)>, ParseError> {
        self.expect(Tok::LBracket)?;
        let mut names = vec![self.located_ident()?];
        loop {
            match self.peek() {
                Some(Tok::Comma) => {
                    self.next();
                    names.push(self.located_ident()?);
                }
                Some(Tok::RBracket) => {
                    self.next();
                    return Ok(names);
                }
                _ => {
                    return Err(ParseError {
                        line: self.line(),
                        message: "expected `,` or `]` in attribute list".to_string(),
                    })
                }
            }
        }
    }

    fn located_ident(&mut self) -> Result<(String, usize), ParseError> {
        let line = self.line();
        Ok((self.ident()?, line))
    }

    fn cells(&mut self, terminators: &[Tok]) -> Result<Vec<PatternValue>, ParseError> {
        let mut cells = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Wildcard) => {
                    self.next();
                    cells.push(PatternValue::Wildcard);
                }
                Some(Tok::Ident(_)) => {
                    let s = self.ident()?;
                    cells.push(PatternValue::Const(Value::str(s)));
                }
                other => {
                    return Err(ParseError {
                        line: self.line(),
                        message: format!("expected pattern cell, found {other:?}"),
                    })
                }
            }
            match self.peek() {
                Some(Tok::Comma) => {
                    self.next();
                }
                Some(t) if terminators.contains(t) => return Ok(cells),
                other => {
                    return Err(ParseError {
                        line: self.line(),
                        message: format!("expected `,` or row terminator, found {other:?}"),
                    })
                }
            }
        }
    }

    fn row(&mut self) -> Result<PatternRow, ParseError> {
        self.expect(Tok::LParen)?;
        let lhs = self.cells(&[Tok::Sep])?;
        self.expect(Tok::Sep)?;
        let rhs = self.cells(&[Tok::RParen])?;
        self.expect(Tok::RParen)?;
        Ok(PatternRow::new(lhs, rhs))
    }

    fn rule(&mut self, schema: &Schema) -> Result<Cfd, ParseError> {
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let lhs_names = self.attr_list()?;
        self.expect(Tok::Arrow)?;
        let rhs_names = self.attr_list()?;
        let lhs = resolve_attrs(schema, &lhs_names)?;
        let rhs = resolve_attrs(schema, &rhs_names)?;
        let mut rows = Vec::new();
        if self.peek() == Some(&Tok::LBrace) {
            self.next();
            while self.peek() != Some(&Tok::RBrace) {
                rows.push(self.row()?);
                if self.peek() == Some(&Tok::Semi) {
                    self.next();
                }
            }
            self.expect(Tok::RBrace)?;
        }
        if rows.is_empty() {
            rows.push(PatternRow::all_wildcards(lhs.len(), rhs.len()));
        }
        let line = self.line();
        Cfd::new(&name, lhs, rhs, rows).map_err(|e| ParseError {
            line,
            message: e.to_string(),
        })
    }
}

/// Parse a rule file into CFDs over `schema`.
pub fn parse_rules(schema: &Schema, input: &str) -> Result<Vec<Cfd>, ParseError> {
    let toks = tokenize(input)?;
    let mut p = Parser {
        toks: &toks,
        pos: 0,
    };
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.rule(schema)?);
    }
    Ok(out)
}

/// Render a CFD back into the rule syntax (constants needing quotes are
/// quoted).
pub fn render_cfd(schema: &Schema, cfd: &Cfd) -> String {
    fn cell(p: &PatternValue, out: &mut String) {
        match p {
            PatternValue::Wildcard => out.push('_'),
            PatternValue::Const(v) => {
                let s = v.render();
                if s.is_empty()
                    || s.contains(|c: char| c.is_whitespace() || "[](){},;|:'".contains(c))
                {
                    let _ = write!(out, "'{s}'");
                } else {
                    out.push_str(&s);
                }
            }
        }
    }
    let mut out = String::new();
    let _ = write!(out, "{}: [", cfd.name());
    for (i, a) in cfd.lhs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(schema.attr_name(*a));
    }
    out.push_str("] -> [");
    for (i, a) in cfd.rhs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(schema.attr_name(*a));
    }
    out.push_str("] {\n");
    for (i, row) in cfd.tableau().iter().enumerate() {
        out.push_str("  (");
        for (j, p) in row.lhs.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            cell(p, &mut out);
        }
        out.push_str(" || ");
        for (j, p) in row.rhs.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            cell(p, &mut out);
        }
        out.push(')');
        if i + 1 < cfd.tableau().len() {
            out.push(';');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            "order",
            &["id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip"],
        )
        .unwrap()
    }

    const PHI1: &str = "
# ϕ1 of Fig. 1
phi1: [AC, PN] -> [STR, CT, ST] {
  (212, _ || _, NYC, NY);
  (610, _ || _, PHI, PA);
  (215, _ || _, PHI, PA)
}
";

    #[test]
    fn parses_phi1() {
        let s = schema();
        let cfds = parse_rules(&s, PHI1).unwrap();
        assert_eq!(cfds.len(), 1);
        let c = &cfds[0];
        assert_eq!(c.name(), "phi1");
        assert_eq!(c.lhs().len(), 2);
        assert_eq!(c.rhs().len(), 3);
        assert_eq!(c.tableau().len(), 3);
        assert_eq!(
            c.tableau()[0].lhs[0],
            PatternValue::Const(Value::str("212"))
        );
        assert!(c.tableau()[0].lhs[1].is_wildcard());
    }

    #[test]
    fn fd_shorthand_without_braces() {
        let s = schema();
        let cfds = parse_rules(&s, "fd3: [id] -> [name, PR]").unwrap();
        assert_eq!(cfds[0].tableau().len(), 1);
        assert!(cfds[0].tableau()[0].lhs[0].is_wildcard());
    }

    #[test]
    fn multiple_rules_parse() {
        let s = schema();
        let input =
            format!("{PHI1}\nphi2: [zip] -> [CT, ST] {{ (10012 || NYC, NY); (19014 || PHI, PA) }}");
        let cfds = parse_rules(&s, &input).unwrap();
        assert_eq!(cfds.len(), 2);
        assert_eq!(cfds[1].tableau().len(), 2);
    }

    #[test]
    fn quoted_values_keep_spaces() {
        let s = schema();
        let cfds = parse_rules(&s, "q: [id] -> [name] { (a23 || 'H. Porter') }").unwrap();
        assert_eq!(
            cfds[0].tableau()[0].rhs[0],
            PatternValue::Const(Value::str("H. Porter"))
        );
    }

    #[test]
    fn unknown_attribute_errors() {
        let s = schema();
        let err = parse_rules(&s, "bad: [XX] -> [CT]").unwrap_err();
        assert!(err.message.contains("XX"), "{err}");
    }

    #[test]
    fn unknown_attribute_reports_its_token_line() {
        let s = Schema::new("r", &["a", "b"]).unwrap();
        let input = "# header a,b\nok: [a] -> [b]\n\nbad: [a,\n  missing] -> [b]\n";
        let err = parse_rules(&s, input).unwrap_err();
        assert_eq!(err.line, 5, "{err}");
        assert!(err.message.contains("missing"), "{err}");
        let err = parse_rules(&s, "x: [a]\n  -> [nope]").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
    }

    #[test]
    fn unterminated_quote_errors_with_line() {
        let s = schema();
        let err = parse_rules(&s, "q: [id] -> [name] { (a23 || 'oops) }").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn single_pipe_rejected() {
        let s = schema();
        assert!(parse_rules(&s, "q: [id] -> [name] { (a | b) }").is_err());
    }

    #[test]
    fn round_trip_through_render() {
        let s = schema();
        let cfds = parse_rules(&s, PHI1).unwrap();
        let rendered = render_cfd(&s, &cfds[0]);
        let reparsed = parse_rules(&s, &rendered).unwrap();
        assert_eq!(reparsed[0].tableau(), cfds[0].tableau());
        assert_eq!(reparsed[0].lhs(), cfds[0].lhs());
        assert_eq!(reparsed[0].rhs(), cfds[0].rhs());
    }

    #[test]
    fn render_quotes_awkward_constants() {
        let s = schema();
        let cfds = parse_rules(&s, "q: [id] -> [name] { ('with space' || 'a,b') }").unwrap();
        let rendered = render_cfd(&s, &cfds[0]);
        assert!(rendered.contains("'with space'"));
        assert!(rendered.contains("'a,b'"));
        let reparsed = parse_rules(&s, &rendered).unwrap();
        assert_eq!(reparsed[0].tableau(), cfds[0].tableau());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = schema();
        let input = "# leading comment\n\nfd: [id] -> [PR] # trailing\n";
        let cfds = parse_rules(&s, input).unwrap();
        assert_eq!(cfds.len(), 1);
    }

    #[test]
    fn underscore_prefixed_token_is_a_constant() {
        let s = schema();
        let cfds = parse_rules(&s, "q: [id] -> [name] { (_x || y) }").unwrap();
        assert_eq!(
            cfds[0].tableau()[0].lhs[0],
            PatternValue::Const(Value::str("_x"))
        );
    }
}
