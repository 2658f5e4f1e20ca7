//! Tokeniser for the NDlog / SeNDlog surface syntax.

use std::fmt;

/// A token with its source position (for error reporting).
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
}

/// Token kinds produced by the lexer.
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum TokenKind {
    /// A lower-case-initial identifier: predicate names, function names,
    /// constants like `a`, and the keyword `says`.
    Ident(String),
    /// An upper-case-initial identifier: variables, and the context keyword
    /// `At` (disambiguated by the parser).
    Variable(String),
    /// An integer literal.
    Number(i64),
    /// A double-quoted string literal.
    StringLit(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `.`
    Period,
    /// `@`
    At,
    /// `:`
    Colon,
    /// `:-`
    ColonDash,
    /// `:=`
    ColonEq,
    /// `_`
    Underscore,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (also accepted: a single `=` in filter position)
    EqEq,
    /// `!=`
    Ne,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Variable(s) => write!(f, "variable `{s}`"),
            TokenKind::Number(n) => write!(f, "number `{n}`"),
            TokenKind::StringLit(s) => write!(f, "string \"{s}\""),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Period => write!(f, "`.`"),
            TokenKind::At => write!(f, "`@`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::ColonDash => write!(f, "`:-`"),
            TokenKind::ColonEq => write!(f, "`:=`"),
            TokenKind::Underscore => write!(f, "`_`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::Ne => write!(f, "`!=`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Percent => write!(f, "`%`"),
            TokenKind::AndAnd => write!(f, "`&&`"),
            TokenKind::OrOr => write!(f, "`||`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A lexing error with position information.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct LexError {
    /// Explanation of the failure.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenises NDlog / SeNDlog source text.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token>, LexError> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;

    let err = |msg: String, line: usize, col: usize| LexError {
        message: msg,
        line,
        col,
    };

    while i < chars.len() {
        let c = chars[i];
        let tok_line = line;
        let tok_col = col;
        let advance = |i: &mut usize, col: &mut usize, n: usize| {
            *i += n;
            *col += n;
        };
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => {
                advance(&mut i, &mut col, 1);
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '#' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '[' => {
                tokens.push(Token {
                    kind: TokenKind::LBracket,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            ']' => {
                tokens.push(Token {
                    kind: TokenKind::RBracket,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '.' => {
                tokens.push(Token {
                    kind: TokenKind::Period,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '@' => {
                tokens.push(Token {
                    kind: TokenKind::At,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '%' => {
                tokens.push(Token {
                    kind: TokenKind::Percent,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '&' if chars.get(i + 1) == Some(&'&') => {
                tokens.push(Token {
                    kind: TokenKind::AndAnd,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 2);
            }
            '|' if chars.get(i + 1) == Some(&'|') => {
                tokens.push(Token {
                    kind: TokenKind::OrOr,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 2);
            }
            ':' => {
                if chars.get(i + 1) == Some(&'-') {
                    tokens.push(Token {
                        kind: TokenKind::ColonDash,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 2);
                } else if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token {
                        kind: TokenKind::ColonEq,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 2);
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Colon,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 1);
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 2);
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 1);
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 2);
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 1);
                }
            }
            '=' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token {
                        kind: TokenKind::EqEq,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 2);
                } else {
                    // Accept a lone `=` as equality (common in NDlog listings).
                    tokens.push(Token {
                        kind: TokenKind::EqEq,
                        line: tok_line,
                        col: tok_col,
                    });
                    advance(&mut i, &mut col, 1);
                }
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                tokens.push(Token {
                    kind: TokenKind::Ne,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 2);
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            '"' => {
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    match chars.get(j) {
                        None | Some('\n') => {
                            return Err(err(
                                "unterminated string literal".into(),
                                tok_line,
                                tok_col,
                            ))
                        }
                        Some('"') => break,
                        Some(&ch) => {
                            s.push(ch);
                            j += 1;
                        }
                    }
                }
                let consumed = j + 1 - i;
                tokens.push(Token {
                    kind: TokenKind::StringLit(s),
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, consumed);
            }
            '_' if chars
                .get(i + 1)
                .is_none_or(|c| !c.is_alphanumeric() && *c != '_') =>
            {
                tokens.push(Token {
                    kind: TokenKind::Underscore,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, 1);
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < chars.len() && chars[j].is_ascii_digit() {
                    j += 1;
                }
                let text: String = chars[i..j].iter().collect();
                let n: i64 = text.parse().map_err(|_| {
                    err(
                        format!("integer literal `{text}` out of range"),
                        tok_line,
                        tok_col,
                    )
                })?;
                let consumed = j - i;
                tokens.push(Token {
                    kind: TokenKind::Number(n),
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, consumed);
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let text: String = chars[i..j].iter().collect();
                let kind = if c.is_uppercase() {
                    TokenKind::Variable(text)
                } else {
                    TokenKind::Ident(text)
                };
                let consumed = j - i;
                tokens.push(Token {
                    kind,
                    line: tok_line,
                    col: tok_col,
                });
                advance(&mut i, &mut col, consumed);
            }
            other => {
                return Err(err(
                    format!("unexpected character `{other}`"),
                    tok_line,
                    tok_col,
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        col,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_reachability_rule() {
        let toks = kinds("r1 reachable(@S,D) :- link(@S,D).");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("r1".into()),
                TokenKind::Ident("reachable".into()),
                TokenKind::LParen,
                TokenKind::At,
                TokenKind::Variable("S".into()),
                TokenKind::Comma,
                TokenKind::Variable("D".into()),
                TokenKind::RParen,
                TokenKind::ColonDash,
                TokenKind::Ident("link".into()),
                TokenKind::LParen,
                TokenKind::At,
                TokenKind::Variable("S".into()),
                TokenKind::Comma,
                TokenKind::Variable("D".into()),
                TokenKind::RParen,
                TokenKind::Period,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators_and_assignment() {
        let toks = kinds("C := C1 + C2, C < 10, C >= 3, X != Y, A == B, D <= E");
        assert!(toks.contains(&TokenKind::ColonEq));
        assert!(toks.contains(&TokenKind::Plus));
        assert!(toks.contains(&TokenKind::Lt));
        assert!(toks.contains(&TokenKind::Ge));
        assert!(toks.contains(&TokenKind::Ne));
        assert!(toks.contains(&TokenKind::EqEq));
        assert!(toks.contains(&TokenKind::Le));
    }

    #[test]
    fn lexes_context_block_and_says() {
        let toks = kinds("At S:\n s1 reachable(S,D) :- link(S,D).\n s3 p(Z)@Z :- Z says q(S,Z).");
        assert!(toks.contains(&TokenKind::Variable("At".into())));
        assert!(toks.contains(&TokenKind::Colon));
        assert!(toks.contains(&TokenKind::Ident("says".into())));
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let toks = kinds("// comment line\n# another\nlink(a,b). // trailing");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("link".into()),
                TokenKind::LParen,
                TokenKind::Ident("a".into()),
                TokenKind::Comma,
                TokenKind::Ident("b".into()),
                TokenKind::RParen,
                TokenKind::Period,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn string_and_number_literals() {
        let toks = kinds("cost(\"label\", 42, 7).");
        assert!(toks.contains(&TokenKind::StringLit("label".into())));
        assert!(toks.contains(&TokenKind::Number(42)));
    }

    #[test]
    fn underscore_is_a_wildcard_but_prefix_is_identifier() {
        let toks = kinds("p(_, _x)");
        assert!(toks.contains(&TokenKind::Underscore));
        assert!(toks.contains(&TokenKind::Ident("_x".into())));
    }

    #[test]
    fn errors_carry_positions() {
        let e = tokenize("link(a,\n  $b)").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains('$'));
        assert!(e.to_string().contains("lex error"));

        let e = tokenize("p(\"unterminated").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn aggregate_syntax_tokens() {
        let toks = kinds("bestPathCost(@S,D,a_MIN<C>)");
        assert!(toks.contains(&TokenKind::Ident("a_MIN".into())));
        assert!(toks.contains(&TokenKind::Lt));
        assert!(toks.contains(&TokenKind::Gt));
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[0].col, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].col, 3);
    }
}
