//! A small, dependency-free XML parser.
//!
//! Supports exactly what the reproduction needs: elements, nested elements,
//! text content, self-closing tags, attributes (parsed and discarded — the
//! paper's schema model is element-only), comments, processing instructions,
//! an optional XML declaration, and the five predefined entities.
//!
//! It is *not* a general-purpose conformant parser (no DTDs, no CDATA, no
//! namespaces-aware processing — prefixes are kept as part of the label).
//! Elements nest at most [`MAX_DEPTH`] levels deep.

use crate::document::{Document, DocumentBuilder};
use crate::ids::DocNodeId;
use std::fmt;

/// How deep elements may nest, the root counting as level 1; deeper
/// input is [`ParseError::TooDeep`]. The parser itself keeps open
/// elements on the heap, but code that walks a document (the XML
/// writer, for one) recurses per level, so a hostile document (say,
/// 140 KB of `<a>`) must not get that deep.
pub const MAX_DEPTH: usize = 1024;

/// Errors produced by [`parse_document`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// `</a>` seen while `<b>` was open.
    MismatchedClose { expected: String, found: String },
    /// A closing tag appeared with no element open.
    UnopenedClose(String),
    /// Document ended with unclosed elements.
    UnclosedElement(String),
    /// No root element found.
    NoRoot,
    /// Content found after the root element closed.
    TrailingContent,
    /// Malformed tag or entity at the given byte offset.
    Malformed { offset: usize, what: &'static str },
    /// An element opened at the given byte offset would nest deeper
    /// than [`MAX_DEPTH`] levels.
    TooDeep { offset: usize },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedEof => write!(f, "unexpected end of input"),
            ParseError::MismatchedClose { expected, found } => {
                write!(
                    f,
                    "mismatched close tag: expected </{expected}>, found </{found}>"
                )
            }
            ParseError::UnopenedClose(tag) => write!(f, "close tag </{tag}> with no open element"),
            ParseError::UnclosedElement(tag) => write!(f, "element <{tag}> never closed"),
            ParseError::NoRoot => write!(f, "no root element"),
            ParseError::TrailingContent => write!(f, "content after root element"),
            ParseError::Malformed { offset, what } => {
                write!(f, "malformed {what} at byte {offset}")
            }
            ParseError::TooDeep { offset } => {
                write!(
                    f,
                    "elements nested deeper than {MAX_DEPTH} levels at byte {offset}"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses an XML string into a [`Document`].
///
/// ```
/// let doc = uxm_xml::parse_document("<order><id>42</id><item qty='2'/></order>").unwrap();
/// assert_eq!(doc.len(), 3);
/// assert_eq!(doc.text(doc.nodes_with_label("id")[0]), Some("42"));
/// ```
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    Parser {
        input: input.as_bytes(),
        pos: 0,
    }
    .parse()
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(mut self) -> Result<Document, ParseError> {
        self.skip_prolog()?;
        // Root open tag.
        let (root_label, attrs, self_closing) = self.read_open_tag()?;
        let mut builder = Document::builder(&root_label);
        for (n, v) in attrs {
            builder.add_attr(builder.root(), n, v);
        }
        if self_closing {
            self.skip_misc();
            if self.pos < self.input.len() {
                return Err(ParseError::TrailingContent);
            }
            return Ok(builder.finish());
        }
        let root = builder.root();
        self.parse_content(&mut builder, root, root_label)?;
        self.skip_misc();
        if self.pos < self.input.len() {
            return Err(ParseError::TrailingContent);
        }
        Ok(builder.finish())
    }

    /// Consumes everything inside the root element until its matching
    /// close tag (which is also consumed). Iterative: `open` holds one
    /// `(node, label, text)` entry per open element, so nesting costs
    /// heap, not stack, and is bounded by [`MAX_DEPTH`].
    fn parse_content(
        &mut self,
        builder: &mut DocumentBuilder,
        root: DocNodeId,
        root_label: String,
    ) -> Result<(), ParseError> {
        let mut open = vec![(root, root_label, String::new())];
        while let Some((node, label, text)) = open.last_mut() {
            match self.peek() {
                None => return Err(ParseError::UnclosedElement(label.clone())),
                Some(b'<') if self.starts_with("<!--") => self.skip_comment()?,
                Some(b'<') if self.starts_with("<?") => self.skip_pi()?,
                Some(b'<') if self.starts_with("</") => {
                    let close = self.read_close_tag()?;
                    if close != *label {
                        return Err(ParseError::MismatchedClose {
                            expected: label.clone(),
                            found: close,
                        });
                    }
                    let trimmed = text.trim();
                    if !trimmed.is_empty() {
                        builder.append_text(*node, trimmed);
                    }
                    open.pop();
                }
                Some(b'<') => {
                    let parent = *node;
                    if open.len() == MAX_DEPTH {
                        return Err(ParseError::TooDeep { offset: self.pos });
                    }
                    let (child_label, attrs, self_closing) = self.read_open_tag()?;
                    let child = builder.add_child(parent, &child_label);
                    for (n, v) in attrs {
                        builder.add_attr(child, n, v);
                    }
                    if !self_closing {
                        open.push((child, child_label, String::new()));
                    }
                }
                Some(_) => {
                    let chunk = self.read_text()?;
                    text.push_str(&chunk);
                }
            }
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!") {
                // DOCTYPE — skip to matching '>'
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == b'>' {
                        break;
                    }
                }
            } else if self.peek() == Some(b'<') {
                return Ok(());
            } else if self.peek().is_none() {
                return Err(ParseError::NoRoot);
            } else {
                return Err(ParseError::Malformed {
                    offset: self.pos,
                    what: "prolog",
                });
            }
        }
    }

    /// Skips whitespace, comments, and PIs after the root element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_comment().is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self.skip_pi().is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.starts_with("<!--"));
        self.pos += 4;
        while self.pos < self.input.len() {
            if self.starts_with("-->") {
                self.pos += 3;
                return Ok(());
            }
            self.pos += 1;
        }
        Err(ParseError::UnexpectedEof)
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.starts_with("<?"));
        self.pos += 2;
        while self.pos < self.input.len() {
            if self.starts_with("?>") {
                self.pos += 2;
                return Ok(());
            }
            self.pos += 1;
        }
        Err(ParseError::UnexpectedEof)
    }

    /// Reads `<name attr="v" ...>` or `<name/>`; cursor must be at `<`.
    /// Returns the element name, its attributes, and whether the tag was
    /// self-closing.
    #[allow(clippy::type_complexity)]
    fn read_open_tag(&mut self) -> Result<(String, Vec<(String, String)>, bool), ParseError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let name = self.read_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((name, attrs, false));
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok((name, attrs, true));
                    }
                    return Err(ParseError::Malformed {
                        offset: self.pos,
                        what: "tag",
                    });
                }
                Some(_) => {
                    attrs.push(self.read_attribute()?);
                }
                None => return Err(ParseError::UnexpectedEof),
            }
        }
    }

    fn read_close_tag(&mut self) -> Result<String, ParseError> {
        debug_assert!(self.starts_with("</"));
        self.pos += 2;
        let name = self.read_name()?;
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(ParseError::Malformed {
                offset: self.pos,
                what: "close tag",
            });
        }
        self.pos += 1;
        Ok(name)
    }

    fn read_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(ParseError::Malformed {
                offset: self.pos,
                what: "name",
            });
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn read_attribute(&mut self) -> Result<(String, String), ParseError> {
        let name = self.read_name()?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(ParseError::Malformed {
                offset: self.pos,
                what: "attribute",
            });
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => {
                return Err(ParseError::Malformed {
                    offset: self.pos,
                    what: "attribute value",
                })
            }
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == quote {
                let raw = String::from_utf8_lossy(&self.input[start..self.pos - 1]).into_owned();
                return Ok((name, raw));
            }
        }
        Err(ParseError::UnexpectedEof)
    }

    /// Reads character data up to the next `<`, resolving entities.
    fn read_text(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            match c {
                b'<' => break,
                b'&' => {
                    out.push(self.read_entity()?);
                }
                _ => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' || c == b'&' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&self.input[start..self.pos]));
                }
            }
        }
        Ok(out)
    }

    fn read_entity(&mut self) -> Result<char, ParseError> {
        let start = self.pos;
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.pos += 1;
        let mut name = String::new();
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == b';' {
                return match name.as_str() {
                    "lt" => Ok('<'),
                    "gt" => Ok('>'),
                    "amp" => Ok('&'),
                    "apos" => Ok('\''),
                    "quot" => Ok('"'),
                    n if n.starts_with("#x") || n.starts_with("#X") => {
                        u32::from_str_radix(&n[2..], 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or(ParseError::Malformed {
                                offset: start,
                                what: "character reference",
                            })
                    }
                    n if n.starts_with('#') => {
                        n[1..].parse::<u32>().ok().and_then(char::from_u32).ok_or(
                            ParseError::Malformed {
                                offset: start,
                                what: "character reference",
                            },
                        )
                    }
                    _ => Err(ParseError::Malformed {
                        offset: start,
                        what: "entity",
                    }),
                };
            }
            name.push(c as char);
            if name.len() > 8 {
                break;
            }
        }
        Err(ParseError::Malformed {
            offset: start,
            what: "entity",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements() {
        let d = parse_document("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.nodes_with_label("b").len(), 2);
        let c = d.nodes_with_label("c")[0];
        assert_eq!(d.path(c), "a/b/c");
    }

    #[test]
    fn parses_text_and_trims() {
        let d = parse_document("<a>  hello  </a>").unwrap();
        assert_eq!(d.text(d.root()), Some("hello"));
    }

    #[test]
    fn parses_entities() {
        let d = parse_document("<a>x &lt; y &amp; z &#65; &#x42;</a>").unwrap();
        assert_eq!(d.text(d.root()), Some("x < y & z A B"));
    }

    #[test]
    fn attributes_are_captured() {
        let d = parse_document(r#"<a x="1" y='two'><b z="3"/></a>"#).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.attr(d.root(), "x"), Some("1"));
        assert_eq!(d.attr(d.root(), "y"), Some("two"));
        assert_eq!(d.attr(d.root(), "z"), None);
        let b = d.nodes_with_label("b")[0];
        assert_eq!(d.attr(b, "z"), Some("3"));
    }

    #[test]
    fn prolog_comments_and_pis() {
        let d = parse_document(
            "<?xml version=\"1.0\"?>\n<!-- header --><a><!-- inner --><b/></a><!-- tail -->",
        )
        .unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn doctype_is_skipped() {
        let d = parse_document("<!DOCTYPE a><a/>").unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn error_mismatched_close() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, ParseError::MismatchedClose { .. }));
    }

    #[test]
    fn error_unclosed() {
        let err = parse_document("<a><b>").unwrap_err();
        assert!(matches!(err, ParseError::UnclosedElement(_)));
    }

    #[test]
    fn error_trailing() {
        let err = parse_document("<a/><b/>").unwrap_err();
        assert_eq!(err, ParseError::TrailingContent);
    }

    #[test]
    fn error_empty_input() {
        assert_eq!(parse_document("   ").unwrap_err(), ParseError::NoRoot);
    }

    #[test]
    fn error_unopened_close_is_mismatch() {
        // "</b>" inside <a> is reported as a mismatched close.
        let err = parse_document("<a></b>").unwrap_err();
        assert!(matches!(err, ParseError::MismatchedClose { .. }));
    }

    #[test]
    fn nesting_is_bounded_on_a_default_stack() {
        let nested = |levels: usize| format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels));
        // A default-size thread stack: 20 000 levels used to overflow it
        // and abort the process.
        std::thread::spawn(move || {
            let at_limit = parse_document(&nested(MAX_DEPTH)).unwrap();
            assert_eq!(at_limit.len(), MAX_DEPTH);
            let deeper = parse_document(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(
                deeper,
                ParseError::TooDeep {
                    offset: 3 * MAX_DEPTH
                }
            );
            let bomb = parse_document(&nested(20_000)).unwrap_err();
            assert_eq!(
                bomb,
                ParseError::TooDeep {
                    offset: 3 * MAX_DEPTH
                }
            );
            // A self-closing element one level too deep is refused too.
            let leaf = format!(
                "{}<b/>{}",
                "<a>".repeat(MAX_DEPTH),
                "</a>".repeat(MAX_DEPTH)
            );
            assert!(matches!(
                parse_document(&leaf),
                Err(ParseError::TooDeep { .. })
            ));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn mixed_content_concatenates_trimmed() {
        let d = parse_document("<a> x <b/> y </a>").unwrap();
        // Text around children is gathered into one string, trimmed at the ends.
        assert_eq!(d.text(d.root()), Some("x  y"));
    }
}
