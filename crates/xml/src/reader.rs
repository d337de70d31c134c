//! Streaming pull parser and DOM builder.

use crate::escape::unescape;
use crate::model::{Attribute, Document, Element, Node, QName};
use std::borrow::Cow;
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at line {} (byte {}): {}",
            self.line, self.offset, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// A qualified name as the reader saw it: prefix and local part borrowed
/// from the input, and the namespace URI the prefix was bound to (empty
/// string = no namespace). The URI borrows from the declaring attribute
/// unless entities forced a rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Name<'a> {
    /// The prefix as written (`int` in `int:fun`), empty if none.
    pub prefix: &'a str,
    /// The local part (`fun` in `int:fun`).
    pub local: &'a str,
    /// The resolved namespace URI, empty if none.
    pub ns: Cow<'a, str>,
}

impl Name<'_> {
    /// True if local part and namespace match (prefixes are irrelevant for
    /// XML name identity).
    pub fn matches(&self, ns: &str, local: &str) -> bool {
        self.ns == ns && self.local == local
    }

    /// The owned [`QName`] of this name.
    pub fn to_qname(&self) -> QName {
        QName::prefixed(self.prefix, self.local, &self.ns)
    }
}

impl fmt::Display for Name<'_> {
    /// The name as written in markup: `prefix:local` or just `local`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.prefix.is_empty() {
            f.write_str(self.local)
        } else {
            write!(f, "{}:{}", self.prefix, self.local)
        }
    }
}

/// An attribute of a start tag; the value is unescaped and borrows from
/// the input unless entities forced a rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr<'a> {
    /// Attribute name (unprefixed attributes are in no namespace).
    pub name: Name<'a>,
    /// Unescaped value.
    pub value: Cow<'a, str>,
}

/// A pull-parser event.
///
/// Names, attribute values, character data, comments and PI payloads
/// borrow from the reader's input where possible (`Cow::Borrowed` when no
/// entity resolution was needed), so the hot loop allocates nothing per
/// tag or extensional text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v">`; `self_closing` is true for `<name/>`.
    StartElement {
        /// Resolved element name.
        name: Name<'a>,
        /// Attributes (namespace declarations excluded).
        attributes: Vec<Attr<'a>>,
        /// Namespace declarations written on this tag: `(prefix, uri)`,
        /// the default namespace with an empty prefix.
        ns_decls: Vec<(&'a str, Cow<'a, str>)>,
        /// Whether the tag was self-closing.
        self_closing: bool,
    },
    /// `</name>` (also emitted synthetically after self-closing tags).
    EndElement {
        /// Resolved element name, the one its start tag opened.
        name: Name<'a>,
    },
    /// Character data (unescaped, including CDATA content). Borrowed from
    /// the input unless entities forced a rebuild.
    Text(Cow<'a, str>),
    /// `<!-- … -->`.
    Comment(&'a str),
    /// `<?target data?>`.
    Pi {
        /// PI target.
        target: &'a str,
        /// PI data.
        data: &'a str,
    },
    /// End of input.
    Eof,
}

/// The namespace bound to the `xml` prefix in every document.
const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";

/// A streaming XML pull parser over a string slice.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// In-scope namespace bindings, innermost last; `marks[i]` is the
    /// length `bindings` had before the `i`-th open element's
    /// declarations were pushed.
    bindings: Vec<(&'a str, Cow<'a, str>)>,
    marks: Vec<usize>,
    /// Stack of open element names (for matching end tags).
    stack: Vec<Name<'a>>,
    /// Pending synthetic end event for a self-closing tag.
    pending_end: Option<Name<'a>>,
    seen_root: bool,
    finished_root: bool,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            bindings: vec![("xml", Cow::Borrowed(XML_NS))],
            marks: Vec::with_capacity(16),
            stack: Vec::with_capacity(16),
            pending_end: None,
            seen_root: false,
            finished_root: false,
        }
    }

    /// Current byte offset into the input (the start of the next event).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The full input slice the reader was created over; together with
    /// [`Reader::pos`] this gives callers raw-span access to the original
    /// bytes of already-consumed regions (used by the streaming enforcer
    /// for zero-copy splicing and buffer accounting).
    pub fn input(&self) -> &'a str {
        self.input
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        let line = 1 + self.input[..self.pos.min(self.input.len())]
            .bytes()
            .filter(|&b| b == b'\n')
            .count();
        XmlError {
            offset: self.pos,
            line,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start_matches([' ', '\t', '\r', '\n']);
        self.pos = self.input.len() - trimmed.len();
    }

    /// Drops the namespace declarations of the innermost open element.
    fn pop_scope(&mut self) {
        let mark = self.marks.pop().expect("one scope mark per open element");
        self.bindings.truncate(mark);
    }

    /// Pulls the next event.
    pub fn next_event(&mut self) -> Result<Event<'a>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            self.pop_scope();
            if self.stack.is_empty() {
                self.finished_root = true;
            }
            return Ok(Event::EndElement { name });
        }
        if self.pos >= self.input.len() {
            if let Some(open) = self.stack.last() {
                return Err(self.err(format!("unexpected end of input: <{open}> not closed")));
            }
            if !self.seen_root {
                return Err(self.err("document has no root element"));
            }
            return Ok(Event::Eof);
        }
        if self.stack.is_empty() {
            // Between top-level constructs only whitespace, comments, PIs.
            let before = self.pos;
            self.skip_ws();
            if self.pos >= self.input.len() {
                return self.next_event();
            }
            if !self.starts_with("<") {
                self.pos = before;
                return Err(self.err("character data outside the root element"));
            }
        }
        let rest = self.rest().as_bytes();
        if rest[0] != b'<' {
            return self.parse_text();
        }
        match rest.get(1) {
            Some(b'?') => self.parse_pi(),
            Some(b'!') if self.starts_with("<!--") => self.parse_comment(),
            Some(b'!') if self.starts_with("<![CDATA[") => self.parse_cdata(),
            Some(b'!') => Err(self.err("DTD declarations are not supported")),
            Some(b'/') => self.parse_end_tag(),
            _ => self.parse_start_tag(),
        }
    }

    fn parse_pi(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 2; // <?
        let end = self
            .rest()
            .find("?>")
            .ok_or_else(|| self.err("unterminated processing instruction"))?;
        let content = &self.rest()[..end];
        self.pos += end + 2;
        let (target, data) = match content.find(|c: char| c.is_whitespace()) {
            Some(i) => (&content[..i], content[i..].trim_start()),
            None => (content, ""),
        };
        if target.is_empty() {
            return Err(self.err("processing instruction without a target"));
        }
        if target.eq_ignore_ascii_case("xml") {
            // XML declaration: swallow it, it carries no tree content.
            return self.next_event();
        }
        Ok(Event::Pi { target, data })
    }

    fn parse_comment(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 4; // <!--
        let end = self
            .rest()
            .find("-->")
            .ok_or_else(|| self.err("unterminated comment"))?;
        let text = &self.rest()[..end];
        self.pos += end + 3;
        Ok(Event::Comment(text))
    }

    fn parse_cdata(&mut self) -> Result<Event<'a>, XmlError> {
        if self.stack.is_empty() {
            return Err(self.err("CDATA section outside the root element"));
        }
        self.pos += 9; // <![CDATA[
        let end = self
            .rest()
            .find("]]>")
            .ok_or_else(|| self.err("unterminated CDATA section"))?;
        let text = &self.rest()[..end];
        self.pos += end + 3;
        Ok(Event::Text(Cow::Borrowed(text)))
    }

    fn parse_text(&mut self) -> Result<Event<'a>, XmlError> {
        let end = self.rest().find('<').unwrap_or(self.rest().len());
        let raw = &self.rest()[..end];
        let start = self.pos;
        self.pos += end;
        let text = unescape(raw).map_err(|m| {
            self.pos = start;
            self.err(m)
        })?;
        Ok(Event::Text(text))
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        // ASCII bytes are tested directly; other characters are decoded.
        let mut end = 0;
        while let Some(&b) = rest.as_bytes().get(end) {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                end += 1;
                continue;
            }
            match rest[end..].chars().next() {
                Some(c) if !c.is_ascii() && is_name_char(c) => end += c.len_utf8(),
                _ => break,
            }
        }
        if end == 0 || !rest.starts_with(is_name_start) {
            return Err(self.err("expected an XML name"));
        }
        let name = &rest[..end];
        self.pos += end;
        Ok(name)
    }

    fn parse_start_tag(&mut self) -> Result<Event<'a>, XmlError> {
        if self.finished_root {
            return Err(self.err("multiple root elements"));
        }
        self.pos += 1; // <
        let raw_name = self.read_name()?;
        // Attribute names are split as written and resolved once the
        // tag's own declarations are in scope.
        let mut attributes: Vec<Attr<'a>> = Vec::new();
        let mut ns_decls: Vec<(&'a str, Cow<'a, str>)> = Vec::new();
        let self_closing;
        loop {
            self.skip_ws();
            if self.starts_with("/>") {
                self.pos += 2;
                self_closing = true;
                break;
            }
            if self.starts_with(">") {
                self.pos += 1;
                self_closing = false;
                break;
            }
            if self.pos >= self.input.len() {
                return Err(self.err(format!("unterminated start tag <{raw_name}>")));
            }
            let attr_name = self.read_name()?;
            self.skip_ws();
            if !self.starts_with("=") {
                return Err(self.err(format!("attribute '{attr_name}' is missing '='")));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = match self.rest().chars().next() {
                Some(q @ ('"' | '\'')) => q,
                _ => return Err(self.err("attribute value must be quoted")),
            };
            self.pos += 1;
            let end = self
                .rest()
                .find(quote)
                .ok_or_else(|| self.err("unterminated attribute value"))?;
            let raw_value = &self.rest()[..end];
            let value = unescape(raw_value).map_err(|m| self.err(m))?;
            self.pos += end + 1;
            if attr_name == "xmlns" {
                ns_decls.push(("", value));
            } else if let Some(prefix) = attr_name.strip_prefix("xmlns:") {
                if prefix.is_empty() {
                    return Err(self.err("empty namespace prefix declaration"));
                }
                ns_decls.push((prefix, value));
            } else {
                let (prefix, local) = attr_name.split_once(':').unwrap_or(("", attr_name));
                if attributes
                    .iter()
                    .any(|a| a.name.prefix == prefix && a.name.local == local)
                {
                    return Err(self.err(format!("duplicate attribute '{attr_name}'")));
                }
                attributes.push(Attr {
                    name: Name {
                        prefix,
                        local,
                        ns: Cow::Borrowed(""),
                    },
                    value,
                });
            }
        }
        // Resolve namespaces with the new declarations in scope.
        self.marks.push(self.bindings.len());
        self.bindings.extend(ns_decls.iter().cloned());
        let name = self.resolve_name(raw_name, true)?;
        for a in &mut attributes {
            // Unprefixed attributes are in no namespace, per the spec.
            if !a.name.prefix.is_empty() {
                a.name = self.resolve_split(a.name.prefix, a.name.local)?;
            }
        }
        self.seen_root = true;
        if self_closing {
            self.pending_end = Some(name.clone());
        } else {
            self.stack.push(name.clone());
        }
        Ok(Event::StartElement {
            name,
            attributes,
            ns_decls,
            self_closing,
        })
    }

    /// The URI bound to `prefix` (empty = default namespace).
    fn lookup(&self, prefix: &str) -> Option<&Cow<'a, str>> {
        self.bindings
            .iter()
            .rev()
            .find(|(p, _)| *p == prefix)
            .map(|(_, uri)| uri)
    }

    fn resolve_name(&self, raw: &'a str, use_default: bool) -> Result<Name<'a>, XmlError> {
        match raw.split_once(':') {
            Some((prefix, local)) => self.resolve_split(prefix, local),
            None => {
                let ns = match self.lookup("") {
                    Some(uri) if use_default => uri.clone(),
                    _ => Cow::Borrowed(""),
                };
                Ok(Name {
                    prefix: "",
                    local: raw,
                    ns,
                })
            }
        }
    }

    /// Resolves a name written `prefix:local`.
    fn resolve_split(&self, prefix: &'a str, local: &'a str) -> Result<Name<'a>, XmlError> {
        if local.is_empty() || local.contains(':') {
            return Err(self.err(format!("malformed qualified name '{prefix}:{local}'")));
        }
        let ns = self
            .lookup(prefix)
            .ok_or_else(|| self.err(format!("undeclared namespace prefix '{prefix}'")))?
            .clone();
        Ok(Name { prefix, local, ns })
    }

    fn parse_end_tag(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 2; // </
        let raw_name = self.read_name()?;
        self.skip_ws();
        if !self.starts_with(">") {
            return Err(self.err(format!("malformed end tag </{raw_name}>")));
        }
        self.pos += 1;
        let open = self
            .stack
            .pop()
            .ok_or_else(|| self.err(format!("unexpected end tag </{raw_name}>")))?;
        // Compare against the written form without allocating it.
        let matches = match open.prefix {
            "" => raw_name == open.local,
            p => raw_name
                .strip_prefix(p)
                .and_then(|r| r.strip_prefix(':'))
                .is_some_and(|l| l == open.local),
        };
        if !matches {
            return Err(self.err(format!(
                "mismatched end tag: expected </{open}>, found </{raw_name}>"
            )));
        }
        self.pop_scope();
        if self.stack.is_empty() {
            self.finished_root = true;
        }
        Ok(Event::EndElement { name: open })
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

/// Parses a complete document into a DOM tree.
///
/// Whitespace-only text between elements is dropped (element content
/// whitespace); mixed content keeps its text intact.
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    let mut reader = Reader::new(input);
    let mut prolog = Vec::new();
    let mut root: Option<Element> = None;
    // Stack of elements under construction.
    let mut stack: Vec<Element> = Vec::new();
    loop {
        match reader.next_event()? {
            Event::StartElement {
                name,
                attributes,
                ns_decls,
                ..
            } => {
                stack.push(Element {
                    name: name.to_qname(),
                    attributes: attributes
                        .into_iter()
                        .map(|a| Attribute {
                            name: a.name.to_qname(),
                            value: a.value.into_owned(),
                        })
                        .collect(),
                    ns_decls: ns_decls
                        .into_iter()
                        .map(|(p, uri)| (p.to_owned(), uri.into_owned()))
                        .collect(),
                    children: Vec::new(),
                });
            }
            Event::EndElement { .. } => {
                let done = stack.pop().expect("reader guarantees balance");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(Node::Element(done)),
                    None => root = Some(done),
                }
            }
            Event::Text(t) => {
                if let Some(parent) = stack.last_mut() {
                    if !t.trim().is_empty() || parent.children.iter().any(|c| c.as_text().is_some())
                    {
                        // Merge adjacent text nodes.
                        if let Some(Node::Text(prev)) = parent.children.last_mut() {
                            prev.push_str(&t);
                        } else if !t.trim().is_empty() {
                            parent.children.push(Node::Text(t.into_owned()));
                        }
                    }
                }
            }
            Event::Comment(c) => {
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(Node::Comment(c.to_owned()));
                } else if root.is_none() {
                    prolog.push(Node::Comment(c.to_owned()));
                }
            }
            Event::Pi { target, data } => {
                if let Some(parent) = stack.last_mut() {
                    parent.children.push(Node::Pi {
                        target: target.to_owned(),
                        data: data.to_owned(),
                    });
                } else if root.is_none() {
                    prolog.push(Node::Pi {
                        target: target.to_owned(),
                        data: data.to_owned(),
                    });
                }
            }
            Event::Eof => break,
        }
    }
    Ok(Document {
        prolog,
        root: root.expect("reader guarantees a root"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse_document(
            "<?xml version=\"1.0\"?>\n<newspaper><title>The Sun</title><date>04/10/2002</date></newspaper>",
        )
        .unwrap();
        assert_eq!(doc.root.name.local, "newspaper");
        assert_eq!(doc.root.children.len(), 2);
        assert_eq!(
            doc.root.first_child("title").unwrap().text_content(),
            "The Sun"
        );
    }

    #[test]
    fn parses_paper_intensional_document() {
        // The exact document of Sec. 7 of the paper (typo-corrected closing tags).
        let text = r#"<?xml version="1.0"?>
<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title> The Sun </title>
  <date> 04/10/2002 </date>
  <int:fun endpointURL="http://www.forecast.com/soap"
           methodName="Get_Temp"
           namespaceURI="urn:xmethods-weather">
    <int:params>
      <int:param><city>Paris</city></int:param>
    </int:params>
  </int:fun>
</newspaper>"#;
        let doc = parse_document(text).unwrap();
        let fun = doc.root.child_elements().nth(2).unwrap();
        assert!(fun.name.matches("http://www.activexml.com/ns/int", "fun"));
        assert_eq!(fun.attribute("methodName"), Some("Get_Temp"));
        let city = fun
            .first_child("params")
            .unwrap()
            .first_child("param")
            .unwrap()
            .first_child("city")
            .unwrap();
        assert_eq!(city.text_content(), "Paris");
    }

    #[test]
    fn self_closing_and_attributes() {
        let doc = parse_document("<a x=\"1\" y='2'><b/><c  z = \"3\" /></a>").unwrap();
        assert_eq!(doc.root.attribute("x"), Some("1"));
        assert_eq!(doc.root.attribute("y"), Some("2"));
        assert_eq!(doc.root.child_elements().count(), 2);
        assert_eq!(doc.root.first_child("c").unwrap().attribute("z"), Some("3"));
    }

    #[test]
    fn namespace_scoping_and_shadowing() {
        let doc =
            parse_document("<a xmlns=\"urn:one\"><b xmlns=\"urn:two\"><c/></b><d/></a>").unwrap();
        assert_eq!(doc.root.name.ns, "urn:one");
        let b = doc.root.first_child("b").unwrap();
        assert_eq!(b.name.ns, "urn:two");
        assert_eq!(b.first_child("c").unwrap().name.ns, "urn:two");
        assert_eq!(doc.root.first_child("d").unwrap().name.ns, "urn:one");
    }

    #[test]
    fn events_borrow_names_values_and_uris() {
        let text = r#"<a xmlns="urn:one"><p:b xmlns:p="urn:p" p:x="1" y="&lt;"/></a>"#;
        let mut r = Reader::new(text);
        let Event::StartElement { name, .. } = r.next_event().unwrap() else {
            panic!("expected <a>");
        };
        assert_eq!((name.prefix, name.local), ("", "a"));
        assert!(matches!(name.ns, Cow::Borrowed("urn:one")));
        let Event::StartElement {
            name,
            attributes,
            ns_decls,
            self_closing,
        } = r.next_event().unwrap()
        else {
            panic!("expected <p:b>");
        };
        assert!(self_closing);
        assert_eq!(name.to_string(), "p:b");
        assert!(matches!(name.ns, Cow::Borrowed("urn:p")));
        assert_eq!(ns_decls, vec![("p", Cow::Borrowed("urn:p"))]);
        assert!(attributes[0].name.matches("urn:p", "x"));
        assert!(matches!(attributes[0].value, Cow::Borrowed("1")));
        // Unprefixed attributes are in no namespace; escaped values own.
        assert!(attributes[1].name.matches("", "y"));
        assert!(matches!(&attributes[1].value, Cow::Owned(v) if v == "<"));
        let Event::EndElement { name } = r.next_event().unwrap() else {
            panic!("expected </p:b>");
        };
        assert_eq!(name.to_qname(), QName::prefixed("p", "b", "urn:p"));
    }

    #[test]
    fn declarations_leave_scope_with_their_element() {
        // Popped after a self-closing tag as after an end tag.
        let e = parse_document("<a><b xmlns:p=\"urn:p\"/><p:c/></a>").unwrap_err();
        assert!(e.message.contains("undeclared namespace prefix 'p'"), "{e}");
        let e = parse_document("<a><b xmlns:p=\"urn:p\"></b><p:c/></a>").unwrap_err();
        assert!(e.message.contains("undeclared namespace prefix 'p'"), "{e}");
        let doc = parse_document("<x:a xmlns:x=\"urn:x\" xml:lang=\"en\"/>").unwrap();
        assert_eq!(doc.root.attributes[0].name.ns, XML_NS);
    }

    #[test]
    fn entities_and_cdata() {
        let doc = parse_document("<t>a &lt; b &amp; <![CDATA[<raw> & stuff]]> c</t>").unwrap();
        assert_eq!(doc.root.text_content(), "a < b & <raw> & stuff c");
    }

    #[test]
    fn comments_and_pis() {
        let doc =
            parse_document("<!-- head --><?style css?><r><!-- in --><?p d?><x/></r>").unwrap();
        assert_eq!(doc.prolog.len(), 2);
        assert!(matches!(&doc.prolog[0], Node::Comment(c) if c.trim() == "head"));
        assert_eq!(doc.root.children.len(), 3);
    }

    #[test]
    fn error_mismatched_tags() {
        let e = parse_document("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn error_multiple_roots_and_trailing_text() {
        assert!(parse_document("<a/><b/>").is_err());
        assert!(parse_document("<a/>junk").is_err());
        assert!(parse_document("").is_err());
        assert!(parse_document("   ").is_err());
    }

    #[test]
    fn error_undeclared_prefix() {
        let e = parse_document("<x:a/>").unwrap_err();
        assert!(e.message.contains("undeclared"), "{e}");
    }

    #[test]
    fn error_duplicate_attribute() {
        assert!(parse_document("<a x=\"1\" x=\"2\"/>").is_err());
    }

    #[test]
    fn error_unterminated() {
        assert!(parse_document("<a><b>").is_err());
        assert!(parse_document("<a").is_err());
        assert!(parse_document("<a x=1/>").is_err());
        assert!(parse_document("<!-- never ends").is_err());
    }

    #[test]
    fn dtd_rejected() {
        let e = parse_document("<!DOCTYPE a><a/>").unwrap_err();
        assert!(e.message.contains("DTD"), "{e}");
    }

    #[test]
    fn line_numbers_in_errors() {
        let e = parse_document("<a>\n\n<b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn whitespace_between_elements_dropped_mixed_kept() {
        let doc = parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 2);
        let doc = parse_document("<a>hello <b/> world</a>").unwrap();
        assert_eq!(doc.root.children.len(), 3);
    }
}
