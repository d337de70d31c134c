//! One-pass decoding: reader events straight into an [`ITree`].
//!
//! [`TreeBuilder`] is fed [`axml_xml::Event`]s and builds exactly the tree
//! [`ITree::from_xml`] decodes from the DOM of the same text, without
//! building that DOM: text runs merge the way `parse_document` merges
//! adjacent text nodes (a whitespace-only run that does not follow text is
//! dropped; comments and PIs break a run) and are trimmed, and `int:fun`,
//! `int:params` and `int:param` decode with the same rules and errors.

use crate::doc::{FuncNode, ITree, INT_NS};
use axml_xml::{Attr, Event, Name, Reader, XmlError};
use std::borrow::Cow;
use std::fmt;

/// Why text did not decode into an intensional tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The text is not well-formed XML.
    Xml(XmlError),
    /// Well-formed XML that is not an intensional tree (malformed
    /// `int:fun` markup).
    Tree(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Xml(e) => e.fmt(f),
            ParseError::Tree(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ParseError {}

impl ITree {
    /// Decodes the XML text of an intensional document in one pass:
    /// `ITree::from_xml(&parse_document(text)?.root)` without the DOM.
    /// An XML error anywhere in the text wins over a decode error.
    pub fn parse(text: &str) -> Result<ITree, ParseError> {
        let mut reader = Reader::new(text);
        let mut builder = TreeBuilder::content();
        loop {
            match reader.next_event().map_err(ParseError::Xml)? {
                Event::Eof => break,
                ev => {
                    builder.feed(ev);
                }
            }
        }
        let forest = builder.finish().map_err(ParseError::Tree)?;
        Ok(forest
            .into_iter()
            .next()
            .expect("the reader guarantees a root element"))
    }
}

/// The rule of a parameter wrapper: it holds exactly one tree, an element
/// or its trimmed text content; only the error messages differ between
/// `int:param` and a SOAP call's `param`.
#[derive(Debug, Clone, Copy)]
struct ParamRule {
    empty: &'static str,
    many: &'static str,
}

const INT_PARAM: ParamRule = ParamRule {
    empty: "empty int:param",
    many: "int:param must hold a single tree",
};

/// A text run: it starts at a text event that is not whitespace-only and
/// takes every text event after it until a break. Borrowed while it is a
/// single span of the input.
#[derive(Default)]
struct Run<'a>(Option<Cow<'a, str>>);

impl<'a> Run<'a> {
    fn push(&mut self, t: Cow<'a, str>) {
        match &mut self.0 {
            Some(run) => run.to_mut().push_str(&t),
            None if !t.trim().is_empty() => self.0 = Some(t),
            None => {}
        }
    }
}

/// An open element. The finished children of every open frame sit in the
/// builder's one item stack; `start` is where this frame's begin.
enum Frame<'a> {
    /// Element content: data children and calls; `label` is `None` for a
    /// content root.
    Content {
        label: Option<&'a str>,
        start: usize,
    },
    /// Inside `int:fun`: only `int:params` children, text ignored. Each
    /// closed `int:param` leaves its tree on the item stack.
    Fun {
        name: String,
        endpoint: Option<String>,
        namespace: Option<String>,
        start: usize,
    },
    /// Inside `int:params`: only `int:param` children, text ignored.
    Params,
    /// Inside a parameter wrapper: one element, or else the text content
    /// (the closed runs; the open one is the builder's run).
    Param {
        rule: ParamRule,
        start: usize,
        text: Option<Cow<'a, str>>,
    },
}

/// After a decode error the builder keeps only what can still change the
/// reported error: the DOM decoder counts a parameter's elements before
/// decoding the first, so a second element in a parameter that encloses
/// the error replaces it with that parameter's "single tree" error.
struct Failed {
    error: String,
    /// Open frames, the root included.
    depth: usize,
    /// Frame indices of the enclosing parameters, with their error.
    params: Vec<(usize, &'static str)>,
}

/// Builds an [`ITree`] forest from reader events in one pass.
///
/// The builder's root stands for the content of an element whose start
/// tag it did not see, or for a whole document. Feed it the events after
/// that start tag: [`TreeBuilder::feed`] says when the matching end tag
/// closed the root. A decode error does not stop the builder: keep
/// feeding it (the caller drains the reader, so an XML error later in the
/// input still wins) and [`TreeBuilder::finish`] reports the error the
/// DOM decoder reports.
pub struct TreeBuilder<'a> {
    stack: Vec<Frame<'a>>,
    /// Finished children of the open frames, innermost last; a closing
    /// element takes its own off the top in one exact-size move.
    items: Vec<ITree>,
    /// The open text run. Only the top frame can have one: a child
    /// element breaks its parent's run.
    run: Run<'a>,
    failed: Option<Failed>,
}

impl<'a> TreeBuilder<'a> {
    /// A builder whose root collects element content: each element or
    /// call decodes to one item, each text run to a trimmed text item.
    /// Fed a whole document, it yields the document tree as its only item.
    pub fn content() -> Self {
        Self::with_root(Frame::Content {
            label: None,
            start: 0,
        })
    }

    /// A builder whose root is a parameter wrapper: it yields exactly one
    /// item, the single element inside, or else the trimmed text content.
    /// `empty` is the error for a wrapper with neither, `many` for one
    /// with more than one element.
    pub fn param(empty: &'static str, many: &'static str) -> Self {
        Self::with_root(Frame::Param {
            rule: ParamRule { empty, many },
            start: 0,
            text: None,
        })
    }

    fn with_root(root: Frame<'a>) -> Self {
        TreeBuilder {
            stack: vec![root],
            items: Vec::with_capacity(16),
            run: Run::default(),
            failed: None,
        }
    }

    /// Elements open below the root.
    pub fn depth(&self) -> usize {
        match &self.failed {
            Some(f) => f.depth.saturating_sub(1),
            None => self.stack.len() - 1,
        }
    }

    /// Feeds one event; returns `true` when it was the end tag that closes
    /// the root. [`Event::Eof`] is ignored.
    pub fn feed(&mut self, ev: Event<'a>) -> bool {
        if let Some(f) = &mut self.failed {
            match ev {
                Event::StartElement { .. } => {
                    if let Some(&(_, many)) = f.params.last().filter(|p| p.0 + 1 == f.depth) {
                        f.error = many.to_owned();
                    }
                    f.depth += 1;
                }
                Event::EndElement { .. } => {
                    f.depth -= 1;
                    if f.params.last().is_some_and(|p| p.0 == f.depth) {
                        f.params.pop();
                    }
                    return f.depth == 0;
                }
                _ => {}
            }
            return false;
        }
        match ev {
            Event::StartElement {
                name, attributes, ..
            } => {
                if let Err(e) = self.start(name, &attributes) {
                    self.fail(e, self.stack.len() + 1);
                }
                false
            }
            Event::EndElement { .. } => {
                if self.stack.len() == 1 {
                    return true;
                }
                if let Err(e) = self.end() {
                    self.fail(e, self.stack.len());
                }
                false
            }
            Event::Text(t) => {
                if let Some(Frame::Content { .. } | Frame::Param { .. }) = self.stack.last() {
                    self.run.push(t);
                }
                false
            }
            Event::Comment(_) | Event::Pi { .. } => {
                self.break_run();
                false
            }
            Event::Eof => false,
        }
    }

    /// The decoded forest of the root (one item for a parameter root and
    /// for a whole document), or the decode error.
    pub fn finish(mut self) -> Result<Vec<ITree>, String> {
        if let Some(f) = self.failed {
            return Err(f.error);
        }
        self.break_run();
        if let Some(Frame::Param { rule, start, text }) = self.stack.pop() {
            self.close_param(rule, start, text)?;
        }
        Ok(self.items)
    }

    fn fail(&mut self, error: String, depth: usize) {
        let params = self
            .stack
            .iter()
            .enumerate()
            .filter_map(|(i, f)| match f {
                Frame::Param { rule, .. } => Some((i, rule.many)),
                _ => None,
            })
            .collect();
        self.stack.clear();
        self.items.clear();
        self.failed = Some(Failed {
            error,
            depth,
            params,
        });
    }

    /// Ends the open text run: a content frame gets a text item, a
    /// parameter adds it to its text content.
    fn break_run(&mut self) {
        let Some(t) = self.run.0.take() else {
            return;
        };
        match self.stack.last_mut() {
            Some(Frame::Content { .. }) => self.items.push(ITree::text(t.trim())),
            Some(Frame::Param { text, .. }) => match text {
                Some(text) => text.to_mut().push_str(&t),
                None => *text = Some(t),
            },
            // Text is not fed to a run anywhere else.
            _ => {}
        }
    }

    fn start(&mut self, name: Name<'a>, attributes: &[Attr<'a>]) -> Result<(), String> {
        self.break_run();
        let start = self.items.len();
        let frame = match self.stack.last().expect("the root frame stays") {
            Frame::Param {
                rule, start: first, ..
            } if *first < start => return Err(rule.many.to_owned()),
            Frame::Content { .. } | Frame::Param { .. } => {
                if name.matches(INT_NS, "fun") {
                    let attr = |n: &str| {
                        attributes
                            .iter()
                            .find(|a| a.name.prefix.is_empty() && a.name.local == n)
                            .map(|a| a.value.to_string())
                    };
                    Frame::Fun {
                        name: attr("methodName").ok_or("int:fun element is missing methodName")?,
                        endpoint: attr("endpointURL"),
                        namespace: attr("namespaceURI"),
                        start,
                    }
                } else {
                    Frame::Content {
                        label: Some(name.local),
                        start,
                    }
                }
            }
            Frame::Fun { .. } if name.matches(INT_NS, "params") => Frame::Params,
            Frame::Fun { .. } => return Err(format!("unexpected element '{name}' inside int:fun")),
            Frame::Params if name.matches(INT_NS, "param") => Frame::Param {
                rule: INT_PARAM,
                start,
                text: None,
            },
            Frame::Params => return Err(format!("unexpected element '{name}' inside int:params")),
        };
        self.stack.push(frame);
        Ok(())
    }

    fn end(&mut self) -> Result<(), String> {
        self.break_run();
        let done = match self.stack.pop().expect("checked: not the root") {
            Frame::Content { label, start } => ITree::Elem {
                label: label.expect("only the root has no label").to_owned(),
                children: self.items.drain(start..).collect(),
            },
            Frame::Fun {
                name,
                endpoint,
                namespace,
                start,
            } => ITree::Func(FuncNode {
                name,
                endpoint,
                namespace,
                params: self.items.drain(start..).collect(),
            }),
            Frame::Params => return Ok(()),
            // The parameter's tree stays on the item stack, one of the
            // enclosing call's parameters.
            Frame::Param { rule, start, text } => return self.close_param(rule, start, text),
        };
        self.items.push(done);
        Ok(())
    }

    /// Leaves exactly one item for a closed parameter wrapper: its
    /// element, or else its trimmed text content.
    fn close_param(
        &mut self,
        rule: ParamRule,
        start: usize,
        text: Option<Cow<'_, str>>,
    ) -> Result<(), String> {
        if self.items.len() > start {
            return Ok(());
        }
        match text.as_deref().map(str::trim) {
            Some(t) if !t.is_empty() => {
                self.items.push(ITree::text(t));
                Ok(())
            }
            _ => Err(rule.empty.to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::newspaper_example;

    /// Feeds `builder` the content of the root element of `text`.
    fn feed_content<'a>(text: &'a str, mut builder: TreeBuilder<'a>) -> Result<Vec<ITree>, String> {
        let mut reader = Reader::new(text);
        assert!(matches!(
            reader.next_event().unwrap(),
            Event::StartElement { .. }
        ));
        loop {
            let ev = reader.next_event().unwrap();
            if builder.feed(ev) {
                return builder.finish();
            }
        }
    }

    #[test]
    fn parse_round_trips_the_paper_document() {
        let doc = newspaper_example();
        let text = doc.to_xml().to_pretty_xml();
        assert_eq!(ITree::parse(&text), Ok(doc));
    }

    #[test]
    fn parse_separates_xml_from_decode_errors() {
        assert!(matches!(
            ITree::parse("<a><b></a>"),
            Err(ParseError::Xml(_))
        ));
        let bad = format!("<int:fun xmlns:int=\"{INT_NS}\"/>");
        assert_eq!(
            ITree::parse(&bad),
            Err(ParseError::Tree(
                "int:fun element is missing methodName".into()
            ))
        );
        // The XML error later in the text wins.
        let both = format!("<r xmlns:int=\"{INT_NS}\"><int:fun/><x></r>");
        assert!(matches!(ITree::parse(&both), Err(ParseError::Xml(_))));
    }

    #[test]
    fn content_root_merges_and_trims_runs() {
        let text = "<r> \n <a/> x <![CDATA[y]]> <!-- c --> z <b>q</b>   </r>";
        assert_eq!(
            feed_content(text, TreeBuilder::content()),
            Ok(vec![
                ITree::elem("a", vec![]),
                ITree::text("x y"),
                ITree::text("z"),
                ITree::data("b", "q"),
            ])
        );
    }

    #[test]
    fn param_root_holds_one_tree_or_its_text() {
        let param = || TreeBuilder::param("empty", "many");
        assert_eq!(
            feed_content("<p> a<!--c--> b </p>", param()),
            Ok(vec![ITree::text("a b")])
        );
        assert_eq!(
            feed_content("<p>t<e/></p>", param()),
            Ok(vec![ITree::elem("e", vec![])])
        );
        assert_eq!(
            feed_content("<p> <!--c--> </p>", param()),
            Err("empty".into())
        );
        assert_eq!(feed_content("<p><e/><f/></p>", param()), Err("many".into()));
    }

    #[test]
    fn depth_counts_elements_below_the_root_after_an_error_too() {
        let text = format!("<r xmlns:int=\"{INT_NS}\"><int:fun><x/></int:fun><y/></r>");
        let mut reader = Reader::new(&text);
        reader.next_event().unwrap();
        let mut b = TreeBuilder::content();
        let mut depths = Vec::new();
        loop {
            let ev = reader.next_event().unwrap();
            if b.feed(ev) {
                break;
            }
            depths.push(b.depth());
        }
        assert_eq!(depths, [1, 2, 1, 0, 1, 0]);
        assert_eq!(
            b.finish(),
            Err("int:fun element is missing methodName".into())
        );
    }
}
