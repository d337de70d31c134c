//! The owned XML tree model.

use std::fmt;

/// A qualified name: optional prefix, local part, and the namespace URI the
/// prefix resolved to at parse time (empty string = no namespace).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct QName {
    /// The prefix as written (`int` in `int:fun`), empty if none.
    pub prefix: String,
    /// The local part (`fun` in `int:fun`).
    pub local: String,
    /// The resolved namespace URI, empty if none.
    pub ns: String,
}

impl QName {
    /// A name with no prefix and no namespace.
    pub fn local(name: &str) -> Self {
        QName {
            prefix: String::new(),
            local: name.to_owned(),
            ns: String::new(),
        }
    }

    /// A prefixed name bound to namespace `ns`.
    pub fn prefixed(prefix: &str, local: &str, ns: &str) -> Self {
        QName {
            prefix: prefix.to_owned(),
            local: local.to_owned(),
            ns: ns.to_owned(),
        }
    }

    /// The name as written in markup: `prefix:local` or just `local`.
    pub fn as_written(&self) -> String {
        if self.prefix.is_empty() {
            self.local.clone()
        } else {
            format!("{}:{}", self.prefix, self.local)
        }
    }

    /// True if local part and namespace match (prefixes are irrelevant for
    /// XML name identity).
    pub fn matches(&self, ns: &str, local: &str) -> bool {
        self.ns == ns && self.local == local
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_written())
    }
}

/// An attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name.
    pub name: QName,
    /// Unescaped value.
    pub value: String,
}

/// A child node of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data (already unescaped).
    Text(String),
    /// A comment (without the `<!--`/`-->` delimiters).
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: String,
        /// PI data.
        data: String,
    },
}

impl Node {
    /// The element inside, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Mutable access to the element inside, if this node is one.
    pub fn as_element_mut(&mut self) -> Option<&mut Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The text inside, if this node is character data.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// An element: name, attributes, namespace declarations and ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Element name.
    pub name: QName,
    /// Attributes in document order (excluding `xmlns` declarations).
    pub attributes: Vec<Attribute>,
    /// Namespace declarations written on this element:
    /// `(prefix, uri)`; the default namespace uses an empty prefix.
    pub ns_decls: Vec<(String, String)>,
    /// Ordered children.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with an unprefixed name and no content.
    pub fn new(name: &str) -> Self {
        Element {
            name: QName::local(name),
            ..Default::default()
        }
    }

    /// Creates an element with a namespaced name.
    pub fn with_ns(prefix: &str, local: &str, ns: &str) -> Self {
        Element {
            name: QName::prefixed(prefix, local, ns),
            ..Default::default()
        }
    }

    /// Builder: adds an attribute.
    pub fn attr(mut self, name: &str, value: &str) -> Self {
        self.attributes.push(Attribute {
            name: QName::local(name),
            value: value.to_owned(),
        });
        self
    }

    /// Builder: adds a child element.
    pub fn child(mut self, e: Element) -> Self {
        self.children.push(Node::Element(e));
        self
    }

    /// Builder: adds a text child.
    pub fn text(mut self, t: &str) -> Self {
        self.children.push(Node::Text(t.to_owned()));
        self
    }

    /// Builder: declares a namespace on this element.
    pub fn xmlns(mut self, prefix: &str, uri: &str) -> Self {
        self.ns_decls.push((prefix.to_owned(), uri.to_owned()));
        self
    }

    /// Looks up an attribute value by its written name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name.as_written() == name)
            .map(|a| a.value.as_str())
    }

    /// Iterates over child elements.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// First child element with the given local name.
    pub fn first_child(&self, local: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name.local == local)
    }

    /// All child elements with the given local name.
    pub fn children_named<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Element> {
        self.child_elements().filter(move |e| e.name.local == local)
    }

    /// Concatenated text content of this element's direct text children,
    /// trimmed.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let Node::Text(t) = c {
                out.push_str(t);
            }
        }
        out.trim().to_owned()
    }

    /// Number of element nodes in the subtree rooted here (including self).
    pub fn subtree_size(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::subtree_size)
            .sum::<usize>()
    }

    /// Serializes this element compactly; see [`crate::write_document`] for
    /// options.
    pub fn to_xml(&self) -> String {
        crate::writer::element_to_string(self, &crate::WriteOptions::compact())
    }

    /// Serializes with indentation.
    pub fn to_pretty_xml(&self) -> String {
        crate::writer::element_to_string(self, &crate::WriteOptions::pretty())
    }
}

/// A parsed document: optional XML declaration captured as-is, leading
/// comments/PIs, and the single root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Nodes appearing before the root (comments, PIs).
    pub prolog: Vec<Node>,
    /// The root element.
    pub root: Element,
}

impl Document {
    /// Wraps a root element into a document.
    pub fn new(root: Element) -> Self {
        Document {
            prolog: Vec::new(),
            root,
        }
    }

    /// Serializes the document with an XML declaration.
    pub fn to_xml(&self) -> String {
        crate::writer::write_document(self, &crate::WriteOptions::compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let e = Element::new("newspaper")
            .child(Element::new("title").text("The Sun"))
            .child(Element::new("date").text("04/10/2002"))
            .attr("lang", "en");
        assert_eq!(e.attribute("lang"), Some("en"));
        assert_eq!(e.first_child("title").unwrap().text_content(), "The Sun");
        assert_eq!(e.child_elements().count(), 2);
        assert_eq!(e.subtree_size(), 3);
        assert!(e.first_child("absent").is_none());
    }

    #[test]
    fn qname_matching_ignores_prefix() {
        let a = QName::prefixed("int", "fun", "urn:axml:int");
        let b = QName::prefixed("x", "fun", "urn:axml:int");
        assert!(a.matches("urn:axml:int", "fun"));
        assert!(b.matches("urn:axml:int", "fun"));
        assert_ne!(a, b); // structural equality still sees the prefix
        assert_eq!(a.as_written(), "int:fun");
    }

    #[test]
    fn text_content_concatenates_and_trims() {
        let mut e = Element::new("t");
        e.children.push(Node::Text("  hello ".to_owned()));
        e.children.push(Node::Comment("ignored".to_owned()));
        e.children.push(Node::Text("world  ".to_owned()));
        assert_eq!(e.text_content(), "hello world");
    }

    #[test]
    fn children_named_filters() {
        let e = Element::new("r")
            .child(Element::new("a"))
            .child(Element::new("b"))
            .child(Element::new("a"));
        assert_eq!(e.children_named("a").count(), 2);
        assert_eq!(e.children_named("b").count(), 1);
    }
}
