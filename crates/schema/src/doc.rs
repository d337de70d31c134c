//! Intensional documents (Def. 1 of the paper).
//!
//! An intensional document is an ordered labeled tree with two node kinds:
//! *data* nodes (elements and text) and *function* nodes (embedded service
//! calls). Function nodes carry the call parameters as their children.
//!
//! The XML encoding follows Sec. 7 of the paper: a function node is an
//! element `int:fun` in the namespace [`INT_NS`] with `methodName`,
//! `endpointURL` and `namespaceURI` attributes, and its parameters wrapped
//! in `int:params`/`int:param`.

use axml_xml::{escape_attr, escape_text, Element, Node};
use std::borrow::Cow;
use std::fmt;

/// The namespace used to mark intensional (function-call) elements.
pub const INT_NS: &str = "http://www.activexml.com/ns/int";

/// A service-call node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncNode {
    /// The operation name (identifies the Web service operation).
    pub name: String,
    /// SOAP endpoint URL, if known.
    pub endpoint: Option<String>,
    /// SOAP namespace URI, if known.
    pub namespace: Option<String>,
    /// Call parameters — themselves intensional trees.
    pub params: Vec<ITree>,
}

/// An intensional tree: element, text, or embedded function call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ITree {
    /// A data element with a label and ordered children.
    Elem {
        /// The element label.
        label: String,
        /// Ordered children.
        children: Vec<ITree>,
    },
    /// A text leaf (an atomic data value in `𝒟`).
    Text(String),
    /// A function node (a square node in the paper's figures).
    Func(FuncNode),
}

impl ITree {
    /// Creates an element node.
    pub fn elem(label: &str, children: Vec<ITree>) -> Self {
        ITree::Elem {
            label: label.to_owned(),
            children,
        }
    }

    /// Creates an element node holding a single text child.
    pub fn data(label: &str, text: &str) -> Self {
        ITree::elem(label, vec![ITree::text(text)])
    }

    /// Creates a text leaf.
    pub fn text(t: &str) -> Self {
        ITree::Text(t.to_owned())
    }

    /// Creates a function node with parameters.
    pub fn func(name: &str, params: Vec<ITree>) -> Self {
        ITree::Func(FuncNode {
            name: name.to_owned(),
            endpoint: None,
            namespace: None,
            params,
        })
    }

    /// The element label or function name, if the node has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            ITree::Elem { label, .. } => Some(label),
            ITree::Func(f) => Some(&f.name),
            ITree::Text(_) => None,
        }
    }

    /// True if this is a function node.
    pub fn is_func(&self) -> bool {
        matches!(self, ITree::Func(_))
    }

    /// Children of an element, parameters of a function, empty for text.
    pub fn children(&self) -> &[ITree] {
        match self {
            ITree::Elem { children, .. } => children,
            ITree::Func(f) => &f.params,
            ITree::Text(_) => &[],
        }
    }

    /// Mutable children/parameters.
    pub fn children_mut(&mut self) -> Option<&mut Vec<ITree>> {
        match self {
            ITree::Elem { children, .. } => Some(children),
            ITree::Func(f) => Some(&mut f.params),
            ITree::Text(_) => None,
        }
    }

    /// Total number of nodes in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(ITree::size).sum::<usize>()
    }

    /// Number of function nodes in the subtree.
    pub fn num_funcs(&self) -> usize {
        let own = usize::from(self.is_func());
        own + self.children().iter().map(ITree::num_funcs).sum::<usize>()
    }

    /// Maximum nesting depth of function nodes within function parameters.
    pub fn func_nesting(&self) -> usize {
        let below = self
            .children()
            .iter()
            .map(ITree::func_nesting)
            .max()
            .unwrap_or(0);
        if self.is_func() {
            below + 1
        } else {
            below
        }
    }

    /// Depth-first pre-order visit of every node.
    pub fn visit(&self, f: &mut impl FnMut(&ITree)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Encodes the tree as XML (Sec. 7 encoding for function nodes).
    pub fn to_xml(&self) -> Element {
        match self {
            ITree::Elem { label, children } => {
                let mut e = Element::new(label);
                for c in children {
                    push_xml(&mut e, c);
                }
                e
            }
            ITree::Text(t) => {
                // A bare text tree is wrapped when used as a root; callers
                // normally encode under an element.
                Element::new("text").text(t)
            }
            ITree::Func(f) => func_to_xml(f),
        }
    }

    /// Writes the compact XML encoding of the tree to `out`: exactly the
    /// bytes `axml_xml::element_to_string` writes for [`ITree::to_xml`]
    /// with `WriteOptions::compact()`, without building the [`Element`].
    pub fn write_xml(&self, out: &mut String) {
        match self {
            ITree::Elem { label, children } => {
                out.push('<');
                out.push_str(label);
                if children.is_empty() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for c in children {
                    c.write_xml_item(out);
                }
                out.push_str("</");
                out.push_str(label);
                out.push('>');
            }
            ITree::Text(t) => {
                out.push_str("<text>");
                out.push_str(&escape_text(t));
                out.push_str("</text>");
            }
            ITree::Func(f) => write_func(f, out),
        }
    }

    /// Writes the tree as element content: text is escaped in place,
    /// elements and calls are written as by [`ITree::write_xml`].
    pub fn write_xml_item(&self, out: &mut String) {
        match self {
            ITree::Text(t) => out.push_str(&escape_text(t)),
            other => other.write_xml(out),
        }
    }

    /// The tree that decoding its own compact XML gives back, i.e.
    /// `ITree::from_xml` of the parsed [`ITree::write_xml`] output,
    /// without the text in between. Each run of adjacent text children is
    /// concatenated, trimmed and dropped if empty; a text parameter is
    /// trimmed; a bare text root becomes its `text` carrier element.
    /// Borrowed when the tree is already normal, the common case.
    ///
    /// Fails where the decoder would: a call parameter that is empty
    /// after trimming. Labels are taken to be XML names without a prefix;
    /// the XML round trip rejects or re-reads any other label.
    pub fn normalize(&self) -> Result<Cow<'_, ITree>, String> {
        match self {
            ITree::Elem { label, children } => Ok(match normalize_forest(children)? {
                None => Cow::Borrowed(self),
                Some(children) => Cow::Owned(ITree::Elem {
                    label: label.clone(),
                    children,
                }),
            }),
            ITree::Text(t) => Ok(Cow::Owned(ITree::Elem {
                label: "text".to_owned(),
                children: normalize_forest(std::slice::from_ref(self))?
                    .unwrap_or_else(|| vec![ITree::Text(t.clone())]),
            })),
            ITree::Func(f) => {
                let mut params: Option<Vec<ITree>> = None;
                for (i, p) in f.params.iter().enumerate() {
                    let fixed = match p {
                        ITree::Text(t) => {
                            let trimmed = t.trim();
                            if trimmed.is_empty() {
                                return Err("empty int:param".to_owned());
                            }
                            (trimmed.len() != t.len()).then(|| ITree::text(trimmed))
                        }
                        other => match other.normalize()? {
                            Cow::Borrowed(_) => None,
                            Cow::Owned(n) => Some(n),
                        },
                    };
                    if let Some(n) = fixed {
                        params.get_or_insert_with(|| f.params[..i].to_vec()).push(n);
                    } else if let Some(v) = &mut params {
                        v.push(p.clone());
                    }
                }
                Ok(match params {
                    None => Cow::Borrowed(self),
                    Some(params) => Cow::Owned(ITree::Func(FuncNode {
                        name: f.name.clone(),
                        endpoint: f.endpoint.clone(),
                        namespace: f.namespace.clone(),
                        params,
                    })),
                })
            }
        }
    }

    /// Decodes from XML, recognizing `int:fun` elements as function nodes.
    pub fn from_xml(e: &Element) -> Result<ITree, String> {
        if e.name.matches(INT_NS, "fun") {
            return Ok(ITree::Func(func_from_xml(e)?));
        }
        Ok(ITree::Elem {
            label: e.name.local.clone(),
            children: forest_from_nodes(&e.children)?,
        })
    }
}

/// Decodes a DOM child list the way [`ITree::from_xml`] treats element
/// content: elements recurse (recognizing `int:fun`), text is trimmed and
/// dropped when whitespace-only, comments and PIs vanish. Exposed so the
/// streaming enforcer can materialize a tail forest with identical
/// normalization to the DOM path.
pub fn forest_from_nodes(nodes: &[Node]) -> Result<Vec<ITree>, String> {
    let mut children = Vec::new();
    for c in nodes {
        match c {
            Node::Element(el) => children.push(ITree::from_xml(el)?),
            Node::Text(t) => {
                let trimmed = t.trim();
                if !trimmed.is_empty() {
                    children.push(ITree::text(trimmed));
                }
            }
            Node::Comment(_) | Node::Pi { .. } => {}
        }
    }
    Ok(children)
}

impl fmt::Display for ITree {
    /// Compact term-like rendering used in tests and logs:
    /// `newspaper[title["The Sun"], Get_Temp!(city["Paris"])]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ITree::Text(t) => write!(f, "{t:?}"),
            ITree::Elem { label, children } => {
                write!(f, "{label}")?;
                write_children(f, children)
            }
            ITree::Func(fun) => {
                write!(f, "{}!", fun.name)?;
                if fun.params.is_empty() {
                    Ok(())
                } else {
                    write!(f, "(")?;
                    for (i, p) in fun.params.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, ")")
                }
            }
        }
    }
}

fn write_children(f: &mut fmt::Formatter<'_>, children: &[ITree]) -> fmt::Result {
    if children.is_empty() {
        return Ok(());
    }
    write!(f, "[")?;
    for (i, c) in children.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{c}")?;
    }
    write!(f, "]")
}

/// The normal form of an element's children (see [`ITree::normalize`]),
/// or `None` when they are normal already.
fn normalize_forest(children: &[ITree]) -> Result<Option<Vec<ITree>>, String> {
    let mut out: Option<Vec<ITree>> = None;
    let mut i = 0;
    while i < children.len() {
        // `None`: `children[i]` stays; `Some(items)`: `children[i..end]`
        // becomes `items` (at most one).
        let (end, fixed) = match &children[i] {
            ITree::Text(t) => {
                let end = children[i..]
                    .iter()
                    .position(|c| !matches!(c, ITree::Text(_)))
                    .map_or(children.len(), |n| i + n);
                if end == i + 1 && !t.is_empty() && t.trim().len() == t.len() {
                    (end, None)
                } else {
                    let run: String = children[i..end]
                        .iter()
                        .filter_map(|c| match c {
                            ITree::Text(t) => Some(t.as_str()),
                            _ => None,
                        })
                        .collect();
                    let trimmed = run.trim();
                    (
                        end,
                        Some((!trimmed.is_empty()).then(|| ITree::text(trimmed))),
                    )
                }
            }
            c => match c.normalize()? {
                Cow::Borrowed(_) => (i + 1, None),
                Cow::Owned(n) => (i + 1, Some(Some(n))),
            },
        };
        match fixed {
            Some(items) => out
                .get_or_insert_with(|| children[..i].to_vec())
                .extend(items),
            None => {
                if let Some(v) = &mut out {
                    v.push(children[i].clone());
                }
            }
        }
        i = end;
    }
    Ok(out)
}

fn write_func(f: &FuncNode, out: &mut String) {
    out.push_str("<int:fun xmlns:int=\"");
    out.push_str(INT_NS);
    out.push_str("\" methodName=\"");
    out.push_str(&escape_attr(&f.name));
    out.push('"');
    if let Some(url) = &f.endpoint {
        out.push_str(" endpointURL=\"");
        out.push_str(&escape_attr(url));
        out.push('"');
    }
    if let Some(ns) = &f.namespace {
        out.push_str(" namespaceURI=\"");
        out.push_str(&escape_attr(ns));
        out.push('"');
    }
    if f.params.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push_str("><int:params>");
    for p in &f.params {
        out.push_str("<int:param>");
        p.write_xml_item(out);
        out.push_str("</int:param>");
    }
    out.push_str("</int:params></int:fun>");
}

fn push_xml(parent: &mut Element, tree: &ITree) {
    match tree {
        ITree::Text(t) => parent.children.push(Node::Text(t.clone())),
        other => parent.children.push(Node::Element(other.to_xml())),
    }
}

fn func_to_xml(f: &FuncNode) -> Element {
    let mut e = Element::with_ns("int", "fun", INT_NS)
        .xmlns("int", INT_NS)
        .attr("methodName", &f.name);
    if let Some(url) = &f.endpoint {
        e = e.attr("endpointURL", url);
    }
    if let Some(ns) = &f.namespace {
        e = e.attr("namespaceURI", ns);
    }
    if !f.params.is_empty() {
        let mut params = Element::with_ns("int", "params", INT_NS);
        for p in &f.params {
            let mut param = Element::with_ns("int", "param", INT_NS);
            push_xml(&mut param, p);
            params.children.push(Node::Element(param));
        }
        e.children.push(Node::Element(params));
    }
    e
}

fn func_from_xml(e: &Element) -> Result<FuncNode, String> {
    let name = e
        .attribute("methodName")
        .ok_or("int:fun element is missing methodName")?
        .to_owned();
    let mut params = Vec::new();
    for c in e.child_elements() {
        if c.name.matches(INT_NS, "params") {
            for p in c.child_elements() {
                if !p.name.matches(INT_NS, "param") {
                    return Err(format!("unexpected element '{}' inside int:params", p.name));
                }
                // A param holds exactly one tree: an element or bare text.
                let elems: Vec<_> = p.child_elements().collect();
                match elems.len() {
                    0 => {
                        let t = p.text_content();
                        if t.is_empty() {
                            return Err("empty int:param".to_owned());
                        }
                        params.push(ITree::Text(t));
                    }
                    1 => params.push(ITree::from_xml(elems[0])?),
                    _ => return Err("int:param must hold a single tree".to_owned()),
                }
            }
        } else {
            return Err(format!("unexpected element '{}' inside int:fun", c.name));
        }
    }
    Ok(FuncNode {
        name,
        endpoint: e.attribute("endpointURL").map(str::to_owned),
        namespace: e.attribute("namespaceURI").map(str::to_owned),
        params,
    })
}

/// Builds the paper's running example: the newspaper document of Fig. 2.a.
pub fn newspaper_example() -> ITree {
    ITree::elem(
        "newspaper",
        vec![
            ITree::data("title", "The Sun"),
            ITree::data("date", "04/10/2002"),
            ITree::func("Get_Temp", vec![ITree::data("city", "Paris")]),
            ITree::func("TimeOut", vec![ITree::text("exhibits")]),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::parse_document;

    #[test]
    fn builders_and_accessors() {
        let doc = newspaper_example();
        assert_eq!(doc.name(), Some("newspaper"));
        assert_eq!(doc.children().len(), 4);
        assert_eq!(doc.num_funcs(), 2);
        assert_eq!(doc.func_nesting(), 1);
        assert_eq!(doc.size(), 10);
        let mut labels = Vec::new();
        doc.visit(&mut |n| {
            if let Some(n) = n.name() {
                labels.push(n.to_owned());
            }
        });
        assert_eq!(labels[0], "newspaper");
        assert!(labels.contains(&"Get_Temp".to_owned()));
    }

    #[test]
    fn display_is_compact() {
        let doc = newspaper_example();
        let s = doc.to_string();
        assert!(s.starts_with("newspaper[title["));
        assert!(s.contains("Get_Temp!(city["));
    }

    #[test]
    fn xml_roundtrip() {
        let doc = newspaper_example();
        let xml = doc.to_xml();
        let text = xml.to_pretty_xml();
        let parsed = parse_document(&text).unwrap();
        let back = ITree::from_xml(&parsed.root).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn paper_xml_decodes_to_function_nodes() {
        // Sec. 7 document (with corrected end tags).
        let text = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title> The Sun </title>
  <date> 04/10/2002 </date>
  <int:fun endpointURL="http://www.forecast.com/soap" methodName="Get_Temp"
           namespaceURI="urn:xmethods-weather">
    <int:params><int:param><city>Paris</city></int:param></int:params>
  </int:fun>
  <int:fun endpointURL="http://www.timeout.com/paris" methodName="TimeOut"
           namespaceURI="urn:timeout-program">
    <int:params><int:param> exhibits </int:param></int:params>
  </int:fun>
</newspaper>"#;
        let parsed = parse_document(text).unwrap();
        let tree = ITree::from_xml(&parsed.root).unwrap();
        assert_eq!(tree.num_funcs(), 2);
        match &tree.children()[2] {
            ITree::Func(f) => {
                assert_eq!(f.name, "Get_Temp");
                assert_eq!(f.endpoint.as_deref(), Some("http://www.forecast.com/soap"));
                assert_eq!(f.params.len(), 1);
                assert_eq!(f.params[0].name(), Some("city"));
            }
            other => panic!("expected function node, got {other}"),
        }
        match &tree.children()[3] {
            ITree::Func(f) => {
                assert_eq!(f.params[0], ITree::text("exhibits"));
            }
            other => panic!("expected function node, got {other}"),
        }
    }

    #[test]
    fn nested_function_params_roundtrip() {
        let doc = ITree::elem(
            "r",
            vec![ITree::func(
                "outer",
                vec![ITree::elem(
                    "wrap",
                    vec![ITree::func("inner", vec![ITree::text("x")])],
                )],
            )],
        );
        assert_eq!(doc.func_nesting(), 2);
        let xml = doc.to_xml().to_xml();
        let back = ITree::from_xml(&parse_document(&xml).unwrap().root).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn malformed_int_fun_rejected() {
        let bad = r#"<r xmlns:int="http://www.activexml.com/ns/int"><int:fun/></r>"#;
        let parsed = parse_document(bad).unwrap();
        assert!(ITree::from_xml(&parsed.root).is_err());

        let bad2 = r#"<r xmlns:int="http://www.activexml.com/ns/int">
            <int:fun methodName="f"><int:params><int:param/></int:params></int:fun></r>"#;
        let parsed = parse_document(bad2).unwrap();
        assert!(ITree::from_xml(&parsed.root).is_err());
    }
}
