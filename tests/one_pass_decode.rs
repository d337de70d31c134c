//! One-pass decoding equals the DOM route it replaced.
//!
//! `ITree::parse` and `soap::decode` build their trees straight from
//! reader events. This suite pins both to decoding the `parse_document`
//! DOM, over generated text that covers comments, PIs, CDATA, entities,
//! whitespace-only and adjacent text runs, default and prefixed
//! namespaces, prefixed labels, every malformed `int:fun` shape, every
//! envelope shape, and corrupted input. "Equal" means the same tree, or
//! the same error: the same kind (XML or decode) with the same message,
//! and for XML errors the same position.
//!
//! The `Element` envelope decoder below is the oracle; it is kept only
//! here.

use axml::schema::{ITree, ParseError, INT_NS};
use axml::services::soap::{self, Fault, Message, SOAP_NS};
use axml::xml::{parse_document, Element, Node};
use axml_support::prelude::*;

/// What `ITree::parse` gave before: the DOM, then `from_xml`.
fn tree_oracle(text: &str) -> Result<ITree, ParseError> {
    let doc = parse_document(text).map_err(ParseError::Xml)?;
    ITree::from_xml(&doc.root).map_err(ParseError::Tree)
}

/// What `soap::decode` gave before.
fn soap_oracle(text: &str) -> Result<Message, String> {
    let doc = parse_document(text).map_err(|e| e.to_string())?;
    oracle::decode_element(&doc.root)
}

mod oracle {
    use super::*;

    pub fn decode_element(root: &Element) -> Result<Message, String> {
        if !root.name.matches(SOAP_NS, "Envelope") {
            return Err(format!("not a SOAP envelope: <{}>", root.name));
        }
        let body = root
            .child_elements()
            .find(|e| e.name.matches(SOAP_NS, "Body"))
            .ok_or("envelope has no Body")?;
        let content = body.child_elements().next().ok_or("empty Body")?;
        if content.name.matches(SOAP_NS, "Fault") {
            let code = content
                .first_child("faultcode")
                .map(Element::text_content)
                .unwrap_or_default();
            let message = content
                .first_child("faultstring")
                .map(Element::text_content)
                .unwrap_or_default();
            let retryable = content
                .first_child("detail")
                .and_then(|d| d.first_child("retryable"))
                .is_some_and(|r| r.text_content().trim() == "true");
            return Ok(Message::Fault(Fault {
                code,
                message,
                retryable,
            }));
        }
        match content.name.local.as_str() {
            "call" => {
                let method = content
                    .attribute("method")
                    .ok_or("call without method")?
                    .to_owned();
                let mut params = Vec::new();
                for p in content.children_named("param") {
                    params.push(forest_item(p)?);
                }
                Ok(Message::Request { method, params })
            }
            "result" => {
                let mut result = Vec::new();
                for c in &content.children {
                    match c {
                        Node::Element(e) => result.push(ITree::from_xml(e)?),
                        Node::Text(t) if !t.trim().is_empty() => {
                            result.push(ITree::text(t.trim()));
                        }
                        _ => {}
                    }
                }
                Ok(Message::Response { result })
            }
            other => Err(format!("unsupported body element <{other}>")),
        }
    }

    fn forest_item(param: &Element) -> Result<ITree, String> {
        let elems: Vec<&Element> = param.child_elements().collect();
        match elems.as_slice() {
            [one] => ITree::from_xml(one),
            [] => {
                let t = param.text_content();
                if t.is_empty() {
                    Err("empty param".to_owned())
                } else {
                    Ok(ITree::text(&t))
                }
            }
            _ => Err("param must hold a single tree".to_owned()),
        }
    }
}

/// Character data, comments and PIs: escapes, CDATA, whitespace-only and
/// empty runs.
const TEXTS: &[&str] = &[
    "",
    " ",
    "  \n\t",
    "a",
    " b c ",
    "x &amp; y",
    "&lt;t&gt;",
    "&#65;&#x42;",
    "<![CDATA[ raw <x> & ]]>",
    "<![CDATA[]]>",
    "<![CDATA[  ]]>",
    "<!-- note -->",
    "<!---->",
    "<?pi data?>",
    "<?t?>",
];

/// Element names: plain, prefixed, and the `int` wrappers outside a call
/// (plain elements there), unprefixed names that a default `INT_NS`
/// declaration turns into wrappers.
const LABELS: &[&str] = &[
    "a",
    "title",
    "p:b",
    "int:params",
    "int:param",
    "fun",
    "params",
    "param",
];

/// Namespace declarations, including a default `INT_NS` and a URI that
/// needs unescaping.
const DECLS: &[&str] = &[
    "",
    "",
    " xmlns=\"urn:d\"",
    " xmlns:p=\"urn:other\"",
    " xmlns:p=\"urn:&amp;p\"",
    " xmlns=\"http://www.activexml.com/ns/int\"",
    " note=\"v&lt;\"",
];

/// Start-tag attributes of a call: well-formed, with every optional
/// attribute, and missing `methodName` (absent, or only prefixed).
const FUN_ATTRS: &[&str] = &[
    " methodName=\"F\"",
    " methodName=\"F\"",
    " methodName=\"F\"",
    " methodName=\"G\" endpointURL=\"http://e\"",
    " methodName=\"G&amp;H\" endpointURL=\"http://e\" namespaceURI=\"urn:n\"",
    " endpointURL=\"http://e\"",
    " p:methodName=\"F\"",
    " methodName=\"F\" x=\"1\"",
];

/// Call tags: the usual prefix, another prefix bound to `INT_NS`.
const FUN_TAGS: &[(&str, &str)] = &[
    ("int:fun", ""),
    ("int:fun", ""),
    ("k:fun", " xmlns:k=\"http://www.activexml.com/ns/int\""),
];

fn text() -> impl Strategy<Value = String> {
    select(TEXTS).prop_map(str::to_owned)
}

fn element(label: &str, decl: &str, children: &[String]) -> String {
    if children.is_empty() {
        return format!("<{label}{decl}/>");
    }
    format!("<{label}{decl}>{}</{label}>", children.concat())
}

/// An `int:fun` with its content drawn from `inner`: well-formed params,
/// and every malformed shape (stray elements and text between wrappers,
/// a param outside `int:params`, empty and overfull params).
fn fun(inner: BoxedStrategy<String>) -> impl Strategy<Value = String> {
    let param = prop::collection::vec(inner.clone(), 1..3)
        .prop_map(|kids| element("int:param", "", &kids))
        .boxed();
    let params_item = prop_oneof![
        param.clone(),
        param.clone(),
        param.clone(),
        Just("<int:param/>".to_owned()),
        Just("<x/>".to_owned()),
        text(),
    ];
    let params = prop::collection::vec(params_item, 0..3)
        .prop_map(|items| element("int:params", "", &items))
        .boxed();
    let body_item = prop_oneof![
        params.clone(),
        params.clone(),
        params,
        text(),
        Just("<y/>".to_owned()),
        param,
    ];
    (
        select(FUN_TAGS),
        select(FUN_ATTRS),
        prop::collection::vec(body_item, 0..3),
    )
        .prop_map(|((tag, decl), attrs, body)| element(tag, &format!("{decl}{attrs}"), &body))
}

/// One content node: text, a data element, or a call.
fn node() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        text(),
        text(),
        select(LABELS).prop_map(|l| format!("<{l}/>")),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (
                select(LABELS),
                select(DECLS),
                prop::collection::vec(inner.clone(), 0..4)
            )
                .prop_map(|(l, d, kids)| element(l, d, &kids)),
            (
                select(LABELS),
                select(DECLS),
                prop::collection::vec(inner.clone(), 0..4)
            )
                .prop_map(|(l, d, kids)| element(l, d, &kids)),
            fun(inner),
        ]
    })
}

const ROOT_DECLS: &str = " xmlns:int=\"http://www.activexml.com/ns/int\" xmlns:p=\"urn:p\"";

/// A whole document: an optional prolog, then a data root or a call root.
fn document() -> impl Strategy<Value = String> {
    (
        select(&[
            "",
            "<?xml version=\"1.0\"?>",
            "<!-- head -->\n",
            "<?style x?> ",
        ]),
        0u32..8,
        prop::collection::vec(node(), 0..5),
    )
        .prop_map(|(prolog, root, kids)| {
            let body = match root {
                0..=5 => element("r", ROOT_DECLS, &kids),
                6 => format!(
                    "<int:fun{ROOT_DECLS} methodName=\"R\"><int:params><int:param>{}\
                     </int:param></int:params></int:fun>",
                    kids.concat()
                ),
                _ => element("int:fun", ROOT_DECLS, &kids),
            };
            format!("{prolog}{body}\n")
        })
}

/// Leaves `text` as it is, truncates it, or inserts a fragment that may
/// break it, at a drawn position.
fn corrupt(text: String, how: u32, at: usize) -> String {
    const INSERTS: &[&str] = &["<", "&", "</x>", "<a b=1>", "&bogus;", "x:y", "]]>"];
    let mut at = if text.is_empty() { 0 } else { at % text.len() };
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    match how {
        0..=15 => text,
        16 => text[..at].to_owned(),
        n => {
            let insert = INSERTS[n as usize % INSERTS.len()];
            format!("{}{insert}{}", &text[..at], &text[at..])
        }
    }
}

fn corrupted(s: impl Strategy<Value = String>) -> impl Strategy<Value = String> {
    (s, 0u32..24, 0usize..4096).prop_map(|(t, how, at)| corrupt(t, how, at))
}

#[test]
fn itree_parse_matches_dom_oracle() {
    axml_support::prop::run(
        "one_pass_itree",
        &ProptestConfig::with_cases(2048),
        corrupted(document()),
        |text| {
            prop_assert_eq!(ITree::parse(&text), tree_oracle(&text), "on {}", text);
            Ok(())
        },
    );
}

/// Fault children: the fields, duplicates, nested elements and a `detail`
/// with every `retryable` shape.
fn fault_body() -> impl Strategy<Value = String> {
    let field_text = prop::collection::vec(
        prop_oneof![text(), text(), Just("<i>inner</i>".to_owned())],
        0..3,
    );
    let retryable = select(&[
        "<retryable>true</retryable>",
        "<retryable> true <!--c--></retryable>",
        "<retryable>tr<!--c-->ue</retryable>",
        "<retryable>false</retryable>",
        "<retryable/>",
        "<other/>",
    ]);
    let item = prop_oneof![
        (
            select(&["faultcode", "faultstring", "p:faultcode"]),
            field_text
        )
            .prop_map(|(l, kids)| element(l, "", &kids)),
        prop::collection::vec(retryable.prop_map(str::to_owned), 0..3)
            .prop_map(|kids| element("detail", "", &kids)),
        Just("<x/>".to_owned()),
        text(),
    ];
    prop::collection::vec(item, 0..5).prop_map(|items| element("soap:Fault", "", &items))
}

/// Call children: params over generated content, other elements, text.
fn call_body() -> impl Strategy<Value = String> {
    let item = prop_oneof![
        prop::collection::vec(node(), 0..3).prop_map(|kids| element("param", "", &kids)),
        prop::collection::vec(node(), 0..3).prop_map(|kids| element("param", "", &kids)),
        prop::collection::vec(node(), 0..2).prop_map(|kids| element("other", "", &kids)),
        text(),
    ];
    (
        select(&[
            ("call", " method=\"m\""),
            ("call", " method=\"a&amp;b\""),
            ("call", ""),
            ("call", " p:method=\"m\""),
            ("x:call", " xmlns:x=\"urn:x\" method=\"m\""),
        ]),
        prop::collection::vec(item, 0..4),
    )
        .prop_map(|((tag, attrs), items)| element(tag, attrs, &items))
}

/// What a Body's first element can be.
fn body_content() -> impl Strategy<Value = String> {
    prop_oneof![
        call_body(),
        call_body(),
        prop::collection::vec(node(), 0..4).prop_map(|kids| element("result", "", &kids)),
        prop::collection::vec(node(), 0..4).prop_map(|kids| element("result", "", &kids)),
        fault_body(),
        select(&["<Fault/>", "<other><param>p</param></other>", "<p:result/>"])
            .prop_map(str::to_owned),
    ]
}

/// Real envelopes from the writers, with and without `detail`.
fn written_envelope() -> impl Strategy<Value = String> {
    (0u32..5, select(&["Client", "Server.Busy", " x & y "])).prop_map(|(kind, code)| {
        let paper = axml::schema::newspaper_example();
        let forest = [ITree::text("doc0"), paper.clone()];
        match kind {
            0 => soap::request("axml.receive", &forest).to_xml(),
            1 => soap::response(paper.children()).to_xml(),
            2 => soap::response(&[]).to_xml(),
            3 => soap::fault(code, "type mismatch").to_xml(),
            _ => soap::fault_envelope(&Fault::new(code, "queue full").retryable()).to_xml(),
        }
    })
}

/// An envelope around `content`: foreign elements before the Body, a
/// second Body after it, trailing Body children, and the broken shapes
/// (no Body, empty Body, a root that is not a SOAP envelope).
fn envelope() -> impl Strategy<Value = String> {
    let before = select(&[
        "",
        "",
        " \n",
        "<!-- c -->",
        "<soap:Header><h/></soap:Header>",
        "<x><soap:Body><call method=\"hidden\"/></soap:Body></x>",
        "<p:Body/>",
    ]);
    let after = select(&["", "", "<soap:Body><result/></soap:Body>", "<z/>", "text"]);
    let trailing = select(&["", "", "<result>ignored</result>", "<!-- t -->"]);
    let shaped = (before, body_content(), trailing, after, 0u32..10)
        .prop_map(|(before, content, trailing, after, shape)| {
            let decl = format!(" xmlns:soap=\"{SOAP_NS}\"{ROOT_DECLS}");
            let body = match shape {
                0 => String::new(),
                1 => "<soap:Body/>".to_owned(),
                2 => "<soap:Body> <!-- only --> </soap:Body>".to_owned(),
                _ => format!("<soap:Body>{content}{trailing}</soap:Body>"),
            };
            let root = match shape {
                3 => "Envelope",
                4 => "p:Envelope",
                _ => "soap:Envelope",
            };
            format!("<{root}{decl}>{before}{body}{after}</{root}>")
        })
        .boxed();
    prop_oneof![written_envelope(), shaped.clone(), shaped.clone(), shaped]
}

#[test]
fn soap_decode_matches_element_oracle() {
    axml_support::prop::run(
        "one_pass_soap",
        &ProptestConfig::with_cases(2048),
        corrupted(envelope()),
        |text| {
            prop_assert_eq!(soap::decode(&text), soap_oracle(&text), "on {}", text);
            Ok(())
        },
    );
}

/// Pinned cases: the decode-error orders the DOM decoder reports, which
/// the one-pass builder reproduces by draining after an error.
#[test]
fn pinned_error_orders_match() {
    let int = format!(" xmlns:int=\"{INT_NS}\"");
    let docs = [
        // The first of two elements in a param fails to decode: the
        // DOM decoder counts the elements first.
        format!(
            "<r{int}><int:fun methodName=\"f\"><int:params><int:param><int:fun/><b/>\
             </int:param></int:params></int:fun></r>"
        ),
        // The same, one parameter further in: the outer param wins.
        format!(
            "<r{int}><int:fun methodName=\"f\"><int:params><int:param><w><int:fun \
             methodName=\"g\"><int:params><int:param/></int:params></int:fun></w><b/>\
             </int:param></int:params></int:fun></r>"
        ),
        // A decode error followed by an XML error: the XML error wins.
        format!("<r{int}><int:fun/><a></r>"),
        // An XML error after the root closed.
        format!("<r{int}><int:fun/></r><r/>"),
        // Text-only params concatenate runs across comments.
        format!(
            "<r{int}><int:fun methodName=\"f\"><int:params><int:param> a<!--c--> \
             <!--d-->b </int:param></int:params></int:fun></r>"
        ),
    ];
    for d in &docs {
        assert_eq!(ITree::parse(d), tree_oracle(d), "on {d}");
    }
    let soap_ns = format!(" xmlns:soap=\"{SOAP_NS}\"");
    let envelopes = [
        format!(
            "<soap:Envelope{soap_ns}><soap:Body><call method=\"m\"><param>\
             <int:fun xmlns:int=\"{INT_NS}\"/><b/></param></call></soap:Body></soap:Envelope>"
        ),
        format!("<soap:Envelope{soap_ns}><soap:Body><bogus/></soap:Body></soap:Envelope><x/>"),
        format!("<soap:Envelope{soap_ns}><x/></soap:Envelope>"),
    ];
    for e in &envelopes {
        assert_eq!(soap::decode(e), soap_oracle(e), "on {e}");
    }
}
