//! The direct tree and envelope writers equal the `Element` serializer.
//!
//! The sender writes every document and envelope straight from the
//! `ITree` (`ITree::write_xml`, `soap::request(..).to_xml()`), and takes
//! trees in their normal form (`ITree::normalize`) instead of
//! serializing and re-parsing them. This suite pins all three to the
//! `Element` route they replace:
//!
//! * `write_xml` equals `element_to_string(to_xml, compact)` byte for
//!   byte, over random trees with escapes in text and attributes, empty
//!   text, bare text roots and calls with endpoint, namespace and text
//!   parameters;
//! * `normalize` equals decoding the parsed compact text, errors included,
//!   and borrows exactly when the tree is already normal;
//! * every envelope constructor equals the same envelope built as an
//!   `Element` (the oracle below, kept only here).

use axml::schema::{FuncNode, ITree};
use axml::services::soap::{self, Fault, SOAP_NS};
use axml::xml::{element_to_string, parse_document, Element, Node, WriteOptions};
use axml_support::prelude::*;
use std::borrow::Cow;

/// Texts with every escape, padding, whitespace-only and empty runs.
fn text_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("  ".to_owned()),
        Just(" padded\n".to_owned()),
        Just("a & b".to_owned()),
        Just("x<y>z".to_owned()),
        Just("q\"uo'te".to_owned()),
        "[a-z]{1,6}".prop_map(|s| s),
    ]
}

/// Attribute values that need escaping, or none.
fn attr_strategy() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some("http://www.forecast.com/soap".to_owned())),
        Just(Some("urn:a?x=1&y=\"2\"&z='<3>'".to_owned())),
        Just(Some(String::new())),
    ]
}

fn itree_strategy() -> impl Strategy<Value = ITree> {
    let leaf = prop_oneof![
        text_strategy().prop_map(ITree::Text),
        "[a-z]{1,6}".prop_map(|l| ITree::elem(&l, vec![])),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            ("[a-z]{1,6}", prop::collection::vec(inner.clone(), 0..4))
                .prop_map(|(l, cs)| ITree::elem(&l, cs)),
            (
                prop_oneof![
                    "[A-Z][a-z_]{0,5}".prop_map(|s| s),
                    Just("Get&<\"Temp\">".to_owned())
                ],
                attr_strategy(),
                attr_strategy(),
                prop::collection::vec(inner, 0..3),
            )
                .prop_map(|(name, endpoint, namespace, params)| {
                    ITree::Func(FuncNode {
                        name,
                        endpoint,
                        namespace,
                        params,
                    })
                }),
        ]
    })
}

fn compact(e: &Element) -> String {
    element_to_string(e, &WriteOptions::compact())
}

fn written(t: &ITree) -> String {
    let mut out = String::new();
    t.write_xml(&mut out);
    out
}

/// What decoding the compact text of `t` gives back.
fn reparsed(t: &ITree) -> Result<ITree, String> {
    let doc = parse_document(&compact(&t.to_xml())).map_err(|e| e.to_string())?;
    ITree::from_xml(&doc.root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `write_xml` writes the bytes the `Element` route writes, for any
    /// root kind.
    #[test]
    fn write_xml_matches_element_serializer(t in itree_strategy()) {
        prop_assert_eq!(written(&t), compact(&t.to_xml()));
        let doc = ITree::elem("root", vec![t]);
        prop_assert_eq!(written(&doc), compact(&doc.to_xml()));
    }

    /// `normalize` is the XML round trip, errors included, and borrows
    /// exactly when the round trip changes nothing.
    #[test]
    fn normalize_matches_xml_round_trip(t in itree_strategy()) {
        for tree in [ITree::elem("root", vec![t.clone()]), t] {
            let expected = reparsed(&tree);
            match tree.normalize() {
                Ok(n) => {
                    let expected = expected.expect("the round trip decodes too");
                    prop_assert_eq!(matches!(n, Cow::Borrowed(_)), expected == tree);
                    prop_assert_eq!(n.into_owned(), expected);
                }
                Err(e) => prop_assert_eq!(Err(e), expected),
            }
        }
    }

    /// Every envelope constructor writes what the `Element` oracle
    /// writes, over owned and borrowed parameters.
    #[test]
    fn envelopes_match_element_oracle(
        forest in prop::collection::vec(itree_strategy(), 0..4),
        method in prop_oneof!["[a-z]{1,6}".prop_map(|s| s), Just("m&<\"'>".to_owned())],
        code in text_strategy(),
        message in text_strategy(),
    ) {
        prop_assert_eq!(
            soap::request(&method, &forest).to_xml(),
            compact(&oracle::request(&method, &forest))
        );
        let borrowed: Vec<&ITree> = forest.iter().collect();
        prop_assert_eq!(
            soap::request(&method, &borrowed).to_xml(),
            compact(&oracle::request(&method, &forest))
        );
        prop_assert_eq!(
            soap::response(&forest).to_xml(),
            compact(&oracle::response(&forest))
        );
        prop_assert_eq!(
            soap::fault(&code, &message).to_xml(),
            compact(&oracle::fault_envelope(&Fault::new(code.clone(), message.clone())))
        );
        let f = Fault::new(code, message).retryable();
        prop_assert_eq!(
            soap::fault_envelope(&f).to_xml(),
            compact(&oracle::fault_envelope(&f))
        );
    }
}

/// Pinned shapes the strategies reach only by chance.
#[test]
fn writer_pinned_shapes() {
    for t in [
        ITree::text(""),
        ITree::text("a<b"),
        ITree::elem("e", vec![ITree::text("")]),
        ITree::elem("e", vec![ITree::text("a"), ITree::text("b")]),
        ITree::func("F", vec![]),
        ITree::func("F", vec![ITree::text("")]),
        ITree::func("F", vec![ITree::func("G", vec![ITree::text("x")])]),
        axml::schema::newspaper_example(),
    ] {
        assert_eq!(written(&t), compact(&t.to_xml()), "{t}");
        assert_eq!(t.normalize().map(Cow::into_owned), reparsed(&t), "{t}");
    }
    assert_eq!(
        ITree::func("F", vec![ITree::text("  ")]).normalize(),
        Err("empty int:param".to_owned())
    );
    assert_eq!(
        soap::request::<ITree>("m", &[]).to_xml(),
        compact(&oracle::request("m", &[]))
    );
}

/// The envelopes as the `Element` builder made them before the direct
/// writer: the reference the writer is checked against.
mod oracle {
    use super::*;

    fn envelope(body_content: Element) -> Element {
        Element::with_ns("soap", "Envelope", SOAP_NS)
            .xmlns("soap", SOAP_NS)
            .child(Element::with_ns("soap", "Body", SOAP_NS).child(body_content))
    }

    fn push_tree(parent: &mut Element, tree: &ITree) {
        match tree {
            ITree::Text(t) => parent.children.push(Node::Text(t.clone())),
            other => parent.children.push(Node::Element(other.to_xml())),
        }
    }

    pub fn request(method: &str, params: &[ITree]) -> Element {
        let mut call = Element::new("call").attr("method", method);
        for p in params {
            let mut param = Element::new("param");
            push_tree(&mut param, p);
            call.children.push(Node::Element(param));
        }
        envelope(call)
    }

    pub fn response(result: &[ITree]) -> Element {
        let mut res = Element::new("result");
        for t in result {
            push_tree(&mut res, t);
        }
        envelope(res)
    }

    pub fn fault_envelope(f: &Fault) -> Element {
        let mut el = Element::with_ns("soap", "Fault", SOAP_NS)
            .child(Element::new("faultcode").text(&f.code))
            .child(Element::new("faultstring").text(&f.message));
        if f.retryable {
            el = el.child(Element::new("detail").child(Element::new("retryable").text("true")));
        }
        envelope(el)
    }
}
