//! SOAP-style envelopes for peer-to-peer exchange.
//!
//! All exchanges between Active XML peers and with other Web-service
//! providers/consumers use SOAP (Sec. 7). This module provides the minimal
//! envelope subset the system needs: request envelopes carrying a method
//! name and intensional parameters, response envelopes carrying an
//! intensional result forest, and fault envelopes.

use axml_schema::ITree;
use axml_xml::{escape_attr, escape_text, parse_document, Element, Node};
use std::borrow::Borrow;

/// The SOAP 1.1 envelope namespace.
pub const SOAP_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";

/// A first-class SOAP fault: a dotted code, a human-readable message, and
/// a `retryable` flag telling the caller whether backing off and retrying
/// can help (server busy, timeout) or cannot (type mismatch, unknown
/// service). Wire transports map this 1:1 onto their typed fault frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Fault code (e.g. `Client`, `Server`, `Server.Busy`).
    pub code: String,
    /// Human-readable fault string.
    pub message: String,
    /// Whether retrying (after backoff) can succeed.
    pub retryable: bool,
}

impl Fault {
    /// A non-retryable fault.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> Self {
        Fault {
            code: code.into(),
            message: message.into(),
            retryable: false,
        }
    }

    /// Marks the fault retryable.
    pub fn retryable(mut self) -> Self {
        self.retryable = true;
        self
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SOAP fault [{}{}]: {}",
            self.code,
            if self.retryable { ", retryable" } else { "" },
            self.message
        )
    }
}

/// A decoded SOAP message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A call request: method + parameters.
    Request {
        /// The method (function) name.
        method: String,
        /// Parameter forest.
        params: Vec<ITree>,
    },
    /// A successful response carrying the result forest.
    Response {
        /// The returned trees.
        result: Vec<ITree>,
    },
    /// A fault.
    Fault(Fault),
}

/// An envelope ready to be written. It borrows what it carries, and
/// [`Envelope::to_xml`] writes the envelope text straight from the trees,
/// with no [`Element`] in between.
#[derive(Debug)]
pub enum Envelope<'a, P = ITree> {
    /// A call request: method + parameters.
    Request {
        /// The method (function) name.
        method: &'a str,
        /// Parameter forest.
        params: &'a [P],
    },
    /// A successful response carrying the result forest.
    Response(&'a [ITree]),
    /// A fault; `retryable` travels in the standard SOAP `detail` element
    /// so foreign decoders see a plain 1.1 fault.
    Fault {
        /// Fault code.
        code: &'a str,
        /// Human-readable fault string.
        message: &'a str,
        /// Whether retrying can succeed.
        retryable: bool,
    },
}

/// Builds a request envelope. Parameters may be owned or borrowed trees.
pub fn request<'a, P: Borrow<ITree>>(method: &'a str, params: &'a [P]) -> Envelope<'a, P> {
    Envelope::Request { method, params }
}

/// Builds a response envelope.
pub fn response(result: &[ITree]) -> Envelope<'_> {
    Envelope::Response(result)
}

/// Builds a non-retryable fault envelope (shorthand for
/// [`fault_envelope`] over [`Fault::new`]).
pub fn fault<'a>(code: &'a str, message: &'a str) -> Envelope<'a> {
    Envelope::Fault {
        code,
        message,
        retryable: false,
    }
}

/// Builds a fault envelope.
pub fn fault_envelope(f: &Fault) -> Envelope<'_> {
    Envelope::Fault {
        code: &f.code,
        message: &f.message,
        retryable: f.retryable,
    }
}

impl<P: Borrow<ITree>> Envelope<'_, P> {
    /// The envelope's XML text, in the compact form
    /// [`axml_xml::element_to_string`] gives the same envelope built as
    /// an [`Element`].
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("<soap:Envelope xmlns:soap=\"");
        out.push_str(SOAP_NS);
        out.push_str("\"><soap:Body>");
        match self {
            Envelope::Request { method, params } => {
                out.push_str("<call method=\"");
                out.push_str(&escape_attr(method));
                out.push('"');
                write_forest(&mut out, "call", Some("param"), params);
            }
            Envelope::Response(result) => {
                out.push_str("<result");
                write_forest(&mut out, "result", None, result);
            }
            Envelope::Fault {
                code,
                message,
                retryable,
            } => {
                out.push_str("<soap:Fault><faultcode>");
                out.push_str(&escape_text(code));
                out.push_str("</faultcode><faultstring>");
                out.push_str(&escape_text(message));
                out.push_str("</faultstring>");
                if *retryable {
                    out.push_str("<detail><retryable>true</retryable></detail>");
                }
                out.push_str("</soap:Fault>");
            }
        }
        out.push_str("</soap:Body></soap:Envelope>");
        out
    }
}

/// Closes the open start tag of `outer` and writes `items` as its
/// content, each wrapped in a `wrap` element if one is given; an empty
/// forest collapses the element to `<outer .../>`.
fn write_forest<P: Borrow<ITree>>(out: &mut String, outer: &str, wrap: Option<&str>, items: &[P]) {
    if items.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for item in items {
        match wrap {
            Some(w) => {
                out.push('<');
                out.push_str(w);
                out.push('>');
                item.borrow().write_xml_item(out);
                out.push_str("</");
                out.push_str(w);
                out.push('>');
            }
            None => item.borrow().write_xml_item(out),
        }
    }
    out.push_str("</");
    out.push_str(outer);
    out.push('>');
}

/// Decodes an envelope from its XML text.
pub fn decode(text: &str) -> Result<Message, String> {
    let doc = parse_document(text).map_err(|e| e.to_string())?;
    decode_element(&doc.root)
}

/// Decodes an envelope from a parsed element.
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
                params.push(decode_forest_item(p)?);
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

fn decode_forest_item(param: &Element) -> Result<ITree, String> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let params = vec![
            ITree::data("city", "Paris"),
            ITree::text("verbose"),
            ITree::func("Get_Date", vec![ITree::data("title", "Expo")]),
        ];
        let env = request("Get_Temp", &params);
        let text = env.to_xml();
        match decode(&text).unwrap() {
            Message::Request { method, params: p } => {
                assert_eq!(method, "Get_Temp");
                assert_eq!(p, params);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn response_roundtrip_preserves_intensional_parts() {
        let result = vec![
            ITree::elem("exhibit", vec![ITree::data("title", "Expo")]),
            ITree::func("Get_Exhibits", vec![]),
        ];
        let env = response(&result);
        match decode(&env.to_xml()).unwrap() {
            Message::Response { result: r } => assert_eq!(r, result),
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn fault_roundtrip() {
        let env = fault("Client", "type mismatch in parameters");
        match decode(&env.to_xml()).unwrap() {
            Message::Fault(f) => {
                assert_eq!(f.code, "Client");
                assert!(f.message.contains("type mismatch"));
                assert!(!f.retryable, "plain faults are final");
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn retryable_flag_travels_in_detail() {
        let f = Fault::new("Server.Busy", "queue full").retryable();
        let env = fault_envelope(&f);
        let text = env.to_xml();
        assert!(text.contains("<detail>"));
        match decode(&text).unwrap() {
            Message::Fault(back) => assert_eq!(back, f),
            other => panic!("expected fault, got {other:?}"),
        }
        assert_eq!(
            f.to_string(),
            "SOAP fault [Server.Busy, retryable]: queue full"
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode("<notsoap/>").is_err());
        assert!(decode("not xml at all").is_err());
        let env = Element::with_ns("soap", "Envelope", SOAP_NS).xmlns("soap", SOAP_NS);
        assert!(decode_element(&env).is_err()); // no body
    }
}
