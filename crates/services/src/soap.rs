//! SOAP-style envelopes for peer-to-peer exchange.
//!
//! All exchanges between Active XML peers and with other Web-service
//! providers/consumers use SOAP (Sec. 7). This module provides the minimal
//! envelope subset the system needs: request envelopes carrying a method
//! name and intensional parameters, response envelopes carrying an
//! intensional result forest, and fault envelopes.

use axml_schema::{ITree, TreeBuilder};
use axml_xml::{escape_attr, escape_text, Attr, Event, Name, Reader, XmlError};
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

/// Decodes an envelope from its XML text in one pass over reader events:
/// Envelope, its first Body, the Body's first child, then the call
/// parameters, the result forest or the fault fields, each tree built by
/// a [`TreeBuilder`] with no DOM in between. Everything else is skipped
/// unread, but an XML error anywhere in the text wins over a decode error.
pub fn decode(text: &str) -> Result<Message, String> {
    let mut reader = Reader::new(text);
    let decoded = envelope(&mut reader).map_err(|e| e.to_string())?;
    loop {
        if let Event::Eof = reader.next_event().map_err(|e| e.to_string())? {
            return decoded;
        }
    }
}

/// A decode verdict; the outer `Result` of the walkers below carries the
/// reader's error, which wins.
type Decoded<T> = Result<T, String>;

fn envelope(r: &mut Reader<'_>) -> Result<Decoded<Message>, XmlError> {
    let root = loop {
        match r.next_event()? {
            Event::StartElement { name, .. } => break name,
            Event::Eof => return Ok(Err("document has no root element".to_owned())),
            _ => {}
        }
    };
    if !root.matches(SOAP_NS, "Envelope") {
        return Ok(Err(format!("not a SOAP envelope: <{root}>")));
    }
    loop {
        match r.next_event()? {
            Event::StartElement { name, .. } if name.matches(SOAP_NS, "Body") => return body(r),
            Event::StartElement { .. } => skip(r)?,
            Event::EndElement { .. } | Event::Eof => {
                return Ok(Err("envelope has no Body".to_owned()))
            }
            _ => {}
        }
    }
}

fn body(r: &mut Reader<'_>) -> Result<Decoded<Message>, XmlError> {
    loop {
        match r.next_event()? {
            Event::StartElement {
                name, attributes, ..
            } => return content(r, name, &attributes),
            Event::EndElement { .. } | Event::Eof => return Ok(Err("empty Body".to_owned())),
            _ => {}
        }
    }
}

fn content<'a>(
    r: &mut Reader<'a>,
    name: Name<'a>,
    attributes: &[Attr<'a>],
) -> Result<Decoded<Message>, XmlError> {
    if name.matches(SOAP_NS, "Fault") {
        return fault_fields(r).map(|f| Ok(Message::Fault(f)));
    }
    match name.local {
        "call" => {
            let Some(method) = attributes
                .iter()
                .find(|a| a.name.prefix.is_empty() && a.name.local == "method")
            else {
                return Ok(Err("call without method".to_owned()));
            };
            let method = method.value.to_string();
            let mut params = Vec::new();
            loop {
                match r.next_event()? {
                    Event::StartElement { name, .. } if name.local == "param" => {
                        let param =
                            TreeBuilder::param("empty param", "param must hold a single tree");
                        match forest(r, param)? {
                            Ok(p) => params.extend(p),
                            Err(e) => return Ok(Err(e)),
                        }
                    }
                    Event::StartElement { .. } => skip(r)?,
                    Event::EndElement { .. } | Event::Eof => {
                        return Ok(Ok(Message::Request { method, params }))
                    }
                    _ => {}
                }
            }
        }
        "result" => {
            Ok(forest(r, TreeBuilder::content())?.map(|result| Message::Response { result }))
        }
        other => Ok(Err(format!("unsupported body element <{other}>"))),
    }
}

/// Feeds `builder` the rest of the element just opened.
fn forest<'a>(
    r: &mut Reader<'a>,
    mut builder: TreeBuilder<'a>,
) -> Result<Decoded<Vec<ITree>>, XmlError> {
    loop {
        match r.next_event()? {
            Event::Eof => break,
            ev => {
                if builder.feed(ev) {
                    break;
                }
            }
        }
    }
    Ok(builder.finish())
}

/// The fields of a `soap:Fault`: the first `faultcode` and `faultstring`,
/// and `retryable` from the first `detail`.
fn fault_fields(r: &mut Reader<'_>) -> Result<Fault, XmlError> {
    let (mut code, mut message, mut retryable) = (None, None, None);
    loop {
        match r.next_event()? {
            Event::StartElement { name, .. } => match name.local {
                "faultcode" if code.is_none() => code = Some(text_content(r)?),
                "faultstring" if message.is_none() => message = Some(text_content(r)?),
                "detail" if retryable.is_none() => retryable = Some(detail(r)?),
                _ => skip(r)?,
            },
            Event::EndElement { .. } | Event::Eof => break,
            _ => {}
        }
    }
    Ok(Fault {
        code: code.unwrap_or_default(),
        message: message.unwrap_or_default(),
        retryable: retryable.unwrap_or(false),
    })
}

/// Whether the first `retryable` in a `detail` says `true`.
fn detail(r: &mut Reader<'_>) -> Result<bool, XmlError> {
    let mut retryable = None;
    loop {
        match r.next_event()? {
            Event::StartElement { name, .. }
                if name.local == "retryable" && retryable.is_none() =>
            {
                retryable = Some(text_content(r)? == "true");
            }
            Event::StartElement { .. } => skip(r)?,
            Event::EndElement { .. } | Event::Eof => return Ok(retryable.unwrap_or(false)),
            _ => {}
        }
    }
}

/// The trimmed direct text of the element just opened, merged the way
/// the DOM merges text nodes (a whitespace-only run that does not follow
/// text is dropped; child elements, comments and PIs break a run).
fn text_content(r: &mut Reader<'_>) -> Result<String, XmlError> {
    let mut text = String::new();
    let mut in_run = false;
    loop {
        match r.next_event()? {
            Event::Text(t) => {
                if in_run || !t.trim().is_empty() {
                    text.push_str(&t);
                    in_run = true;
                }
            }
            Event::StartElement { .. } => {
                skip(r)?;
                in_run = false;
            }
            Event::Comment(_) | Event::Pi { .. } => in_run = false,
            Event::EndElement { .. } | Event::Eof => return Ok(text.trim().to_owned()),
        }
    }
}

/// Skips the rest of the element just opened.
fn skip(r: &mut Reader<'_>) -> Result<(), XmlError> {
    let mut depth = 0usize;
    loop {
        match r.next_event()? {
            Event::StartElement { .. } => depth += 1,
            Event::EndElement { .. } if depth > 0 => depth -= 1,
            Event::EndElement { .. } | Event::Eof => return Ok(()),
            _ => {}
        }
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
        let no_body = format!("<soap:Envelope xmlns:soap=\"{SOAP_NS}\"/>");
        assert_eq!(decode(&no_body).unwrap_err(), "envelope has no Body");
    }
}
