//! Streaming validation: check conformance while parsing, without
//! materializing a DOM.
//!
//! The validator runs one content-model DFA per open element (and one
//! input-type DFA per open `int:fun`), advancing on child events — the
//! same single pass a SAX-based implementation of the paper's module makes
//! (the authors' own parser was SAX-based, Sec. 7).

use crate::compile::{Compiled, CompiledContent};
use crate::def::SchemaError;
use crate::doc::INT_NS;
use axml_automata::Dfa;
use axml_xml::{Event, Reader};

enum Frame<'c> {
    /// Inside an element with a regular content model.
    Model {
        label: String,
        dfa: &'c Dfa,
        state: u32,
    },
    /// Inside an atomic (`data`) element: text children only.
    Data { label: String },
    /// Inside wildcard content: everything below is accepted.
    Skip { depth: usize },
    /// Inside an `int:fun` element: runs the input-type DFA over params.
    Fun {
        name: String,
        dfa: &'c Dfa,
        state: u32,
    },
    /// Inside `int:params`.
    Params,
    /// Inside one `int:param` (exactly one tree allowed).
    Param { seen: bool },
}

/// Validates the XML text of an intensional document against `compiled`
/// in a single streaming pass.
pub fn validate_xml_stream(text: &str, compiled: &Compiled) -> Result<(), SchemaError> {
    let mut reader = Reader::new(text);
    let mut v = StreamValidator::new(compiled);
    loop {
        let event = reader.next_event().map_err(|e| SchemaError::Malformed {
            message: e.message,
            line: e.line,
            offset: e.offset,
        })?;
        if !v.feed(&event)? {
            return Ok(());
        }
    }
}

/// Incremental validator; feed it pull-parser events.
pub struct StreamValidator<'c> {
    compiled: &'c Compiled,
    stack: Vec<Frame<'c>>,
}

impl<'c> StreamValidator<'c> {
    /// Creates a validator over a compiled schema.
    pub fn new(compiled: &'c Compiled) -> Self {
        StreamValidator {
            compiled,
            stack: Vec::new(),
        }
    }

    fn invalid(message: impl Into<String>) -> SchemaError {
        SchemaError::Invalid {
            message: message.into(),
        }
    }

    /// Advances the innermost word consumer by one symbol.
    fn consume_symbol(&mut self, sym: axml_automata::Symbol) -> Result<(), SchemaError> {
        match self.stack.last_mut() {
            None => Ok(()), // the root itself is not part of any word
            Some(Frame::Skip { .. }) => Ok(()),
            Some(Frame::Model { label, dfa, state }) => {
                let next = dfa.next(*state, sym);
                if next == axml_automata::NO_STATE {
                    return Err(Self::invalid(format!(
                        "unexpected '{}' in content of '{label}'",
                        self.compiled.alphabet().name(sym)
                    )));
                }
                *state = next;
                Ok(())
            }
            Some(Frame::Data { label }) => Err(Self::invalid(format!(
                "'{label}' is atomic but has structured children"
            ))),
            Some(Frame::Fun { name, .. }) => Err(Self::invalid(format!(
                "only int:params is allowed directly inside the call to '{name}'"
            ))),
            Some(Frame::Params) => {
                Err(Self::invalid("only int:param is allowed inside int:params"))
            }
            Some(Frame::Param { seen }) => {
                if *seen {
                    return Err(Self::invalid("int:param must hold a single tree"));
                }
                *seen = true;
                // The symbol belongs to the enclosing function's input word.
                let fun_pos = self
                    .stack
                    .iter()
                    .rposition(|f| matches!(f, Frame::Fun { .. }))
                    .ok_or_else(|| Self::invalid("int:param outside int:fun"))?;
                if let Frame::Fun { name, dfa, state } = &mut self.stack[fun_pos] {
                    let next = dfa.next(*state, sym);
                    if next == axml_automata::NO_STATE {
                        return Err(Self::invalid(format!(
                            "parameters of '{name}' do not match its input type"
                        )));
                    }
                    *state = next;
                }
                Ok(())
            }
        }
    }

    /// Processes one event; returns `false` once the document is complete
    /// and valid.
    pub fn feed(&mut self, event: &Event) -> Result<bool, SchemaError> {
        match event {
            Event::StartElement {
                name, attributes, ..
            } => {
                // The reader emits a synthetic EndElement after
                // self-closing tags, so frames are always pushed here and
                // always popped there.
                // Inside wildcard content everything is accepted.
                if let Some(Frame::Skip { depth }) = self.stack.last_mut() {
                    *depth += 1;
                    return Ok(true);
                }
                if name.matches(INT_NS, "fun") {
                    let method = attributes
                        .iter()
                        .find(|a| a.name.local == "methodName")
                        .map(|a| a.value.to_string())
                        .ok_or_else(|| Self::invalid("int:fun without methodName"))?;
                    let sym = self.compiled.classify_func(&method);
                    self.consume_symbol(sym)?;
                    let sig = self
                        .compiled
                        .sig(sym)
                        .expect("function symbols carry signatures");
                    self.stack.push(Frame::Fun {
                        name: method,
                        dfa: &sig.input_dfa,
                        state: sig.input_dfa.start,
                    });
                    return Ok(true);
                }
                if name.matches(INT_NS, "params") {
                    if !matches!(self.stack.last(), Some(Frame::Fun { .. })) {
                        return Err(Self::invalid("int:params outside int:fun"));
                    }
                    self.stack.push(Frame::Params);
                    return Ok(true);
                }
                if name.matches(INT_NS, "param") {
                    if !matches!(self.stack.last(), Some(Frame::Params)) {
                        return Err(Self::invalid("int:param outside int:params"));
                    }
                    self.stack.push(Frame::Param { seen: false });
                    return Ok(true);
                }
                // An ordinary element.
                let sym = self.compiled.classify_label(name.local);
                self.consume_symbol(sym)?;
                let content = self
                    .compiled
                    .content(sym)
                    .ok_or_else(|| Self::invalid(format!("unknown element '{}'", name.local)))?;
                let frame = match content {
                    CompiledContent::Data => Frame::Data {
                        label: name.local.to_owned(),
                    },
                    CompiledContent::Any => Frame::Skip { depth: 0 },
                    CompiledContent::Model { dfa, .. } => Frame::Model {
                        label: name.local.to_owned(),
                        dfa,
                        state: dfa.start,
                    },
                };
                self.stack.push(frame);
                Ok(true)
            }
            Event::EndElement { .. } => {
                match self.stack.last_mut() {
                    Some(Frame::Skip { depth }) if *depth > 0 => {
                        *depth -= 1;
                        return Ok(true);
                    }
                    _ => {}
                }
                let frame = self
                    .stack
                    .pop()
                    .ok_or_else(|| Self::invalid("unbalanced end element"))?;
                match frame {
                    Frame::Model { label, dfa, state } => {
                        if !dfa.finals[state as usize] {
                            return Err(Self::invalid(format!(
                                "children of '{label}' stop before the content model is satisfied"
                            )));
                        }
                    }
                    Frame::Fun { name, dfa, state } => {
                        if !dfa.finals[state as usize] {
                            return Err(Self::invalid(format!(
                                "parameters of '{name}' stop before the input type is satisfied"
                            )));
                        }
                    }
                    Frame::Param { seen } => {
                        if !seen {
                            return Err(Self::invalid("empty int:param"));
                        }
                    }
                    Frame::Data { .. } | Frame::Skip { .. } | Frame::Params => {}
                }
                Ok(!self.stack.is_empty())
            }
            Event::Text(t) => {
                if t.trim().is_empty() {
                    return Ok(true);
                }
                match self.stack.last_mut() {
                    Some(Frame::Data { .. }) | Some(Frame::Skip { .. }) | None => Ok(true),
                    Some(Frame::Param { .. }) | Some(Frame::Model { .. }) => {
                        let data = self.compiled.data_sym();
                        self.consume_symbol(data)?;
                        Ok(true)
                    }
                    Some(Frame::Fun { .. }) | Some(Frame::Params) => Err(Self::invalid(
                        "text is not allowed between int:fun wrappers",
                    )),
                }
            }
            Event::Comment(_) | Event::Pi { .. } => Ok(true),
            Event::Eof => {
                if self.stack.is_empty() {
                    Ok(false)
                } else {
                    Err(Self::invalid("document ended with open elements"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{NoOracle, Schema};
    use crate::doc::newspaper_example;
    use crate::generate::{generate_instance, GenConfig};
    use crate::validate::validate;
    use axml_support::rng::SeedableRng;

    fn paper_compiled() -> Compiled {
        Compiled::new(
            Schema::builder()
                .element("newspaper", "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
                .data_element("title")
                .data_element("date")
                .data_element("temp")
                .data_element("city")
                .element("exhibit", "title.(Get_Date|date)")
                .data_element("performance")
                .function("Get_Temp", "city", "temp")
                .function("TimeOut", "data", "(exhibit|performance)*")
                .function("Get_Date", "title", "date")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap()
    }

    #[test]
    fn streams_the_paper_document() {
        let c = paper_compiled();
        let xml = newspaper_example().to_xml().to_pretty_xml();
        validate_xml_stream(&xml, &c).unwrap();
    }

    #[test]
    fn agrees_with_dom_validation_on_random_instances() {
        let c = paper_compiled();
        let mut rng = axml_support::rng::StdRng::seed_from_u64(77);
        for _ in 0..100 {
            let doc = generate_instance(&c, "newspaper", &mut rng, &GenConfig::default()).unwrap();
            let xml = doc.to_xml().to_pretty_xml();
            assert!(validate(&doc, &c).is_ok());
            validate_xml_stream(&xml, &c)
                .unwrap_or_else(|e| panic!("stream rejected valid doc {doc}: {e}"));
        }
    }

    #[test]
    fn rejects_what_dom_validation_rejects() {
        let c = paper_compiled();
        // Wrong order.
        let bad = "<newspaper><date>d</date><title>t</title><temp>1</temp></newspaper>";
        assert!(validate_xml_stream(bad, &c).is_err());
        // Missing mandatory children.
        assert!(validate_xml_stream("<newspaper><title>t</title></newspaper>", &c).is_err());
        // Unknown element.
        assert!(validate_xml_stream("<mystery/>", &c).is_err());
        // Structured children under data element.
        assert!(validate_xml_stream("<newspaper><title><b>t</b></title></newspaper>", &c).is_err());
        // Empty element whose model demands content.
        assert!(validate_xml_stream("<newspaper/>", &c).is_err());
    }

    #[test]
    fn validates_function_parameters_in_stream() {
        let c = paper_compiled();
        // Get_Temp with a date parameter instead of city.
        let bad = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
            <title>t</title><date>d</date>
            <int:fun methodName="Get_Temp">
              <int:params><int:param><date>x</date></int:param></int:params>
            </int:fun>
            <int:fun methodName="TimeOut">
              <int:params><int:param>all</int:param></int:params>
            </int:fun>
        </newspaper>"#;
        let err = validate_xml_stream(bad, &c).unwrap_err();
        assert!(err.to_string().contains("Get_Temp"), "{err}");
        // Same but correct city parameter.
        let good = bad.replace("<date>x</date>", "<city>Paris</city>");
        validate_xml_stream(&good, &c).unwrap();
    }

    #[test]
    fn malformed_intensional_markup_rejected() {
        let c = paper_compiled();
        let no_method = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
            <title>t</title><date>d</date><int:fun/></newspaper>"#;
        assert!(validate_xml_stream(no_method, &c).is_err());
        let stray_param = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
            <title>t</title><date>d</date><temp>1</temp>
            <int:param><city>x</city></int:param></newspaper>"#;
        assert!(validate_xml_stream(stray_param, &c).is_err());
        let two_trees = r#"<newspaper xmlns:int="http://www.activexml.com/ns/int">
            <title>t</title><date>d</date>
            <int:fun methodName="Get_Temp">
              <int:params><int:param><city>a</city><city>b</city></int:param></int:params>
            </int:fun><temp>u</temp></newspaper>"#;
        assert!(validate_xml_stream(two_trees, &c).is_err());
    }

    #[test]
    fn wildcard_subtrees_skipped() {
        let c = Compiled::new(
            Schema::builder()
                .element("r", "blob.a")
                .any_element("blob")
                .data_element("a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let xml = "<r><blob><x><y>deep</y></x><z/></blob><a>1</a></r>";
        validate_xml_stream(xml, &c).unwrap();
        // The wildcard does not leak: 'a' is still required after blob.
        assert!(validate_xml_stream("<r><blob><x/></blob></r>", &c).is_err());
    }
}
