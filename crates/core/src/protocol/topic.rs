//! Normative parser and formatter for the topic grammar.
//!
//! `docs/WIRE_FORMAT.md` §5 specifies the grammar every envelope topic must
//! obey:
//!
//! ```text
//! topic          := ctl-topic | [session-prefix] step
//! ctl-topic      := "ctl/" name                    (reserved control plane)
//! session-prefix := "s" decimal-session-id "/"
//! step           := "clustering-choice" | "published-result"
//!                 | "local/" attr "/" site
//!                 | "categorical/" attr
//!                 | "numeric/" attr "/" pair "/" numeric-kind
//!                 | "alphanumeric/" attr "/" pair "/" alpha-kind
//! ```
//!
//! This module is the executable form of that grammar: [`Topic::parse`]
//! accepts exactly the well-formed topics (canonical decimals, no leading
//! zeros, non-empty attributes) and [`Topic`]'s `Display` renders the
//! canonical string, so `parse ∘ format` and `format ∘ parse` are both
//! identities — a property the grammar proptests pin.
//!
//! Attribute names may contain `/`; like the machines' own dispatch, the
//! parser therefore consumes fixed components from the **right** so the
//! attribute keeps whatever remains in the middle.
//!
//! Every topic the program sends carries its `s{id}/` prefix: a session
//! context renders it from its session id, and a machine refuses a topic
//! that is not under its own session's prefix. The parser still reads a
//! bare step (`id: None`) because `ppcbench`'s seam test classifies one;
//! ROADMAP's *Next benchmark change* drops that form from both.
//!
//! The per-party machines keep their historical inline dispatch (their
//! byte-level behaviour is pinned by the golden trace); the engines route
//! by [`Topic::session_prefix_id`], and the grammar tests hold both to the
//! same specification.

use std::fmt;

use crate::error::CoreError;

/// The four kinds of numeric pair-protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericKind {
    /// `DH_J → DH_K` masked column / copies.
    Masked,
    /// `DH_J → DH_K` masked window (chunked per-pair mode).
    MaskedChunk,
    /// `DH_K → TP` whole comparison matrix.
    Pairwise,
    /// `DH_K → TP` comparison-row window.
    PairwiseChunk,
}

impl NumericKind {
    fn as_str(self) -> &'static str {
        match self {
            NumericKind::Masked => "masked",
            NumericKind::MaskedChunk => "masked-chunk",
            NumericKind::Pairwise => "pairwise",
            NumericKind::PairwiseChunk => "pairwise-chunk",
        }
    }
}

/// The three kinds of alphanumeric pair-protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlphaKind {
    /// `DH_J → DH_K` masked strings.
    Masked,
    /// `DH_K → TP` whole CCM bundle.
    Ccms,
    /// `DH_K → TP` CCM bundle window.
    CcmsChunk,
}

impl AlphaKind {
    fn as_str(self) -> &'static str {
        match self {
            AlphaKind::Masked => "masked",
            AlphaKind::Ccms => "ccms",
            AlphaKind::CcmsChunk => "ccms-chunk",
        }
    }
}

/// One protocol step (a topic with the optional session prefix stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `clustering-choice` (`DH_i → TP`).
    ClusteringChoice,
    /// `published-result` (`TP → DH_i`).
    PublishedResult,
    /// `local/{attr}/{site}` (`DH_i → TP`).
    Local {
        /// Attribute name (may contain `/`).
        attribute: String,
        /// Originating site.
        site: u32,
    },
    /// `categorical/{attr}` (`DH_i → TP`).
    Categorical {
        /// Attribute name (may contain `/`).
        attribute: String,
    },
    /// `numeric/{attr}/{j}-{k}/{kind}`.
    Numeric {
        /// Attribute name (may contain `/`).
        attribute: String,
        /// Initiating site `j`.
        initiator: u32,
        /// Responding site `k`.
        responder: u32,
        /// Message kind.
        kind: NumericKind,
    },
    /// `alphanumeric/{attr}/{j}-{k}/{kind}`.
    Alphanumeric {
        /// Attribute name (may contain `/`).
        attribute: String,
        /// Initiating site `j`.
        initiator: u32,
        /// Responding site `k`.
        responder: u32,
        /// Message kind.
        kind: AlphaKind,
    },
}

/// A fully parsed topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topic {
    /// `ctl/{name}` — the reserved control plane.
    Control {
        /// Everything after the `ctl/` prefix (non-empty).
        name: String,
    },
    /// A protocol step, optionally `s{id}/`-prefixed.
    Session {
        /// The multiplexing session id, if prefixed.
        id: Option<u64>,
        /// The step.
        step: Step,
    },
}

/// Parses a canonical decimal (digits only, no leading zeros, in range).
fn parse_decimal<T>(s: &str, what: &str) -> Result<T, CoreError>
where
    T: std::str::FromStr,
{
    let malformed = || CoreError::Protocol(format!("malformed {what} '{s}' in topic"));
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(malformed());
    }
    if s.len() > 1 && s.starts_with('0') {
        return Err(CoreError::Protocol(format!(
            "non-canonical {what} '{s}' in topic (leading zero)"
        )));
    }
    s.parse().map_err(|_| malformed())
}

fn non_empty<'a>(attr: &'a str, step: &str) -> Result<&'a str, CoreError> {
    if attr.is_empty() {
        Err(CoreError::Protocol(format!(
            "empty attribute name in '{step}' topic"
        )))
    } else {
        Ok(attr)
    }
}

/// Splits `{attr}/{j}-{k}/{kind}` from the right.
fn split_pair<'a>(rest: &'a str, step: &str) -> Result<(&'a str, u32, u32, &'a str), CoreError> {
    let malformed = || CoreError::Protocol(format!("malformed '{step}' topic '{rest}'"));
    let (rest, kind) = rest.rsplit_once('/').ok_or_else(malformed)?;
    let (attr, tag) = rest.rsplit_once('/').ok_or_else(malformed)?;
    let (j, k) = tag.split_once('-').ok_or_else(malformed)?;
    Ok((
        non_empty(attr, step)?,
        parse_decimal(j, "initiator site")?,
        parse_decimal(k, "responder site")?,
        kind,
    ))
}

impl Topic {
    /// Parses a topic string, rejecting anything outside the grammar.
    pub fn parse(topic: &str) -> Result<Topic, CoreError> {
        if let Some(name) = topic.strip_prefix("ctl/") {
            if name.is_empty() {
                return Err(CoreError::Protocol("empty control topic name".into()));
            }
            return Ok(Topic::Control {
                name: name.to_string(),
            });
        }
        // `s{id}/` prefix: only taken when 's' is followed by digits and a
        // slash — no step keyword matches that shape, so this is
        // unambiguous.
        let (id, step) = match topic.strip_prefix('s') {
            Some(rest)
                if rest.split_once('/').is_some_and(|(d, _)| {
                    !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit())
                }) =>
            {
                let (digits, rest) = rest.split_once('/').expect("checked above");
                (Some(parse_decimal(digits, "session id")?), rest)
            }
            _ => (None, topic),
        };
        Ok(Topic::Session {
            id,
            step: Self::parse_step(step)?,
        })
    }

    fn parse_step(step: &str) -> Result<Step, CoreError> {
        match step {
            "clustering-choice" => return Ok(Step::ClusteringChoice),
            "published-result" => return Ok(Step::PublishedResult),
            _ => {}
        }
        if let Some(rest) = step.strip_prefix("local/") {
            let (attr, site) = rest
                .rsplit_once('/')
                .ok_or_else(|| CoreError::Protocol(format!("malformed 'local' topic '{rest}'")))?;
            return Ok(Step::Local {
                attribute: non_empty(attr, "local")?.to_string(),
                site: parse_decimal(site, "site")?,
            });
        }
        if let Some(rest) = step.strip_prefix("categorical/") {
            return Ok(Step::Categorical {
                attribute: non_empty(rest, "categorical")?.to_string(),
            });
        }
        if let Some(rest) = step.strip_prefix("numeric/") {
            let (attr, initiator, responder, kind) = split_pair(rest, "numeric")?;
            let kind = match kind {
                "masked" => NumericKind::Masked,
                "masked-chunk" => NumericKind::MaskedChunk,
                "pairwise" => NumericKind::Pairwise,
                "pairwise-chunk" => NumericKind::PairwiseChunk,
                other => {
                    return Err(CoreError::Protocol(format!(
                        "unknown numeric topic kind '{other}'"
                    )))
                }
            };
            return Ok(Step::Numeric {
                attribute: attr.to_string(),
                initiator,
                responder,
                kind,
            });
        }
        if let Some(rest) = step.strip_prefix("alphanumeric/") {
            let (attr, initiator, responder, kind) = split_pair(rest, "alphanumeric")?;
            let kind = match kind {
                "masked" => AlphaKind::Masked,
                "ccms" => AlphaKind::Ccms,
                "ccms-chunk" => AlphaKind::CcmsChunk,
                other => {
                    return Err(CoreError::Protocol(format!(
                        "unknown alphanumeric topic kind '{other}'"
                    )))
                }
            };
            return Ok(Step::Alphanumeric {
                attribute: attr.to_string(),
                initiator,
                responder,
                kind,
            });
        }
        Err(CoreError::Protocol(format!(
            "topic step '{step}' matches no production of the grammar"
        )))
    }

    /// The session id a topic is multiplexed under: `Some(id)` for
    /// `s{id}/`-prefixed steps, `None` for bare steps and control topics.
    pub fn session_id(&self) -> Option<u64> {
        match self {
            Topic::Session { id, .. } => *id,
            Topic::Control { .. } => None,
        }
    }

    /// Allocation-free extraction of the canonical `s{id}/` prefix, for
    /// hot routing paths that only need the session id: agrees with
    /// `Topic::parse(topic)?.session_id()` on every well-formed topic
    /// (property-tested) without constructing the step.
    pub fn session_prefix_id(topic: &str) -> Option<u64> {
        let rest = topic.strip_prefix('s')?;
        let (digits, _) = rest.split_once('/')?;
        if digits.is_empty()
            || !digits.bytes().all(|b| b.is_ascii_digit())
            || (digits.len() > 1 && digits.starts_with('0'))
        {
            return None;
        }
        digits.parse().ok()
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::ClusteringChoice => f.write_str("clustering-choice"),
            Step::PublishedResult => f.write_str("published-result"),
            Step::Local { attribute, site } => write!(f, "local/{attribute}/{site}"),
            Step::Categorical { attribute } => write!(f, "categorical/{attribute}"),
            Step::Numeric {
                attribute,
                initiator,
                responder,
                kind,
            } => write!(
                f,
                "numeric/{attribute}/{initiator}-{responder}/{}",
                kind.as_str()
            ),
            Step::Alphanumeric {
                attribute,
                initiator,
                responder,
                kind,
            } => write!(
                f,
                "alphanumeric/{attribute}/{initiator}-{responder}/{}",
                kind.as_str()
            ),
        }
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topic::Control { name } => write!(f, "ctl/{name}"),
            Topic::Session { id: Some(id), step } => write!(f, "s{id}/{step}"),
            Topic::Session { id: None, step } => step.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) -> Topic {
        let parsed = Topic::parse(s).unwrap_or_else(|e| panic!("'{s}' must parse: {e}"));
        assert_eq!(parsed.to_string(), s, "canonical re-rendering of '{s}'");
        parsed
    }

    #[test]
    fn every_production_roundtrips() {
        roundtrip("clustering-choice");
        roundtrip("published-result");
        roundtrip("local/age/0");
        roundtrip("categorical/blood");
        roundtrip("numeric/age/0-1/masked");
        roundtrip("numeric/age/2-11/masked-chunk");
        roundtrip("numeric/age/0-1/pairwise");
        roundtrip("numeric/age/0-1/pairwise-chunk");
        roundtrip("alphanumeric/dna/1-2/masked");
        roundtrip("alphanumeric/dna/1-2/ccms");
        roundtrip("alphanumeric/dna/1-2/ccms-chunk");
        roundtrip("s0/clustering-choice");
        roundtrip("s42/numeric/age/0-1/masked");
        roundtrip("ctl/announce");
        roundtrip("ctl/ready");
        roundtrip("ctl/done");
    }

    #[test]
    fn attributes_may_contain_slashes() {
        let t = roundtrip("numeric/vitals/bp/systolic/3-4/pairwise");
        match t {
            Topic::Session {
                id: None,
                step:
                    Step::Numeric {
                        attribute,
                        initiator,
                        responder,
                        kind,
                    },
            } => {
                assert_eq!(attribute, "vitals/bp/systolic");
                assert_eq!((initiator, responder), (3, 4));
                assert_eq!(kind, NumericKind::Pairwise);
            }
            other => panic!("unexpected parse {other:?}"),
        }
        let t = roundtrip("s7/local/a/b/9");
        match t {
            Topic::Session {
                id: Some(7),
                step: Step::Local { attribute, site },
            } => {
                assert_eq!(attribute, "a/b");
                assert_eq!(site, 9);
            }
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn malformed_topics_are_rejected() {
        for bad in [
            "",
            "unknown",
            "ctl/",
            "clustering-choice/extra",
            "published-result/0",
            "local/age",
            "local//0",
            "local/age/x",
            "local/age/007",
            "categorical/",
            "numeric/age/0-1/bogus",
            "numeric/age/01-1/masked",
            "numeric/age/0_1/masked",
            "numeric//0-1/masked",
            "numeric/age/0-1",
            "alphanumeric/dna/1-2/pairwise",
            "alphanumeric/dna/1/ccms",
            "s/clustering-choice",
            "s01/clustering-choice",
            "s1/ctl/announce",
            "s1/",
            "s1/unknown",
            "s18446744073709551616/clustering-choice",
        ] {
            assert!(Topic::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn session_prefix_never_shadows_a_step() {
        // A step starting with a literal 's' but no digit/slash shape is a
        // plain (unknown) step, not a session prefix.
        assert!(Topic::parse("session/age/0").is_err());
        // 's' followed by digits and a slash is always a prefix.
        match Topic::parse("s9/categorical/x").unwrap() {
            Topic::Session { id: Some(9), .. } => {}
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn session_id_helper() {
        assert_eq!(
            Topic::parse("s5/published-result").unwrap().session_id(),
            Some(5)
        );
        assert_eq!(Topic::parse("published-result").unwrap().session_id(), None);
        assert_eq!(Topic::parse("ctl/ready").unwrap().session_id(), None);
    }
}
