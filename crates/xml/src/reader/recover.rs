//! Fault and recovery policy (never reached under `Strict`): the fault log,
//! the dispatcher that repairs or contains a parse error, and the *skims* —
//! the byte-level scans that discard damaged input.
//!
//! A skim can cover any number of constructs (a whole skipped subtree), so
//! it is explicit parser state rather than a loop: it consumes what is
//! buffered, keeps its place across "need more", and so costs linear work
//! at any chunking.

use super::framing::{terminator_end, Input, TagScan};
use super::{Parser, State};
use crate::error::{Position, Result, XmlError};
use crate::recover::{Fault, FaultAction, FaultKind, RecoveryPolicy};
use crate::scan::memchr;

/// Recording stops (with one final catch-all fault) after this many faults,
/// so a pathological stream cannot exhaust memory via the fault log.
const FAULT_CAP: usize = 4096;

/// A discard-scan in progress.
#[derive(Debug)]
pub(super) enum Skim {
    /// Discard at least one byte, then everything before the next `<`.
    Resync { progressed: bool },
    /// Discard the rest of the input, then end the document.
    Rest,
    /// Discard the remainder of one open element (`depth` 1 at entry),
    /// understanding quoted attribute values, comments, CDATA sections and
    /// processing instructions well enough not to miscount `<`/`>`.
    Subtree { depth: usize, at: At },
}

/// Where inside the skipped subtree's markup the skim stands.
#[derive(Debug)]
pub(super) enum At {
    /// In character data, looking for the next `<`.
    Text,
    /// Just past a `<`.
    Lt,
    /// Just past `<!`.
    Bang,
    /// Inside a close tag.
    Close,
    /// Inside an open tag.
    Tag(TagScan),
    /// Inside a comment, CDATA section, PI or other `<!…>` construct.
    Until { term: &'static [u8], matched: usize },
}

impl Parser {
    pub(super) fn record_fault(
        &mut self,
        kind: FaultKind,
        position: Position,
        action: FaultAction,
        detail: String,
        event_from: u64,
        event_to: u64,
    ) {
        if self.faults.len() == FAULT_CAP {
            // One final catch-all entry: everything from here on is treated
            // as damaged, so the quarantine stays sound without an
            // unbounded log.
            self.faults.push(Fault {
                kind: FaultKind::Garbage,
                position,
                action: FaultAction::Dropped,
                detail: format!("fault log capped at {FAULT_CAP}; rest of stream quarantined"),
                event_from: self.emitted,
                event_to: u64::MAX,
            });
        }
        if self.faults.len() > FAULT_CAP {
            return;
        }
        self.faults.push(Fault {
            kind,
            position,
            action,
            detail,
            event_from,
            event_to,
        });
    }

    /// Central fault dispatcher: repair or contain `err`, queueing any
    /// synthesized closes and starting any skim. Errors returned from here
    /// are terminal.
    pub(super) fn recover(&mut self, err: XmlError) -> Result<()> {
        let position = err.position().unwrap_or(self.bytes.position);
        match err {
            XmlError::UnexpectedEof { .. } => self.truncate(position, "unexpected end of input"),
            // A failing transport is indistinguishable from truncation
            // for the consumer: salvage what was already determined.
            XmlError::Io(msg) => self.truncate(position, &format!("I/O failure ({msg})")),
            XmlError::EmptyDocument => {
                // Recovery-mode reading of an empty/whitespace prefix: treat
                // as a truncated document so the stream still closes.
                self.record_fault(
                    FaultKind::Truncated,
                    position,
                    FaultAction::SynthesizedCloses,
                    "no root element before end of input".to_string(),
                    self.emitted,
                    u64::MAX,
                );
                self.closes.document = true;
                self.state = State::Done;
            }
            XmlError::TrailingContent { .. } => self.drop_trailing(position),
            XmlError::Syntax { message, .. } => match self.state {
                State::Content
                    if self.policy == RecoveryPolicy::SkipSubtree && !self.stack.is_empty() =>
                {
                    self.skip_enclosing_subtree(position, &message)
                }
                State::Content | State::Prolog => self.resync_garbage(position, &message),
                State::Epilog => self.drop_trailing(position),
                // Fresh/Boundary/Done never produce syntax errors.
                _ => return Err(XmlError::Syntax { message, position }),
            },
            // Mismatched closes and bad entities are repaired inline before
            // they become errors; reaching here is impossible in recovery
            // mode, but stay conservative.
            other => return Err(other),
        }
        Ok(())
    }

    /// End-of-input (or transport failure) with elements still open:
    /// synthesize closes for the whole stack plus `EndDocument`.
    fn truncate(&mut self, position: Position, why: &str) {
        let open = self.stack.len();
        self.record_fault(
            FaultKind::Truncated,
            position,
            FaultAction::SynthesizedCloses,
            format!("{why}: synthesized {open} close(s) for open elements"),
            self.emitted,
            u64::MAX,
        );
        while self.close_innermost().is_some() {}
        self.closes.document = true;
        self.state = State::Done;
    }

    /// Discard input bytes up to the next `<` (or EOF) and continue parsing
    /// in place. Guaranteed to make progress.
    fn resync_garbage(&mut self, position: Position, what: &str) {
        self.record_fault(
            FaultKind::Garbage,
            position,
            FaultAction::Dropped,
            format!("{what}; skipped to next `<`"),
            self.emitted,
            self.emitted,
        );
        self.skim = Some(Skim::Resync { progressed: false });
    }

    /// `SkipSubtree`: close the smallest enclosing element early, then skim
    /// the raw bytes until its real close tag, so sibling subtrees stay
    /// evaluable.
    fn skip_enclosing_subtree(&mut self, position: Position, what: &str) {
        let Some(name) = self.stack.last() else {
            return self.resync_garbage(position, what);
        };
        let detail = format!("{what}; skipped the rest of <{name}>");
        let open_tick = self.close_innermost().unwrap_or(0);
        self.record_fault(
            FaultKind::Garbage,
            position,
            FaultAction::SkippedSubtree,
            detail,
            open_tick,
            self.emitted,
        );
        if self.stack.is_empty() {
            self.state = State::Epilog;
        }
        self.skim = Some(Skim::Subtree {
            depth: 1,
            at: At::Text,
        });
    }

    /// Content after the root element: report it, then (single-document
    /// mode) discard the rest of the input, or (multi-document mode) resync
    /// to the next `<` so later documents survive.
    fn drop_trailing(&mut self, position: Position) {
        self.record_fault(
            FaultKind::TrailingContent,
            position,
            FaultAction::Dropped,
            "dropped content after the root element".to_string(),
            // The root element's fragment is suspect: a damaged close may
            // have ended it early (see DESIGN.md §10).
            self.root_open_tick,
            self.emitted,
        );
        self.skim = Some(if self.multi {
            Skim::Resync { progressed: false }
        } else {
            Skim::Rest
        });
    }

    /// Advance the skim in progress over the buffered bytes. Returns
    /// `false` when it needs more input; `true` once it is finished (at its
    /// target, or at the end of input — which the next parse step then
    /// reports).
    pub(super) fn run_skim(&mut self) -> bool {
        let Some(mut skim) = self.skim.take() else {
            return true;
        };
        let finished = match &mut skim {
            Skim::Resync { progressed } => {
                let rest = self.bytes.rest();
                let from = usize::from(!*progressed && !rest.is_empty());
                let stop = memchr(b'<', &rest[from..]).map(|i| i + from);
                *progressed |= !rest.is_empty();
                self.bytes.consume_bulk(stop.unwrap_or(rest.len()));
                stop.is_some()
            }
            Skim::Rest => {
                let n = self.bytes.rest().len();
                self.bytes.consume_bulk(n);
                false
            }
            Skim::Subtree { depth, at } => loop {
                let rest = self.bytes.rest();
                let Some(&first) = rest.first() else {
                    break false;
                };
                // How many bytes this step discards, and what follows them;
                // `None` discards everything buffered and keeps the state.
                let step = match at {
                    At::Text => memchr(b'<', rest).map(|i| (i + 1, At::Lt)),
                    At::Lt => Some(match first {
                        b'/' => (0, At::Close),
                        b'!' => (1, At::Bang),
                        b'?' => (1, until(b"?>")),
                        _ => (0, At::Tag(TagScan::default())),
                    }),
                    At::Bang => Some(match first {
                        b'-' => (0, until(b"-->")),
                        b'[' => (0, until(b"]]>")),
                        _ => (0, until(b">")),
                    }),
                    At::Close => memchr(b'>', rest).map(|i| {
                        *depth -= 1;
                        (i + 1, At::Text)
                    }),
                    At::Tag(tag) => tag.end(rest, false).map(|n| {
                        // A trailing `/` means self-closing: depth unchanged.
                        if tag.prev != b'/' {
                            *depth += 1;
                        }
                        (n, At::Text)
                    }),
                    At::Until { term, matched } => {
                        terminator_end(term, matched, rest).map(|n| (n, At::Text))
                    }
                };
                match step {
                    Some((n, next)) => {
                        self.bytes.consume_bulk(n);
                        *at = next;
                        if *depth == 0 {
                            break true;
                        }
                    }
                    None => {
                        let n = rest.len();
                        self.bytes.consume_bulk(n);
                    }
                }
            },
        };
        if !finished {
            match &self.bytes.input {
                Input::Open => {
                    self.skim = Some(skim);
                    return false;
                }
                // Transport failure while skimming a subtree: the stream is
                // truncated. The skipped element's close is already queued.
                Input::Failed(msg) if matches!(skim, Skim::Subtree { .. }) => {
                    let why = format!("I/O failure ({})", XmlError::Io(msg.clone()));
                    self.truncate(self.bytes.position, &why);
                }
                _ => {}
            }
            if matches!(skim, Skim::Rest) {
                self.closes.document = true;
                self.state = State::Done;
            }
        }
        self.bytes.construct_done();
        true
    }
}

fn until(term: &'static [u8]) -> At {
    At::Until { term, matched: 0 }
}
