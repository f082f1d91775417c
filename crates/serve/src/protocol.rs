//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every message is one JSON value on one line (externally tagged, the
//! serde default), so the protocol is trivially inspectable with `nc` and
//! resilient to partial failure: a malformed line produces a typed
//! [`ProtocolError`], an [`Response::Error`] reply, and nothing else — the
//! connection stays up and no shard state is touched.
//!
//! Producer flow (`dbcatcher emit`):
//!
//! ```text
//! → Hello{unit, dbs, kpis, participation}     ← HelloAck{unit, next_tick, resumed}
//! → Tick{unit, tick, frame}                   ← Accepted{unit, tick}
//! → Tick{unit, tick, frame}   (queue full)    ← Rejected{unit, tick, expected, retry_after_ms, reason}
//!                                             ← Verdict{unit, at_tick, verdict}   (async)
//! → Flush{unit}                               ← FlushAck{unit, ticks_ingested, verdicts, next_tick}
//! ```
//!
//! Consumer flow: `Subscribe` switches the connection into a verdict
//! stream (`Subscribed`, then `Verdict` messages for every unit). `Stats`
//! returns one [`crate::metrics::MetricsSnapshot`]. `Stop` asks the
//! daemon to shut down cleanly.
//!
//! Ticks are *absolute* and must arrive in order per unit: the server
//! tracks the next expected tick and rejects anything else
//! (`reason: "out-of-order"`, carrying the expected tick so the client can
//! rewind). Backpressure is the same shape: a full ingress queue rejects
//! with `reason: "backpressure"` and a retry hint — ingress memory never
//! grows without bound.
//!
//! Non-finite samples survive the wire: JSON has no NaN, so the serde shim
//! writes `null` and reads it back as `f64::NAN`, which the ingest layer's
//! gap repair then handles exactly as in the offline path.
//!
//! ## The direct codec
//!
//! The per-tick messages never pass through a `serde::Value` tree.
//! [`WireMessage::encode_into`] writes `Request::Tick` and the `Accepted`,
//! `Rejected` and `Verdict` replies straight into a caller-owned `String`
//! (the connection writer thread reuses one line buffer), byte-identical
//! to `serde_json::to_string`; every other message takes that generic
//! path. [`decode_request`] reads a canonical `Tick` line in one pass,
//! converting the common sample shape exactly without the generic number
//! parser, and hands every other line to the generic decoder, which is
//! also the oracle the direct reader is tested against.

use dbcatcher_core::pipeline::Verdict;
use dbcatcher_core::wire::{write_f64_array, write_u64, write_unit_verdict};
use dbcatcher_hierarchy::ScopeVerdict;
use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;

/// Hard cap on one wire line, bounding per-connection memory. A frame of
/// 64 databases x 64 KPIs is ~100 KiB of JSON; 1 MiB leaves generous room.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Registers (or re-attaches to) one unit stream. Must precede any
    /// `Tick` for that unit on any connection.
    Hello {
        /// Unit id, `< max_units` of the server.
        unit: usize,
        /// Databases in the unit.
        dbs: usize,
        /// KPIs per database.
        kpis: usize,
        /// Optional Table II participation mask, `mask[kpi][db]`.
        participation: Option<Vec<Vec<bool>>>,
    },
    /// One monitoring frame (`frame[db][kpi]`) for an absolute tick.
    Tick {
        /// Unit id.
        unit: usize,
        /// Absolute tick index; must equal the server's expected tick.
        tick: u64,
        /// The KPI frame.
        frame: Vec<Vec<f64>>,
    },
    /// Barrier: the reply arrives only after every tick enqueued for the
    /// unit so far has been processed (and its verdicts sent).
    Flush {
        /// Unit id.
        unit: usize,
    },
    /// Turns this connection into a verdict-stream consumer.
    Subscribe,
    /// Requests one metrics snapshot.
    Stats,
    /// Operator override: clears a hard-degraded unit back onto
    /// probation so a repaired producer can resume streaming.
    ResetUnit {
        /// Unit id.
        unit: usize,
    },
    /// Asks the daemon to shut down cleanly.
    Stop,
}

/// Why a `Tick` was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The unit's bounded ingress queue is full; retry after the hint.
    Backpressure,
    /// The tick is not the next expected one; resend from `expected`.
    OutOfOrder,
    /// The unit's detector rejected an earlier frame and stopped.
    Degraded,
    /// No `Hello` has registered this unit yet.
    UnknownUnit,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Hello` acknowledgement.
    HelloAck {
        /// Unit id.
        unit: usize,
        /// Next tick the server expects (0 for a fresh unit, the
        /// snapshot's next tick after a warm restart).
        next_tick: u64,
        /// Whether the unit state was restored from a snapshot.
        resumed: bool,
    },
    /// The tick was enqueued.
    Accepted {
        /// Unit id.
        unit: usize,
        /// The enqueued tick.
        tick: u64,
    },
    /// The tick was dropped; the client must resend it (and everything
    /// after it) starting at `expected`.
    Rejected {
        /// Unit id.
        unit: usize,
        /// The rejected tick.
        tick: u64,
        /// Next tick the server will accept.
        expected: u64,
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
        /// Why the tick was dropped.
        reason: RejectReason,
    },
    /// A verdict became final.
    Verdict {
        /// Unit id.
        unit: usize,
        /// Tick whose ingestion resolved the verdict (the offline
        /// emission order is `(unit, at_tick, db, start_tick)`).
        at_tick: u64,
        /// The unit-local verdict.
        verdict: Verdict,
    },
    /// `Flush` acknowledgement: everything enqueued before it was
    /// processed.
    FlushAck {
        /// Unit id.
        unit: usize,
        /// Ticks ingested for the unit so far.
        ticks_ingested: u64,
        /// Verdicts emitted for the unit so far.
        verdicts: u64,
        /// Next tick the detector expects. Lets producers detect ticks
        /// that were accepted but died with a failed worker generation
        /// (never reaching the WAL) and resend the tail — the flush
        /// barrier is an end-to-end position check, not just a drain.
        next_tick: u64,
    },
    /// A fleet-scope alarm transition from the hierarchy engine
    /// (broadcast to subscribers when the daemon runs with
    /// `--hierarchy`).
    ScopeVerdict(ScopeVerdict),
    /// `Subscribe` acknowledgement; `Verdict` messages follow.
    Subscribed,
    /// `ResetUnit` acknowledgement: the unit accepts ticks again (on
    /// probation until it earns back full health).
    ResetAck {
        /// Unit id.
        unit: usize,
        /// Next tick the server expects from the producer.
        next_tick: u64,
    },
    /// One metrics snapshot.
    Stats(MetricsSnapshot),
    /// `Stop` acknowledgement; the daemon is shutting down.
    Stopping,
    /// Protocol-level failure (malformed line, bad arity, unknown unit…).
    /// The connection survives; no shard state was touched.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// A typed wire-decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The line exceeds [`MAX_LINE_BYTES`].
    Oversized {
        /// Cap that was exceeded.
        max: usize,
    },
    /// The line is not valid JSON for the expected message type.
    Malformed {
        /// Parser diagnostic.
        detail: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversized { max } => {
                write!(f, "line exceeds the {max}-byte wire limit")
            }
            ProtocolError::Malformed { detail } => write!(f, "malformed message: {detail}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A message with a wire encoding: [`Request`] or [`Response`].
pub trait WireMessage: Serialize {
    /// Appends the message's wire line (no trailing newline) to `out`.
    ///
    /// `Request::Tick` and the `Accepted`, `Rejected` and `Verdict`
    /// replies are written directly; every other message renders through
    /// its `serde::Value` tree. Both give the bytes
    /// `serde_json::to_string` gives, and into a buffer that already has
    /// the room neither allocates.
    fn encode_into(&self, out: &mut String);
}

impl WireMessage for Request {
    fn encode_into(&self, out: &mut String) {
        match self {
            Request::Tick { unit, tick, frame } => {
                let cells: usize = frame.iter().map(Vec::len).sum();
                out.reserve(48 + 24 * cells);
                out.push_str("{\"Tick\":{\"unit\":");
                write_u64(*unit as u64, out);
                out.push_str(",\"tick\":");
                write_u64(*tick, out);
                out.push_str(",\"frame\":[");
                for (i, row) in frame.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_f64_array(row, out);
                }
                out.push_str("]}}");
            }
            other => other.to_value().write_json(out),
        }
    }
}

impl WireMessage for Response {
    fn encode_into(&self, out: &mut String) {
        match self {
            Response::Accepted { unit, tick } => {
                out.reserve(64);
                out.push_str("{\"Accepted\":{\"unit\":");
                write_u64(*unit as u64, out);
                out.push_str(",\"tick\":");
                write_u64(*tick, out);
                out.push_str("}}");
            }
            Response::Rejected {
                unit,
                tick,
                expected,
                retry_after_ms,
                reason,
            } => {
                let reason = match reason {
                    RejectReason::Backpressure => "Backpressure",
                    RejectReason::OutOfOrder => "OutOfOrder",
                    RejectReason::Degraded => "Degraded",
                    RejectReason::UnknownUnit => "UnknownUnit",
                };
                out.reserve(160);
                out.push_str("{\"Rejected\":{\"unit\":");
                write_u64(*unit as u64, out);
                out.push_str(",\"tick\":");
                write_u64(*tick, out);
                out.push_str(",\"expected\":");
                write_u64(*expected, out);
                out.push_str(",\"retry_after_ms\":");
                write_u64(*retry_after_ms, out);
                out.push_str(",\"reason\":\"");
                out.push_str(reason);
                out.push_str("\"}}");
            }
            Response::Verdict {
                unit,
                at_tick,
                verdict,
            } => {
                // Room for the whole line up front, so a fresh buffer
                // allocates once.
                out.reserve(192 + 24 * verdict.scores.len());
                out.push_str("{\"Verdict\":");
                write_unit_verdict(*unit, *at_tick, verdict, out);
                out.push('}');
            }
            other => other.to_value().write_json(out),
        }
    }
}

/// Encodes one message as a wire line (no trailing newline; the writer
/// appends it) in a fresh `String`. A writer that sends many messages
/// reuses one buffer through [`WireMessage::encode_into`] instead.
pub fn encode<M: WireMessage>(message: &M) -> String {
    let mut line = String::new();
    message.encode_into(&mut line);
    line
}

/// Decodes one request line.
///
/// A `Tick` line in the canonical shape [`encode`] writes
/// (`{"Tick":{"unit":…,"tick":…,"frame":[[…],…]}}`, any JSON whitespace
/// between tokens) is read straight into [`Request::Tick`] in one pass:
/// no `Value` tree, no key strings, and `dbs + 1` allocations for the
/// frame, each sized to what was parsed. A sample token of the shape
/// `-?digits.digits` (at most 19 digits, mantissa at most 2^53, at most
/// 22 after the point) is converted exactly as mantissa ÷ 10^fraction
/// (Clinger's fast path: both operands are exact `f64`s, so the one
/// rounding of the division is the correctly rounded value); any other
/// token with a point goes to `str::parse::<f64>` on its bytes, as the
/// shim's `parse_number` would send it. An integer token of at most 18
/// digits reads as `i64` then `f64`, the generic reading (so `-0` is
/// `+0.0`); every other token goes to the shim's `parse_number`. Every
/// other line — other requests, reordered, unknown or duplicate keys,
/// anything malformed — goes through the generic `serde_json` decoder,
/// which therefore also produces every error and is the oracle the
/// direct reader is tested against: both yield the same bits.
///
/// # Errors
/// [`ProtocolError::Oversized`] past [`MAX_LINE_BYTES`],
/// [`ProtocolError::Malformed`] for anything `serde_json` rejects.
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    if line.len() <= MAX_LINE_BYTES {
        if let Some(tick) = TickCursor::new(line.trim_end()).tick() {
            return Ok(tick);
        }
    }
    decode(line)
}

/// Decodes one response line.
///
/// # Errors
/// Same conditions as [`decode_request`].
pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
    decode(line)
}

fn decode<T: Deserialize>(line: &str) -> Result<T, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::Oversized {
            max: MAX_LINE_BYTES,
        });
    }
    serde_json::from_str(line.trim_end()).map_err(|e| ProtocolError::Malformed {
        detail: e.to_string(),
    })
}

/// Samples per frame row the direct `Tick` reader buffers on the stack.
const ROW_STACK: usize = 64;

/// Frame rows the direct `Tick` reader holds on the stack before it
/// allocates the frame at its exact length.
const FRAME_STACK: usize = 64;

/// Digits of a sample token the exact fast path reads; more could
/// overflow the `u64` mantissa.
const FAST_DIGITS: usize = 19;

/// Largest mantissa the fast path converts: every integer up to 2^53 is
/// an exact `f64`.
const FAST_MANTISSA: u64 = 1 << 53;

/// `10^k` for every `k` whose power is an exact `f64` (`5^22 < 2^53`).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Direct reader for the canonical `Tick` line. Every method returns
/// `None` at the first byte off the canonical shape; the caller then
/// falls back to the generic decoder.
struct TickCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TickCursor<'a> {
    fn new(line: &'a str) -> Self {
        Self {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn tick(mut self) -> Option<Request> {
        self.consume(b"{")?;
        self.key(b"\"Tick\"")?;
        self.consume(b"{")?;
        self.key(b"\"unit\"")?;
        let unit = usize::from_value(&self.number()?).ok()?;
        self.consume(b",")?;
        self.key(b"\"tick\"")?;
        let tick = u64::from_value(&self.number()?).ok()?;
        self.consume(b",")?;
        self.key(b"\"frame\"")?;
        let frame = self.frame()?;
        self.consume(b"}")?;
        self.consume(b"}")?;
        self.skip_ws();
        (self.pos == self.bytes.len()).then_some(Request::Tick { unit, tick, frame })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    /// Consumes `token` after optional whitespace.
    fn consume(&mut self, token: &[u8]) -> Option<()> {
        self.skip_ws();
        self.rest()
            .starts_with(token)
            .then(|| self.pos += token.len())
    }

    /// Consumes a `"name":` object key.
    fn key(&mut self, name: &[u8]) -> Option<()> {
        self.consume(name)?;
        self.consume(b":")
    }

    fn number(&mut self) -> Option<serde_json::Value> {
        self.skip_ws();
        serde_json::parse_number(self.bytes, &mut self.pos).ok()
    }

    /// One sample: `null` (NaN) or a number, read to the bits
    /// `f64::from_value` gives for the generic parser's value.
    fn sample(&mut self) -> Option<f64> {
        self.skip_ws();
        let rest = self.rest();
        if rest.starts_with(b"null") {
            self.pos += 4;
            return Some(f64::NAN);
        }
        if let Some((value, len)) = Decimal::scan(rest).and_then(|d| Some((d.value(rest)?, d.len)))
        {
            self.pos += len;
            return Some(value);
        }
        f64::from_value(&self.number()?).ok()
    }

    /// After an element: `,` (more follow) or `]` (done).
    fn more(&mut self) -> Option<bool> {
        self.skip_ws();
        let more = match self.rest().first()? {
            b',' => true,
            b']' => false,
            _ => return None,
        };
        self.pos += 1;
        Some(more)
    }

    fn frame(&mut self) -> Option<Vec<Vec<f64>>> {
        self.consume(b"[")?;
        if self.consume(b"]").is_some() {
            return Some(Vec::new());
        }
        // Rows land on the stack first, so the frame is allocated once at
        // its exact length, and only for rows already parsed; only frames
        // taller than the stack spill.
        let mut stack: [Vec<f64>; FRAME_STACK] = [const { Vec::new() }; FRAME_STACK];
        let mut len = 0;
        let mut tall: Vec<Vec<f64>> = Vec::new();
        loop {
            let row = self.row()?;
            if let Some(slot) = stack.get_mut(len) {
                *slot = row;
            } else {
                if tall.is_empty() {
                    tall.extend(stack.iter_mut().map(std::mem::take));
                }
                tall.push(row);
            }
            len += 1;
            if !self.more()? {
                break;
            }
        }
        if tall.is_empty() {
            let mut frame = Vec::with_capacity(len);
            frame.extend(stack.iter_mut().take(len).map(std::mem::take));
            Some(frame)
        } else {
            Some(tall)
        }
    }

    fn row(&mut self) -> Option<Vec<f64>> {
        self.consume(b"[")?;
        if self.consume(b"]").is_some() {
            return Some(Vec::new());
        }
        // Samples land on the stack first, so the row is allocated once
        // at its exact length; only rows wider than the stack spill.
        let mut stack = [0.0f64; ROW_STACK];
        let mut len = 0;
        let mut wide: Vec<f64> = Vec::new();
        loop {
            let sample = self.sample()?;
            if let Some(slot) = stack.get_mut(len) {
                *slot = sample;
            } else {
                if wide.is_empty() {
                    wide.extend_from_slice(&stack);
                }
                wide.push(sample);
            }
            len += 1;
            if !self.more()? {
                break;
            }
        }
        if wide.is_empty() {
            Some(stack.get(..len)?.to_vec())
        } else {
            Some(wide)
        }
    }
}

/// A sample token of the shape `-?digits(.digits)?`, scanned once.
struct Decimal {
    negative: bool,
    /// The digits as one integer, point ignored; wraps past 19 digits.
    mantissa: u64,
    digits: usize,
    /// Digits after the point; `None` for an integer token.
    fraction: Option<usize>,
    /// Token length in bytes, sign included.
    len: usize,
}

impl Decimal {
    /// Scans the token at the start of `bytes`. `None` unless it has the
    /// shape above and ends where the shim's `parse_number` ends it (a
    /// further `.`, exponent or sign leaves the whole token to that).
    fn scan(bytes: &[u8]) -> Option<Self> {
        let negative = bytes.first() == Some(&b'-');
        let mut len = usize::from(negative);
        let (mut mantissa, mut digits) = digit_run(bytes, &mut len, 0);
        if digits == 0 {
            return None;
        }
        let mut fraction = None;
        if bytes.get(len) == Some(&b'.') {
            len += 1;
            let (whole, after) = digit_run(bytes, &mut len, mantissa);
            if after == 0 {
                return None;
            }
            (mantissa, digits, fraction) = (whole, digits + after, Some(after));
        }
        if matches!(bytes.get(len), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            return None;
        }
        Some(Self {
            negative,
            mantissa,
            digits,
            fraction,
            len,
        })
    }

    /// The token's value, bit-identical to the shim's reading of it;
    /// `None` leaves it to `parse_number`.
    ///
    /// - An integer of at most 18 digits: the shim reads it as an `i64`
    ///   and converts, so this does too (`-0` becomes `+0.0`).
    /// - At most [`FAST_DIGITS`] digits, mantissa at most
    ///   [`FAST_MANTISSA`], at most 22 after the point: mantissa and power
    ///   of ten are exact `f64`s, so the division rounds once, correctly
    ///   (Clinger's fast path) — the bits `str::parse::<f64>` returns.
    /// - Any other token with a point: the shim hands these same bytes to
    ///   `str::parse::<f64>`, so this does.
    fn value(&self, bytes: &[u8]) -> Option<f64> {
        let signed = |magnitude: f64| if self.negative { -magnitude } else { magnitude };
        match self.fraction {
            None if self.digits <= 18 => {
                let magnitude = self.mantissa as i64;
                Some((if self.negative { -magnitude } else { magnitude }) as f64)
            }
            None => None,
            Some(fraction)
                if self.digits <= FAST_DIGITS
                    && self.mantissa <= FAST_MANTISSA
                    && fraction < POW10.len() =>
            {
                Some(signed(self.mantissa as f64 / POW10.get(fraction)?))
            }
            Some(_) => std::str::from_utf8(bytes.get(..self.len)?)
                .ok()?
                .parse()
                .ok(),
        }
    }
}

/// `10^n` for every digit count a word step consumes.
const POW10_INT: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// Reads the run of ASCII digits at `bytes[*pos..]` onto `acc`
/// (wrapping) and advances `pos` past it; returns the new value and the
/// run's length. Eight bytes are examined per step, so a run costs one
/// or two word steps rather than a branch per digit.
fn digit_run(bytes: &[u8], pos: &mut usize, mut acc: u64) -> (u64, usize) {
    let start = *pos;
    while let Some(word) = bytes.get(*pos..).and_then(<[u8]>::first_chunk::<8>) {
        let (value, count) = leading_digits(word);
        let scale = POW10_INT.get(count).copied().unwrap_or_default();
        acc = acc.wrapping_mul(scale).wrapping_add(value);
        *pos += count;
        if count < 8 {
            return (acc, *pos - start);
        }
    }
    // Fewer than eight bytes left in the line.
    while let Some(&b) = bytes.get(*pos).filter(|b| b.is_ascii_digit()) {
        acc = acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        *pos += 1;
    }
    (acc, *pos - start)
}

/// The value and count of the ASCII digits that open `word` (SWAR: one
/// 64-bit word, no per-byte loop).
fn leading_digits(word: &[u8; 8]) -> (u64, usize) {
    let word = u64::from_le_bytes(*word);
    let digits = word.wrapping_sub(0x3030_3030_3030_3030);
    // A byte below `0` borrows into its top bit, one above `9` carries
    // into it once 0x46 is added. Borrows and carries only run upwards,
    // so the lowest flagged byte is the first non-digit exactly.
    let flags = (digits | word.wrapping_add(0x4646_4646_4646_4646)) & 0x8080_8080_8080_8080;
    let count = (flags.trailing_zeros() / 8) as usize;
    // Shift the `count` digits to the top; the bytes shifted in read as
    // leading zeros.
    let digits = digits
        .checked_shl(64 - 8 * count as u32)
        .unwrap_or_default();
    // Byte pairs, then pairs of pairs, then the two halves.
    let pairs = digits.wrapping_mul(10).wrapping_add(digits >> 8);
    let low = (pairs & 0x0000_00ff_0000_00ff).wrapping_mul(100 + (1_000_000 << 32));
    let high = ((pairs >> 16) & 0x0000_00ff_0000_00ff).wrapping_mul(1 + (10_000 << 32));
    (low.wrapping_add(high) >> 32, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_variants_round_trip() {
        for req in [Request::Subscribe, Request::Stats, Request::Stop] {
            let line = encode(&req);
            assert_eq!(decode_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn reset_unit_round_trips() {
        let req = Request::ResetUnit { unit: 7 };
        assert_eq!(decode_request(&encode(&req)).unwrap(), req);
        let ack = Response::ResetAck {
            unit: 7,
            next_tick: 42,
        };
        assert_eq!(decode_response(&encode(&ack)).unwrap(), ack);
    }

    #[test]
    fn tick_round_trips_with_nan() {
        let req = Request::Tick {
            unit: 3,
            tick: 41,
            frame: vec![vec![1.5, f64::NAN], vec![-2.0, f64::INFINITY]],
        };
        let line = encode(&req);
        match decode_request(&line).unwrap() {
            Request::Tick { unit, tick, frame } => {
                assert_eq!((unit, tick), (3, 41));
                assert_eq!(frame[0][0], 1.5);
                assert!(frame[0][1].is_nan(), "NaN must survive as null");
                assert!(frame[1][1].is_nan(), "Inf degrades to null -> NaN");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_lines_yield_typed_errors() {
        for bad in ["", "{", "[1,2", "\"Tick\"", "{\"Tick\":{}}", "null{}"] {
            assert!(
                matches!(decode_request(bad), Err(ProtocolError::Malformed { .. })),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn oversized_line_rejected() {
        let huge = "x".repeat(MAX_LINE_BYTES + 1);
        assert_eq!(
            decode_request(&huge),
            Err(ProtocolError::Oversized {
                max: MAX_LINE_BYTES
            })
        );
    }
}
