//! Snapshot serialisation for [`KpiQueues`] — cold path, kept out of
//! `queues.rs` so the hot data-processing module stays allocation-free
//! under `dbclint` (`hot-path-alloc` scopes whole files; serialisation
//! legitimately allocates).
//!
//! The retained history is one flat `samples` string: every sample is 16
//! lowercase hex digits of its `f64::to_bits()`, most significant digit
//! first. Samples run series by series (db-major, then KPI), oldest first
//! within a series. Raw bits make the round trip exact for every value,
//! NaN payloads included, and cost one table lookup per byte instead of
//! shortest-round-trip decimal printing. [`Serialize::write_json`] writes
//! that hex straight into the output document.
//!
//! The decoder treats the document as untrusted disk input: the string
//! length must match the declared shape exactly, only `[0-9a-f]` is
//! accepted, and all access goes through iterators, so bad input is a
//! [`DeError`], never a panic.

use crate::queues::KpiQueues;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt::Write as _;

/// Hex digits per encoded sample.
const DIGITS: usize = 16;

/// Samples encoded into one stack buffer before it is appended.
const SAMPLES_PER_PUSH: usize = 64;

/// The lowercase hex digit of the nibble `n`.
const fn hex_digit(n: usize) -> u8 {
    if n < 10 {
        b'0' + n as u8
    } else {
        b'a' + (n - 10) as u8
    }
}

/// The two lowercase hex digits of every byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut slots: &mut [[u8; 2]] = &mut table;
    let mut byte = 0;
    while let [slot, rest @ ..] = slots {
        *slot = [hex_digit(byte >> 4), hex_digit(byte & 0xf)];
        slots = rest;
        byte += 1;
    }
    table
};

/// The 16 lowercase hex digits of `bits`, most significant first, one
/// table lookup per byte.
fn encode_bits(bits: u64) -> [u8; DIGITS] {
    let mut out = [0u8; DIGITS];
    for (pair, byte) in out
        .as_chunks_mut::<2>()
        .0
        .iter_mut()
        .zip(bits.to_be_bytes())
    {
        // A `u8` index is always in the table.
        *pair = HEX_PAIRS
            .get(usize::from(byte))
            .copied()
            .unwrap_or_default();
    }
    out
}

/// Inverse of [`encode_bits`]; `None` on any byte outside `[0-9a-f]`
/// (a leading `+`, which `u64::from_str_radix` would accept, included).
fn decode_bits(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |acc, &b| {
        let nibble = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(nibble))
    })
}

impl KpiQueues {
    /// Appends the `samples` hex of the retained history to `out`.
    fn write_samples(&self, out: &mut String) {
        let retained = self.len.saturating_sub(self.base_tick) as usize;
        let offset = self.base_tick.saturating_sub(self.phys_base) as usize;
        out.reserve(self.num_dbs * self.num_kpis * retained * DIGITS);
        let mut buf = [0u8; SAMPLES_PER_PUSH * DIGITS];
        // Walk the slabs directly: each series' retained span starts at
        // the same physical offset, so no per-series window lookup.
        for slab in self.data.chunks_exact(self.slab()) {
            let span = slab.get(offset..).unwrap_or_default();
            let span = span.get(..retained).unwrap_or(span);
            for group in span.chunks(SAMPLES_PER_PUSH) {
                for (digits, v) in buf.as_chunks_mut::<DIGITS>().0.iter_mut().zip(group) {
                    *digits = encode_bits(v.to_bits());
                }
                // Only ASCII hex digits were written, so the default
                // never applies.
                let text = buf.get(..group.len() * DIGITS).unwrap_or_default();
                out.push_str(std::str::from_utf8(text).unwrap_or_default());
            }
        }
    }
}

impl Serialize for KpiQueues {
    fn to_value(&self) -> Value {
        let mut samples = String::new();
        self.write_samples(&mut samples);
        Value::Object(vec![
            ("num_dbs".to_string(), self.num_dbs.to_value()),
            ("num_kpis".to_string(), self.num_kpis.to_value()),
            ("capacity".to_string(), self.capacity.to_value()),
            ("base_tick".to_string(), self.base_tick.to_value()),
            ("len".to_string(), self.len.to_value()),
            ("samples".to_string(), Value::Str(samples)),
        ])
    }

    /// The bytes of [`Serialize::to_value`]'s document, with the hex
    /// written straight into `out` rather than into a `Value::Str` that
    /// the string writer would then scan for escapes.
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"num_dbs\":{},\"num_kpis\":{},\"capacity\":{},\"base_tick\":{},\"len\":{},\"samples\":\"",
            self.num_dbs, self.num_kpis, self.capacity, self.base_tick, self.len
        );
        self.write_samples(out);
        out.push_str("\"}");
    }
}

impl Deserialize for KpiQueues {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| DeError::new(format!("KpiQueues: missing field `{name}`")))
        };
        let num_dbs = usize::from_value(field("num_dbs")?)?;
        let num_kpis = usize::from_value(field("num_kpis")?)?;
        let capacity = usize::from_value(field("capacity")?)?;
        let base_tick = u64::from_value(field("base_tick")?)?;
        let len = u64::from_value(field("len")?)?;
        let samples = match field("samples")? {
            Value::Str(s) => s.as_bytes(),
            other => {
                return Err(DeError::new(format!(
                    "KpiQueues: `samples` must be a hex string, found {other:?}"
                )))
            }
        };
        if num_dbs == 0 || num_kpis == 0 || capacity == 0 {
            return Err(DeError::new("KpiQueues: dimensions must be positive"));
        }
        let retained = len
            .checked_sub(base_tick)
            .ok_or_else(|| DeError::new("KpiQueues: base_tick past len"))?;
        if retained > capacity as u64 {
            return Err(DeError::new("KpiQueues: retained span exceeds capacity"));
        }
        let retained = retained as usize;
        let too_large = || DeError::new("KpiQueues: dimensions overflow");
        let series = num_dbs.checked_mul(num_kpis).ok_or_else(too_large)?;
        let expected = series
            .checked_mul(retained)
            .and_then(|n| n.checked_mul(DIGITS))
            .ok_or_else(too_large)?;
        if samples.len() != expected {
            return Err(DeError::new(format!(
                "KpiQueues: `samples` holds {} bytes, expected {expected} \
                 ({num_dbs} dbs x {num_kpis} kpis x {retained} retained x {DIGITS})",
                samples.len()
            )));
        }
        let slab = capacity.checked_mul(2).ok_or_else(too_large)?;
        let total = series.checked_mul(slab).ok_or_else(too_large)?;
        let mut data = Vec::new();
        data.try_reserve_exact(total)
            .map_err(|e| DeError::new(format!("KpiQueues: {total} samples: {e}")))?;
        // The exact length check above guarantees each series gets exactly
        // `retained` words from the shared iterator.
        let mut words = samples.chunks_exact(DIGITS).enumerate();
        for _ in 0..series {
            for (n, word) in words.by_ref().take(retained) {
                let bits = decode_bits(word).ok_or_else(|| {
                    DeError::new(format!(
                        "KpiQueues: sample {n} is not {DIGITS} lowercase hex digits"
                    ))
                })?;
                data.push(f64::from_bits(bits));
            }
            data.resize(data.len() + slab - retained, 0.0);
        }
        Ok(Self {
            num_dbs,
            num_kpis,
            capacity,
            filled: retained,
            phys_base: base_tick,
            data,
            base_tick,
            len,
        })
    }
}
