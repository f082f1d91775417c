//! Direct JSON writers for the values that cross the wire every tick.
//!
//! The serde shim renders through an owned `Value` tree, which on the
//! serving path costs more than the text itself. These writers append the
//! same bytes straight into a caller-owned `String`: the serve daemon's
//! `Verdict` replies and `Tick` requests, and the hierarchy WAL's
//! unit-verdict lines. Output is byte-identical to `serde_json::to_string`
//! of the same value; the serve crate's protocol tests hold the two to it.

use crate::pipeline::Verdict;
use crate::state::DbState;
use std::fmt::Write as _;

/// Appends `value` exactly as the serde shim renders an `f64`: `null` when
/// non-finite, otherwise Rust's shortest round-trip `{}` text, with `.0`
/// added to integer-valued numbers so they read back as floats.
pub fn write_f64(value: f64, out: &mut String) {
    // Writing into a `String` cannot fail.
    if !value.is_finite() {
        out.push_str("null");
    } else if value.fract() == 0.0 {
        // `{}` never uses exponent notation for `f64`, so its text has no
        // `.` exactly when the value has no fractional part (`-0.0` too).
        let _ = write!(out, "{value}.0");
    } else {
        let _ = write!(out, "{value}");
    }
}

/// Appends the decimal digits of `value`, as `{}` renders it, without
/// going through the formatting machinery.
pub fn write_u64(value: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut len = 0;
    let mut rest = value;
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
        len += 1;
        if rest == 0 {
            break;
        }
    }
    // Only ASCII digits were written, so the defaults never apply.
    let text = digits.get(digits.len() - len..).unwrap_or_default();
    out.push_str(std::str::from_utf8(text).unwrap_or_default());
}

/// Appends `values` as a JSON array of [`write_f64`] numbers.
pub fn write_f64_array(values: &[f64], out: &mut String) {
    out.push('[');
    for (i, &value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(value, out);
    }
    out.push(']');
}

/// Appends `{"unit":…,"at_tick":…,"verdict":{…}}`: one hierarchy WAL line
/// and the body of the serve daemon's `Verdict` reply.
pub fn write_unit_verdict(unit: usize, at_tick: u64, verdict: &Verdict, out: &mut String) {
    out.reserve(160 + 24 * verdict.scores.len());
    let state = match verdict.state {
        DbState::Healthy => "Healthy",
        DbState::Observable => "Observable",
        DbState::Abnormal => "Abnormal",
    };
    out.push_str("{\"unit\":");
    write_u64(unit as u64, out);
    out.push_str(",\"at_tick\":");
    write_u64(at_tick, out);
    out.push_str(",\"verdict\":{\"db\":");
    write_u64(verdict.db as u64, out);
    out.push_str(",\"start_tick\":");
    write_u64(verdict.start_tick, out);
    out.push_str(",\"end_tick\":");
    write_u64(verdict.end_tick, out);
    out.push_str(",\"state\":\"");
    out.push_str(state);
    out.push_str("\",\"window_size\":");
    write_u64(verdict.window_size as u64, out);
    out.push_str(",\"expansions\":");
    write_u64(u64::from(verdict.expansions), out);
    out.push_str(",\"scores\":");
    write_f64_array(&verdict.scores, out);
    out.push_str("}}");
}
