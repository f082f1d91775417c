//! Wire-protocol property tests: every message variant survives
//! serialize → parse, hostile lines (garbage, truncation, oversize)
//! always produce a typed [`ProtocolError`] — never a panic, never a
//! silently wrong message — and the direct codec is held to the generic
//! one: encoded bytes equal `serde_json::to_string`, decoded frames equal
//! `serde_json::from_str` bit for bit.

use dbcatcher_core::pipeline::Verdict;
use dbcatcher_core::state::DbState;
use dbcatcher_hierarchy::{
    render_unit_line, IncidentClass, Scope, ScopeState, ScopeVerdict, UnitVerdict,
};
use dbcatcher_serve::metrics::{MetricsSnapshot, ShardStatus, UnitMetrics};
use dbcatcher_serve::protocol::{
    decode_request, decode_response, encode, ProtocolError, RejectReason, Request, Response,
    WireMessage, MAX_LINE_BYTES,
};
use proptest::prelude::*;

/// NaN-tolerant equality: the wire maps non-finite to `null` to NaN.
fn close(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

fn request_for(choice: usize, unit: usize, tick: u64, samples: &[f64]) -> Request {
    match choice % 7 {
        0 => Request::Hello {
            unit,
            dbs: 1 + unit % 7,
            kpis: 1 + tick as usize % 14,
            participation: if unit.is_multiple_of(2) {
                None
            } else {
                Some(vec![
                    vec![unit.is_multiple_of(3); 1 + unit % 7];
                    1 + tick as usize % 14
                ])
            },
        },
        1 => Request::Tick {
            unit,
            tick,
            frame: samples.chunks(3).map(<[f64]>::to_vec).collect(),
        },
        2 => Request::Flush { unit },
        3 => Request::Subscribe,
        4 => Request::Stats,
        5 => Request::ResetUnit { unit },
        _ => Request::Stop,
    }
}

fn response_for(choice: usize, unit: usize, tick: u64, samples: &[f64]) -> Response {
    match choice % 10 {
        0 => Response::HelloAck {
            unit,
            next_tick: tick,
            resumed: unit.is_multiple_of(2),
        },
        1 => Response::Accepted { unit, tick },
        2 => Response::Rejected {
            unit,
            tick,
            expected: tick / 2,
            retry_after_ms: 20,
            reason: match unit % 4 {
                0 => RejectReason::Backpressure,
                1 => RejectReason::OutOfOrder,
                2 => RejectReason::Degraded,
                _ => RejectReason::UnknownUnit,
            },
        },
        3 => Response::Verdict {
            unit,
            at_tick: tick,
            verdict: Verdict {
                db: unit % 5,
                start_tick: tick.saturating_sub(20),
                end_tick: tick,
                state: if unit.is_multiple_of(2) {
                    DbState::Healthy
                } else {
                    DbState::Abnormal
                },
                window_size: 20 + unit % 40,
                expansions: (tick % 3) as u32,
                scores: samples.to_vec(),
            },
        },
        4 => Response::FlushAck {
            unit,
            ticks_ingested: tick,
            verdicts: tick / 3,
            next_tick: tick,
        },
        5 => Response::Subscribed,
        6 => Response::Stats(MetricsSnapshot {
            units: vec![UnitMetrics {
                unit,
                ticks: tick,
                demoted_dbs: vec![unit % 3],
                last_error: Some("disk full".into()),
                ..UnitMetrics::default()
            }],
            shards: 2,
            shard_status: vec![ShardStatus {
                shard: 0,
                restarts: tick % 3,
                wedges: tick % 2,
                failed: unit.is_multiple_of(5),
                ticks: tick * 2,
                ns_per_tick: 1000 + tick,
                last_panic: (!unit.is_multiple_of(2)).then(|| "panicked: boom".into()),
            }],
            subscribers: 1,
            total_ticks: tick,
            total_rejects: 0,
            total_verdicts: tick / 3,
            hierarchy_enabled: unit.is_multiple_of(2),
            scope_verdicts: tick % 7,
            scope_alarms_active: tick % 3,
        }),
        7 => Response::ResetAck {
            unit,
            next_tick: tick,
        },
        8 => Response::ScopeVerdict(ScopeVerdict {
            scope: match unit % 3 {
                0 => Scope::Cluster(unit / 3),
                1 => Scope::Region(unit / 3),
                _ => Scope::Fleet,
            },
            at_tick: tick,
            state: if unit.is_multiple_of(2) {
                ScopeState::Alarm
            } else {
                ScopeState::Clear
            },
            score: 0.5,
            class: unit
                .is_multiple_of(2)
                .then_some(IncidentClass::SuddenIncident),
            onset_tick: unit.is_multiple_of(2).then(|| tick.saturating_sub(4)),
            epicenter: Some(unit),
            group: vec![unit, unit + 1],
            blamed_kpi: Some(unit % 14),
        }),
        _ => Response::Error {
            message: format!("unit {unit} degraded at tick {tick}"),
        },
    }
}

proptest! {
    /// Every request variant round-trips through one wire line.
    #[test]
    fn requests_round_trip(
        choice in 0usize..7,
        unit in 0usize..64,
        tick in 0u64..100_000,
        samples in prop::collection::vec(-1e6f64..1e6, 1..12),
    ) {
        let request = request_for(choice, unit, tick, &samples);
        let line = encode(&request);
        prop_assert!(!line.contains('\n'), "wire lines must be single-line");
        let back = decode_request(&line).expect("round trip");
        prop_assert_eq!(back, request);
    }

    /// Every response variant round-trips, NaN scores included.
    #[test]
    fn responses_round_trip(
        choice in 0usize..10,
        unit in 0usize..64,
        tick in 0u64..100_000,
        samples in prop::collection::vec(-1e6f64..1e6, 1..12),
        poison in any::<bool>(),
    ) {
        let mut scores = samples.clone();
        if poison {
            scores[0] = f64::NAN;
        }
        let response = response_for(choice, unit, tick, &scores);
        let line = encode(&response);
        prop_assert!(!line.contains('\n'));
        let back = decode_response(&line).expect("round trip");
        match (&back, &response) {
            (
                Response::Verdict { verdict: a, .. },
                Response::Verdict { verdict: b, .. },
            ) => {
                prop_assert_eq!(a.scores.len(), b.scores.len());
                for (x, y) in a.scores.iter().zip(&b.scores) {
                    prop_assert!(close(*x, *y), "{x} vs {y}");
                }
            }
            _ => prop_assert_eq!(&back, &response),
        }
    }

    /// Truncating a valid line anywhere yields a typed error, not a panic
    /// and not a different valid message.
    #[test]
    fn truncation_yields_typed_error(
        choice in 0usize..7,
        unit in 0usize..64,
        tick in 0u64..100_000,
        cut in 0.0f64..1.0,
    ) {
        let line = encode(&request_for(choice, unit, tick, &[1.0, 2.0, 3.0]));
        let keep = ((line.len() as f64 * cut) as usize).min(line.len().saturating_sub(1));
        // stay on a char boundary (labels are ASCII, but be safe)
        let mut keep = keep;
        while !line.is_char_boundary(keep) {
            keep -= 1;
        }
        let truncated = &line[..keep];
        match decode_request(truncated) {
            Err(ProtocolError::Malformed { .. }) => {}
            Ok(parsed) => {
                // Only the degenerate cut that keeps the entire payload
                // may still parse.
                prop_assert_eq!(keep, line.len(), "prefix parsed: {:?}", parsed);
            }
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }

    /// Arbitrary garbage never panics the decoder and never produces a
    /// message.
    #[test]
    fn garbage_yields_typed_error(bytes in prop::collection::vec(0usize..256, 1..64)) {
        let garbage: String = bytes
            .iter()
            .map(|&b| char::from_u32(b as u32).unwrap_or('?'))
            .collect();
        // Anything that accidentally forms valid JSON for a variant is
        // astronomically unlikely; accept either outcome but require no
        // panic and a typed error otherwise.
        if let Err(e) = decode_request(&garbage) {
            assert!(matches!(e, ProtocolError::Malformed { .. } | ProtocolError::Oversized { .. }));
        }
    }
}

#[test]
fn oversized_lines_rejected_for_both_directions() {
    let huge = format!("{{\"Flush\":{{\"unit\":{}}}}}", "9".repeat(MAX_LINE_BYTES));
    assert!(matches!(
        decode_request(&huge),
        Err(ProtocolError::Oversized { .. })
    ));
    assert!(matches!(
        decode_response(&huge),
        Err(ProtocolError::Oversized { .. })
    ));
}

// ------------------------------------------------------------------
// Direct `Tick` decoder vs the generic decoder.
//
// `decode_request` reads canonical `Tick` lines without building a
// `serde_json::Value` tree and hands every other line to the generic
// decoder. The generic `serde_json::from_str::<Request>` is the oracle:
// both must accept or reject the same lines, and accepted frames must be
// bit-identical.

/// Sample tokens, written as text so bare integers and edge spellings
/// reach the decoder exactly as a producer could send them.
const SAMPLES: &[&str] = &[
    "1.5",
    "null",
    "-0.0",
    "0.0",
    "-0",
    "0",
    "5",
    "-5",
    "3.0",
    "1e2",
    "1E+2",
    "0.1",
    "4.9406564584124654e-324",
    "2.2250738585072009e-308",
    "1.7976931348623157e308",
    "-1.7976931348623157e308",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1e309",
    "+1",
    ".5",
    "5.",
    // rejected by both decoders
    "1-2",
    "--1",
    "true",
    "\"1\"",
    "[1]",
    "{}",
    "nul",
    "nullx",
    "NaN",
    "Infinity",
    "",
];

/// Tokens for `unit` and `tick`; the first few are valid for both.
const INDICES: &[&str] = &[
    "0",
    "7",
    "63",
    "-0",
    "18446744073709551615",
    "-1",
    "1.0",
    "1e1",
    "null",
    "\"3\"",
    "99999999999999999999",
];

/// Whitespace inserted between tokens (mostly none).
const SPACES: &[&str] = &["", "", "", "", "", " ", "\t", "\r\n ", "  "];

/// Builds one candidate line. `layout` picks the canonical shape or one
/// of the non-canonical ones the direct decoder must leave to the
/// generic decoder.
fn tick_line(layout: usize, unit: &str, tick: &str, frame: &str, ws: &[usize]) -> String {
    let mut slot = 0;
    let mut sp = || {
        slot += 1;
        SPACES[ws[slot % ws.len()] % SPACES.len()]
    };
    let mut members = vec![
        ("unit", unit.to_string()),
        ("tick", tick.to_string()),
        ("frame", frame.to_string()),
    ];
    match layout {
        0..=3 => {}
        4 => members.swap(0, 2),
        5 => members.swap(0, 1),
        6 => members.insert(1, ("extra", "[1,{\"a\":null}]".to_string())),
        7 => members.push(("unit", "1".to_string())),
        8 => members.push(("frame", "[]".to_string())),
        _ => members.truncate(2),
    }
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}\"{k}\"{}:{}{v}{}", sp(), sp(), sp(), sp()))
        .collect();
    let outer_extra = if layout == 10 { ",\"Stats\":null" } else { "" };
    let trailer = if layout == 11 { "x" } else { "" };
    format!(
        "{}{{{}\"Tick\"{}:{}{{{}}}{outer_extra}{}}}{}{trailer}",
        sp(),
        sp(),
        sp(),
        sp(),
        body.join(","),
        sp(),
        sp()
    )
}

fn frame_text(rows: &[Vec<usize>], ws: &[usize]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(r, row)| {
            let sep = SPACES[ws[r % ws.len()] % SPACES.len()];
            let items: Vec<&str> = row.iter().map(|&i| SAMPLES[i % SAMPLES.len()]).collect();
            format!("[{sep}{}]", items.join(&format!(",{sep}")))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Bit image of a decoded request: frames compare by `to_bits`.
fn bit_image(request: &Request) -> String {
    match request {
        Request::Tick { unit, tick, frame } => {
            let rows: Vec<Vec<u64>> = frame
                .iter()
                .map(|row| row.iter().map(|x| x.to_bits()).collect())
                .collect();
            format!("Tick {unit} {tick} {rows:?}")
        }
        other => format!("{other:?}"),
    }
}

/// Both decoders agree on `line`: same accept/reject, same bits.
fn assert_agrees(line: &str) {
    let direct = decode_request(line);
    let oracle = serde_json::from_str::<Request>(line.trim_end());
    match (&direct, &oracle) {
        (Ok(a), Ok(b)) => assert_eq!(bit_image(a), bit_image(b), "line {line:?}"),
        (Err(ProtocolError::Malformed { .. }), Err(_)) => {}
        _ => panic!("decoders disagree on {line:?}: direct {direct:?}, oracle {oracle:?}"),
    }
}

proptest! {
    /// Canonical, whitespace-padded, reordered, extended and broken
    /// `Tick` lines decode exactly as the generic decoder reads them,
    /// and so does every truncation of each.
    #[test]
    fn direct_tick_decode_matches_generic_decoder(
        layout in 0usize..12,
        unit in 0usize..64,
        tick in 0usize..64,
        rows in prop::collection::vec(prop::collection::vec(0usize..64, 0..7), 0..5),
        ws in prop::collection::vec(0usize..64, 1..24),
        valid_only in any::<bool>(),
    ) {
        // Half the cases keep to tokens both decoders accept, so the
        // accepted path is exercised as often as the rejected one.
        let (samples, indices) = if valid_only { (25, 5) } else { (SAMPLES.len(), INDICES.len()) };
        let picked: Vec<Vec<usize>> = rows
            .iter()
            .map(|row| row.iter().map(|&i| i % samples).collect())
            .collect();
        let line = tick_line(
            layout,
            INDICES[unit % indices],
            INDICES[tick % indices],
            &frame_text(&picked, &ws),
            &ws,
        );
        assert_agrees(&line);
        for cut in 0..line.len() {
            if line.is_char_boundary(cut) {
                assert_agrees(&line[..cut]);
            }
        }
    }

    /// Encoded ticks of arbitrary finite, non-finite and signed-zero
    /// samples come back bit-identical (non-finite as NaN).
    #[test]
    fn encoded_ticks_decode_bit_identically(
        unit in 0usize..1_000,
        tick in 0u64..u64::MAX,
        rows in prop::collection::vec(prop::collection::vec(0usize..12, 0..16), 0..8),
        mantissas in prop::collection::vec(-1e6f64..1e6, 1..8),
    ) {
        let special = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
            42.0,
            -1e300,
        ];
        let frame: Vec<Vec<f64>> = rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                row.iter()
                    .map(|&i| special.get(i).copied().unwrap_or(mantissas[r % mantissas.len()]))
                    .collect()
            })
            .collect();
        let line = encode(&Request::Tick { unit, tick, frame: frame.clone() });
        assert_agrees(&line);
        match decode_request(&line).expect("encoded tick decodes") {
            Request::Tick { unit: u, tick: t, frame: back } => {
                prop_assert_eq!((u, t), (unit, tick));
                prop_assert_eq!(back.len(), frame.len());
                for (a, b) in back.iter().zip(&frame) {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        if y.is_finite() {
                            prop_assert_eq!(x.to_bits(), y.to_bits());
                        } else {
                            prop_assert!(x.is_nan());
                        }
                    }
                }
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn direct_decoder_edge_lines_match_generic_decoder() {
    for line in [
        r#"{"Tick":{"unit":1,"tick":2,"frame":[]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[],[]]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1],[2,3,4],[]]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[-0,-0.0,null]]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[18446744073709551616]]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1,]]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1]]]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1],]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[[1]]]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[1]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":null}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1]]}}  "#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1]]}} x"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1]]},"Stop":null}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1]],"unit":3}}"#,
        r#"{"Tick":{"tick":2,"unit":1,"frame":[[1]]}}"#,
        r#"{"Tick":{"unit":1,"tick":2,"frame":[[1]]}}"#,
        r#"{"Tick":{"unit":1,"tick":-2,"frame":[[1]]}}"#,
        r#"{"Tick":{"unit":1.0,"tick":2,"frame":[[1]]}}"#,
        r#"{"Tick":[1,2,[[1]]]}"#,
        "{\"Tick\":{\"unit\":1,\"tick\":2,\"frame\":[[1]]}}\u{0c}",
        "\u{0c}{\"Tick\":{\"unit\":1,\"tick\":2,\"frame\":[[1]]}}",
    ] {
        assert_agrees(line);
    }
    // Rows around and past the direct reader's stack buffer.
    for width in [63usize, 64, 65, 130] {
        let row: Vec<String> = (0..width).map(|i| format!("{i}.25")).collect();
        let line = format!(
            "{{\"Tick\":{{\"unit\":1,\"tick\":2,\"frame\":[[{0}],[],[{0},null]]}}}}",
            row.join(",")
        );
        assert_agrees(&line);
        match decode_request(&line).expect("wide rows decode") {
            Request::Tick { frame, .. } => {
                assert_eq!(
                    frame.iter().map(Vec::len).collect::<Vec<_>>(),
                    [width, 0, width + 1]
                );
            }
            other => panic!("{other:?}"),
        }
    }
    // Frames around and past the direct reader's row stack, rows in order.
    for height in [63usize, 64, 65, 130] {
        let rows: Vec<String> = (0..height).map(|r| format!("[{r}.5,-{r}]")).collect();
        let line = format!(
            "{{\"Tick\":{{\"unit\":1,\"tick\":2,\"frame\":[{}]}}}}",
            rows.join(",")
        );
        assert_agrees(&line);
        match decode_request(&line).expect("tall frames decode") {
            Request::Tick { frame, .. } => {
                assert_eq!(frame.len(), height);
                for (r, row) in frame.iter().enumerate() {
                    assert_eq!(row, &[r as f64 + 0.5, -(r as f64)]);
                }
            }
            other => panic!("{other:?}"),
        }
    }
}

// ------------------------------------------------------------------
// Direct encoders vs `serde_json::to_string`, direct sample reader vs
// the generic number parser.

/// An encoder edge case chosen by `pick`, or a float built from `bits`.
fn edge_float(pick: usize, bits: u64) -> f64 {
    let sign = if bits >> 63 == 1 { -1.0 } else { 1.0 };
    match pick % 14 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff), // subnormal
        6 => f64::MAX,
        7 => f64::MIN,
        8 => (bits % (1 << 53)) as f64 * sign, // integer-valued
        9 => ((bits % 1_000) as f64 - 500.0) * 0.25,
        10 => (bits >> 11) as f64 / 10f64.powi((bits % 20) as i32),
        _ => f64::from_bits(bits),
    }
}

/// `message` through its direct encoder, appended after a prefix so the
/// append-only contract is checked too, and through `encode`.
fn assert_encodes_like_serde<M: WireMessage + std::fmt::Debug>(message: &M) {
    let expected = serde_json::to_string(message).expect("shim serialisation");
    let mut out = String::from("prefix");
    message.encode_into(&mut out);
    assert_eq!(
        out.strip_prefix("prefix"),
        Some(expected.as_str()),
        "{message:?}"
    );
    assert_eq!(encode(message), expected, "{message:?}");
}

proptest! {
    /// `Accepted`, `Rejected` (every reason), `Verdict` (every state),
    /// `Request::Tick` and the hierarchy's unit-verdict line write the
    /// bytes `serde_json::to_string` writes, over non-finite, signed-zero,
    /// subnormal, extreme and integer-valued floats, empty score and
    /// frame vectors, and `u64::MAX` ticks.
    #[test]
    fn direct_encoders_match_serde_json(
        picks in prop::collection::vec(0usize..14, 0..20),
        bits in prop::collection::vec(any::<u64>(), 1..20),
        widths in prop::collection::vec(0usize..6, 0..5),
        id_pick in 0usize..4,
        id_bits in any::<u64>(),
    ) {
        let floats: Vec<f64> = picks
            .iter()
            .zip(bits.iter().cycle())
            .map(|(&pick, &b)| edge_float(pick, b))
            .collect();
        let (unit, tick) = match id_pick {
            0 => (usize::MAX, u64::MAX),
            1 => (0, 0),
            _ => ((id_bits >> 40) as usize, id_bits),
        };
        let mut cells = floats.iter().copied().cycle();
        let frame: Vec<Vec<f64>> = widths
            .iter()
            .map(|&w| if floats.is_empty() { Vec::new() } else { cells.by_ref().take(w).collect() })
            .collect();
        assert_encodes_like_serde(&Request::Tick { unit, tick, frame });
        assert_encodes_like_serde(&Response::Accepted { unit, tick });
        for reason in [
            RejectReason::Backpressure,
            RejectReason::OutOfOrder,
            RejectReason::Degraded,
            RejectReason::UnknownUnit,
        ] {
            assert_encodes_like_serde(&Response::Rejected {
                unit,
                tick,
                expected: tick.wrapping_add(1),
                retry_after_ms: id_bits % 1_000,
                reason,
            });
        }
        for state in [DbState::Healthy, DbState::Observable, DbState::Abnormal] {
            let verdict = Verdict {
                db: unit % 64,
                start_tick: tick / 2,
                end_tick: tick,
                state,
                window_size: unit,
                expansions: id_bits as u32,
                scores: floats.clone(),
            };
            let record = UnitVerdict { unit, at_tick: tick, verdict: verdict.clone() };
            prop_assert_eq!(
                render_unit_line(&record),
                serde_json::to_string(&record).expect("shim serialisation")
            );
            assert_encodes_like_serde(&Response::Verdict { unit, at_tick: tick, verdict });
        }
    }

    /// Decimal tokens `-?\d{1,20}(\.\d{0,25})?` and the shortest and
    /// exponent renderings of random floats read to the generic decoder's
    /// bits, on both sides of every fast-path bound (19 digits, 2^53,
    /// 22 fraction digits).
    #[test]
    fn sample_tokens_decode_like_the_generic_parser(
        ints in prop::collection::vec(prop::collection::vec(0usize..10, 1..21), 1..10),
        fracs in prop::collection::vec(prop::collection::vec(0usize..10, 0..26), 1..10),
        shapes in prop::collection::vec(0usize..4, 1..10),
        bits in prop::collection::vec(any::<u64>(), 1..10),
    ) {
        let digits = |ds: &[usize]| ds.iter().map(|d| char::from(b'0' + *d as u8)).collect::<String>();
        let mut tokens: Vec<String> = ints
            .iter()
            .enumerate()
            .map(|(i, int)| {
                let shape = shapes[i % shapes.len()];
                let sign = if shape & 1 == 1 { "-" } else { "" };
                if shape & 2 == 2 {
                    format!("{sign}{}.{}", digits(int), digits(&fracs[i % fracs.len()]))
                } else {
                    format!("{sign}{}", digits(int))
                }
            })
            .collect();
        for (i, &b) in bits.iter().enumerate() {
            let x = edge_float(8 + i % 6, b);
            if x.is_finite() {
                tokens.push(serde_json::to_string(&x).expect("shim serialisation"));
                tokens.push(format!("{x:e}"));
            }
        }
        let line = format!(
            "{{\"Tick\":{{\"unit\":1,\"tick\":2,\"frame\":[[{}]]}}}}",
            tokens.join(",")
        );
        assert_agrees(&line);
        prop_assert!(decode_request(&line).is_ok(), "every token is a JSON number: {line}");
    }
}
