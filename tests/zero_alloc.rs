//! Counting-allocator harness pinning the hot-path heap budget.
//!
//! The detection hot path (flat queues + scratch arenas + preallocated
//! incremental state) is designed to stop allocating once warm: after the
//! buffers have grown to the unit's steady shape, a **non-judging**
//! `ingest_tick` must perform **zero** heap allocations. Judging ticks are
//! allowed to allocate — they build `Verdict` values the caller keeps.
//!
//! The allocator below wraps `System` and counts every `alloc` /
//! `realloc` / `alloc_zeroed` in this test binary (integration tests link
//! their own binaries, so the counter never sees other suites). The tests
//! in this file take one lock so they never count each other.
//!
//! The same harness pins the serve path's wire codec: decoding a wire
//! `Tick` line costs one allocation per frame row plus one for the frame,
//! a hostile line cannot make the decoder allocate far beyond its own
//! size, and encoding the per-tick replies into a warm buffer allocates
//! nothing.

use dbcatcher::core::config::{CorrelationBackend, DbCatcherConfig, DelayScan};
use dbcatcher::core::pipeline::{DbCatcher, Verdict};
use dbcatcher::core::state::DbState;
use dbcatcher::serve::protocol::{
    decode_request, encode, Request, Response, WireMessage, MAX_LINE_BYTES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by the current thread alone, for measurements
    /// short enough that the test runner's own bookkeeping on another
    /// thread could land inside them.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Largest single allocation (bytes) the current thread has made
    /// since the last [`reset_thread_largest`].
    static THREAD_LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_LARGEST.try_with(|c| c.set(c.get().max(bytes)));
}

// SAFETY AUDIT — one of the workspace's two sanctioned `unsafe` surfaces
// (this file and its twin `crates/bench/benches/kcd.rs` are excluded from
// dbclint's `no-unsafe` rule; the other surface, the SIMD intrinsics in
// `crates/core/src/simd.rs`, stays in scope with per-site waivers).
//
// `GlobalAlloc` is an unsafe trait because the allocator must uphold the
// contract rustc's codegen relies on: returned pointers are valid for
// `layout`, dealloc/realloc are only reached with pointers this allocator
// handed out, and no unwinding crosses the allocator boundary. This impl
// delegates every operation verbatim to `std::alloc::System` — the same
// allocator the program would use anyway — and only increments a relaxed
// atomic counter and updates const-initialised, destructor-free
// thread-local `Cell`s on the side. None of them can unwind, allocate, or touch the
// pointer (`try_with` never registers a destructor for such a key), so the
// entire safety obligation is inherited from `System`, which upholds it
// by definition.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

fn reset_thread_largest() {
    THREAD_LARGEST.with(|c| c.set(0));
}

fn thread_largest() -> usize {
    THREAD_LARGEST.with(Cell::get)
}

/// Serialises the tests of this binary: the counter is process-wide.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Healthy, correlated telemetry: every database follows the same
/// sinusoid family, so windows resolve at the initial size and nothing
/// demotes or expands.
fn fill_frame(frame: &mut [Vec<f64>], kpis: usize, t: u64) {
    for (db, row) in frame.iter_mut().enumerate() {
        row.clear();
        for k in 0..kpis {
            let tf = t as f64;
            row.push(
                100.0 * (1.0 + 0.05 * db as f64)
                    + 30.0 * (std::f64::consts::TAU * (tf + k as f64) / 30.0).sin(),
            );
        }
    }
}

#[test]
fn steady_state_tick_allocates_nothing() {
    let _serial = exclusive();
    let dbs = 4usize;
    let kpis = 6usize;
    let config = DbCatcherConfig {
        initial_window: 20,
        max_window: 60,
        delay_scan: DelayScan::Fixed(3),
        backend: CorrelationBackend::Incremental,
        ..DbCatcherConfig::with_kpis(kpis)
    };
    let mut catcher = DbCatcher::new(config, dbs);
    let mut frame: Vec<Vec<f64>> = (0..dbs).map(|_| Vec::with_capacity(kpis)).collect();

    // Warmup: roughly three retention spans, enough for every queue,
    // deque, cache and hash table to reach its steady capacity.
    let warmup = 450u64;
    for t in 0..warmup {
        fill_frame(&mut frame, kpis, t);
        catcher
            .try_ingest_tick(&frame)
            .expect("healthy frame accepted");
    }

    let mut quiet_ticks = 0u64;
    let mut judging_ticks = 0u64;
    for t in warmup..warmup + 200 {
        fill_frame(&mut frame, kpis, t);
        let before = allocations();
        let report = catcher
            .try_ingest_tick(&frame)
            .expect("healthy frame accepted");
        let allocated = allocations() - before;
        if report.verdicts.is_empty() {
            assert_eq!(
                allocated, 0,
                "non-judging tick {t} allocated {allocated} times"
            );
            quiet_ticks += 1;
        } else {
            judging_ticks += 1;
        }
    }
    assert!(
        quiet_ticks >= 150,
        "only {quiet_ticks} quiet ticks measured"
    );
    assert!(judging_ticks > 0, "windows never resolved — bad fixture");
}

#[test]
fn tick_decode_allocates_one_per_row_plus_one() {
    let _serial = exclusive();
    // The paper's shape: 5 databases x 14 KPIs, with a gap and a bare
    // integer sample so every token kind is on the path.
    let (dbs, kpis) = (5usize, 14usize);
    let mut frame: Vec<Vec<f64>> = vec![Vec::with_capacity(kpis); dbs];
    for t in 0..32u64 {
        fill_frame(&mut frame, kpis, t);
        frame[1][3] = f64::NAN;
        frame[2][0] = 7.0;
        let line = encode(&Request::Tick {
            unit: 3,
            tick: t,
            frame: frame.clone(),
        });
        let before = thread_allocations();
        let decoded = decode_request(&line).expect("canonical tick line decodes");
        let allocated = thread_allocations() - before;
        match decoded {
            Request::Tick {
                unit: 3,
                tick,
                frame: back,
            } if tick == t => {
                assert_eq!(back.len(), dbs);
                assert!(back.iter().all(|row| row.len() == kpis));
            }
            other => panic!("decoded {other:?}"),
        }
        assert!(
            allocated <= dbs as u64 + 1,
            "decoding a {dbs}x{kpis} tick allocated {allocated} times"
        );
    }
}

#[test]
fn hostile_tick_line_allocates_nothing_large() {
    let _serial = exclusive();
    // A canonical prefix, then `[` up to the wire limit: every `[` opens
    // a row that never holds a sample.
    let mut line = String::from("{\"Tick\":{\"unit\":0,\"tick\":0,\"frame\":[");
    line.extend(std::iter::repeat_n('[', MAX_LINE_BYTES - line.len()));
    assert_eq!(line.len(), MAX_LINE_BYTES);
    reset_thread_largest();
    let decoded = decode_request(&line);
    let largest = thread_largest();
    assert!(decoded.is_err(), "hostile line decoded: {decoded:?}");
    assert!(
        largest <= 64 << 10,
        "decoding a {MAX_LINE_BYTES}-byte hostile line made a {largest}-byte allocation"
    );
}

#[test]
fn reply_encode_into_warm_buffer_allocates_nothing() {
    let _serial = exclusive();
    let ack = Response::Accepted {
        unit: 63,
        tick: u64::MAX,
    };
    let verdict = Response::Verdict {
        unit: 63,
        at_tick: 1_000_019,
        verdict: Verdict {
            db: 4,
            start_tick: 1_000_000,
            end_tick: 1_000_020,
            state: DbState::Abnormal,
            window_size: 20,
            expansions: 2,
            scores: (0..14)
                .map(|k| match k {
                    3 => f64::NAN,
                    7 => -0.0,
                    _ => 0.123_456_789_012_345_6 * f64::from(k),
                })
                .collect(),
        },
    };
    let mut line = String::new();
    for message in [&ack, &verdict] {
        // Warm up: the first pass grows the buffer to the line's size.
        message.encode_into(&mut line);
        line.clear();
        let before = thread_allocations();
        message.encode_into(&mut line);
        let allocated = thread_allocations() - before;
        assert_eq!(line, encode(message));
        assert_eq!(allocated, 0, "encoding {line} allocated {allocated} times");
        line.clear();
    }
}
