//! Data-processing module (paper §III-A, Fig. 6).
//!
//! "The data processing module maintains multiple queues for each KPI, the
//! number of which is equal to the number of databases in the unit." —
//! [`KpiQueues`] is exactly that: a bounded history per `(db, kpi)` pair,
//! addressed by absolute tick so the flexible windows can reach back into
//! history after expansions.
//!
//! Storage is a single flat `Vec<f64>` holding one fixed-stride slab per
//! series (structure-of-arrays). Each slab is `2 * capacity` samples wide
//! and filled left to right; when a slab fills up, the newest `capacity`
//! samples are slid back to the slab front with `copy_within`. Amortised
//! over `capacity` pushes that is O(1) per sample, never allocates after
//! construction, and — the point of the layout — every retained window is
//! one contiguous `&[f64]` slice ([`KpiQueues::window_slice`]), so the
//! correlation kernels stream straight over memory instead of chasing
//! `VecDeque` halves.

/// Bounded per-(database, KPI) history of collected samples.
///
/// Serialisation (in `queues_serde`) stores the retained history as one
/// flat `samples` string of raw `f64` bits, 16 lowercase hex digits per
/// sample, series by series (db-major, then KPI) and oldest first. The
/// round trip is bit-exact for every value, NaN payloads included.
#[derive(Debug, Clone)]
pub struct KpiQueues {
    pub(crate) num_dbs: usize,
    pub(crate) num_kpis: usize,
    pub(crate) capacity: usize,
    /// Physical samples currently stored per series (same for all series).
    pub(crate) filled: usize,
    /// Absolute tick of physical slot 0 in every slab.
    pub(crate) phys_base: u64,
    /// `num_dbs * num_kpis` slabs of `2 * capacity` samples each;
    /// series `(db, kpi)` owns `data[(db * num_kpis + kpi) * slab ..][..slab]`.
    pub(crate) data: Vec<f64>,
    /// Absolute tick of the oldest retained sample.
    pub(crate) base_tick: u64,
    /// Total samples ingested (== next absolute tick).
    pub(crate) len: u64,
}

impl KpiQueues {
    /// Creates queues retaining the last `capacity` ticks.
    ///
    /// # Panics
    /// Panics when any dimension is zero.
    pub fn new(num_dbs: usize, num_kpis: usize, capacity: usize) -> Self {
        assert!(
            num_dbs > 0 && num_kpis > 0 && capacity > 0,
            "dimensions must be positive"
        );
        Self {
            num_dbs,
            num_kpis,
            capacity,
            filled: 0,
            phys_base: 0,
            // dbclint: allow(hot-path-alloc) — one-time slab allocation at construction; every later push writes in place.
            data: vec![0.0; num_dbs * num_kpis * capacity * 2],
            base_tick: 0,
            len: 0,
        }
    }

    /// Slab width per series: headroom past `capacity` so compaction runs
    /// once per `capacity` pushes, not on every push.
    pub(crate) fn slab(&self) -> usize {
        self.capacity * 2
    }

    /// Number of databases.
    pub fn num_dbs(&self) -> usize {
        self.num_dbs
    }

    /// Number of KPIs.
    pub fn num_kpis(&self) -> usize {
        self.num_kpis
    }

    /// Retention capacity in ticks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Next absolute tick to be ingested.
    pub fn next_tick(&self) -> u64 {
        self.len
    }

    /// Oldest retained absolute tick.
    pub fn base_tick(&self) -> u64 {
        self.base_tick
    }

    /// Slides the newest `capacity` samples of every slab to its front.
    fn compact(&mut self) {
        let slab = self.slab();
        let drop = slab - self.capacity;
        for series in 0..self.num_dbs * self.num_kpis {
            let o = series * slab;
            self.data.copy_within(o + drop..o + slab, o);
        }
        self.filled = self.capacity;
        self.phys_base += drop as u64;
    }

    /// Ingests one frame: `frame[db][kpi]`. Never allocates.
    ///
    /// # Panics
    /// Panics when the frame shape mismatches the queue dimensions.
    pub fn push(&mut self, frame: &[Vec<f64>]) {
        assert_eq!(frame.len(), self.num_dbs, "frame database arity mismatch");
        if self.filled == self.slab() {
            self.compact();
        }
        let slab = self.slab();
        let at = self.filled;
        for (db, kpis) in frame.iter().enumerate() {
            assert_eq!(kpis.len(), self.num_kpis, "frame KPI arity mismatch");
            for (k, &v) in kpis.iter().enumerate() {
                self.data[(db * self.num_kpis + k) * slab + at] = v;
            }
        }
        self.filled += 1;
        self.len += 1;
        if self.len - self.base_tick > self.capacity as u64 {
            self.base_tick = self.len - self.capacity as u64;
        }
    }

    /// Borrows the window `[start, start + len)` of `(db, kpi)` as one
    /// contiguous slice. Returns `None` when any part of the window has
    /// been evicted or has not arrived yet.
    ///
    /// Eviction is logical: a sample older than `base_tick` is refused
    /// even while it physically lingers in the slab headroom, so flat and
    /// nested layouts agree tick-for-tick.
    pub fn window_slice(&self, db: usize, kpi: usize, start: u64, len: usize) -> Option<&[f64]> {
        let end = start.checked_add(len as u64)?;
        if start < self.base_tick || end > self.len {
            return None;
        }
        let offset = (start - self.phys_base) as usize;
        let o = (db * self.num_kpis + kpi) * self.slab();
        Some(&self.data[o + offset..o + offset + len])
    }

    /// Copies the window `[start, start + len)` of `(db, kpi)` into a
    /// `Vec`. Same availability rules as [`Self::window_slice`], which
    /// hot paths should prefer.
    pub fn window(&self, db: usize, kpi: usize, start: u64, len: usize) -> Option<Vec<f64>> {
        self.window_slice(db, kpi, start, len).map(<[f64]>::to_vec)
    }

    /// Maximum value of `(db, kpi)` over a window, for unused-database
    /// detection. `None` under the same conditions as [`Self::window`].
    pub fn window_max_abs(&self, db: usize, kpi: usize, start: u64, len: usize) -> Option<f64> {
        self.window_slice(db, kpi, start, len)
            .map(|w| w.iter().fold(0.0f64, |acc, &v| acc.max(v.abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbCatcherConfig;
    use crate::pipeline::DbCatcher;
    use crate::snapshot::DetectorSnapshot;
    use proptest::prelude::*;
    use serde::Serialize as _;

    fn frame(n_db: usize, n_kpi: usize, v: f64) -> Vec<Vec<f64>> {
        (0..n_db)
            .map(|db| (0..n_kpi).map(|k| v + (db * 10 + k) as f64).collect())
            .collect()
    }

    #[test]
    fn push_and_window() {
        let mut q = KpiQueues::new(2, 3, 10);
        for t in 0..5 {
            q.push(&frame(2, 3, t as f64 * 100.0));
        }
        assert_eq!(q.next_tick(), 5);
        let w = q.window(1, 2, 1, 3).unwrap();
        assert_eq!(w, vec![112.0, 212.0, 312.0]);
        assert_eq!(q.window_slice(1, 2, 1, 3).unwrap(), &[112.0, 212.0, 312.0]);
    }

    #[test]
    fn window_unavailable_before_arrival() {
        let mut q = KpiQueues::new(1, 1, 10);
        q.push(&frame(1, 1, 0.0));
        assert!(q.window(0, 0, 0, 2).is_none());
        assert!(q.window(0, 0, 0, 1).is_some());
    }

    #[test]
    fn eviction_moves_base_tick() {
        let mut q = KpiQueues::new(1, 1, 4);
        for t in 0..10 {
            q.push(&frame(1, 1, t as f64));
        }
        assert_eq!(q.base_tick(), 6);
        assert!(
            q.window(0, 0, 5, 2).is_none(),
            "evicted window must be None"
        );
        let w = q.window(0, 0, 6, 4).unwrap();
        assert_eq!(w, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn window_max_abs_tracks_magnitude() {
        let mut q = KpiQueues::new(1, 1, 10);
        q.push(&[vec![-5.0]]);
        q.push(&[vec![2.0]]);
        q.push(&[vec![0.0]]);
        assert_eq!(q.window_max_abs(0, 0, 0, 3), Some(5.0));
        assert_eq!(q.window_max_abs(0, 0, 1, 2), Some(2.0));
        assert_eq!(q.window_max_abs(0, 0, 0, 4), None);
    }

    #[test]
    #[should_panic(expected = "frame database arity")]
    fn wrong_frame_shape_panics() {
        let mut q = KpiQueues::new(2, 2, 4);
        q.push(&frame(1, 2, 0.0));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_capacity_panics() {
        let _ = KpiQueues::new(1, 1, 0);
    }

    #[test]
    fn capacity_one_keeps_latest() {
        let mut q = KpiQueues::new(1, 1, 1);
        q.push(&[vec![1.0]]);
        q.push(&[vec![2.0]]);
        assert_eq!(q.window(0, 0, 1, 1), Some(vec![2.0]));
        assert!(q.window(0, 0, 0, 1).is_none());
    }

    #[test]
    fn base_tick_stays_zero_until_exactly_capacity() {
        // The boundary: `capacity` pushes retain everything; push
        // `capacity + 1` evicts exactly one tick.
        let cap = 4usize;
        let mut q = KpiQueues::new(1, 1, cap);
        for t in 0..cap {
            q.push(&frame(1, 1, t as f64));
            assert_eq!(q.base_tick(), 0, "no eviction through tick {t}");
        }
        assert_eq!(q.window(0, 0, 0, cap).unwrap(), vec![0.0, 1.0, 2.0, 3.0]);
        q.push(&frame(1, 1, cap as f64));
        assert_eq!(q.base_tick(), 1, "one tick past capacity evicts one");
        assert!(q.window(0, 0, 0, 1).is_none(), "tick 0 evicted");
        assert_eq!(q.window(0, 0, 1, cap).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn base_tick_advances_one_per_push_once_saturated() {
        let cap = 3usize;
        let mut q = KpiQueues::new(2, 2, cap);
        for t in 0..20u64 {
            q.push(&frame(2, 2, t as f64));
            let expected_base = (t + 1).saturating_sub(cap as u64);
            assert_eq!(q.base_tick(), expected_base, "after push {t}");
            assert_eq!(q.next_tick(), t + 1);
            // the retained span is always addressable...
            assert!(q
                .window(
                    1,
                    1,
                    expected_base,
                    q.next_tick() as usize - expected_base as usize
                )
                .is_some());
            // ...and one tick before it never is
            if expected_base > 0 {
                assert!(q.window(1, 1, expected_base - 1, 1).is_none());
            }
        }
    }

    #[test]
    fn absolute_addressing_survives_long_uptime() {
        // Online shards address windows by absolute tick after arbitrary
        // uptime; the mapping through base_tick must stay exact.
        let cap = 8usize;
        let mut q = KpiQueues::new(1, 1, cap);
        let total = 10_000u64;
        for t in 0..total {
            q.push(&[vec![t as f64]]);
        }
        assert_eq!(q.next_tick(), total);
        assert_eq!(q.base_tick(), total - cap as u64);
        // full retained window, exact values
        let w = q.window(0, 0, total - cap as u64, cap).unwrap();
        let expect: Vec<f64> = (total - cap as u64..total).map(|t| t as f64).collect();
        assert_eq!(w, expect);
        // suffix window straddling nothing evicted
        assert_eq!(
            q.window(0, 0, total - 2, 2).unwrap(),
            vec![(total - 2) as f64, (total - 1) as f64]
        );
        // requests past the head are refused, even by one tick
        assert!(q.window(0, 0, total - 1, 2).is_none());
        assert!(q.window_max_abs(0, 0, total - 1, 2).is_none());
        assert_eq!(
            q.window_max_abs(0, 0, total - cap as u64, cap),
            Some((total - 1) as f64)
        );
    }

    #[test]
    fn window_len_zero_at_boundaries() {
        let mut q = KpiQueues::new(1, 1, 2);
        for t in 0..5 {
            q.push(&frame(1, 1, t as f64));
        }
        // empty windows are valid wherever their start is retained
        assert_eq!(q.window(0, 0, q.base_tick(), 0), Some(vec![]));
        assert_eq!(q.window(0, 0, q.next_tick(), 0), Some(vec![]));
        assert!(q.window(0, 0, q.base_tick() - 1, 0).is_none());
    }

    #[test]
    fn absurd_window_requests_are_refused_not_panicking() {
        // `start + len` near u64::MAX must not wrap past the bounds check.
        let mut q = KpiQueues::new(1, 1, 4);
        q.push(&frame(1, 1, 0.0));
        assert!(q.window_slice(0, 0, u64::MAX - 1, 3).is_none());
        assert!(q.window_slice(0, 0, u64::MAX, usize::MAX).is_none());
    }

    #[test]
    fn push_never_allocates_after_construction() {
        // The slab headroom plus `copy_within` compaction keeps the flat
        // store allocation-free for the lifetime of the queue.
        let mut q = KpiQueues::new(2, 2, 3);
        let data_ptr = q.data.as_ptr();
        let data_cap = q.data.capacity();
        for t in 0..50 {
            q.push(&frame(2, 2, t as f64));
        }
        assert_eq!(q.data.as_ptr(), data_ptr, "storage must not reallocate");
        assert_eq!(q.data.capacity(), data_cap);
    }

    #[test]
    fn serde_round_trip_preserves_base_tick() {
        // Warm restart depends on absolute addressing surviving
        // snapshot/restore byte-for-byte.
        let mut q = KpiQueues::new(2, 1, 3);
        for t in 0..7 {
            q.push(&frame(2, 1, t as f64));
        }
        let json = serde_json::to_string(&q).expect("serialize");
        let back: KpiQueues = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.base_tick(), q.base_tick());
        assert_eq!(back.next_tick(), q.next_tick());
        assert_eq!(back.capacity(), q.capacity());
        assert_eq!(
            back.window(1, 0, q.base_tick(), 3),
            q.window(1, 0, q.base_tick(), 3)
        );
    }

    /// The exact v2 bytes of a 2x2x3 queue after four pushes (tick 0
    /// evicted): header fields, then `samples` series by series (db-major,
    /// then KPI), oldest first, each sample the 16 lowercase hex digits of
    /// its bits. Any drift in the layout fails here.
    #[test]
    fn serde_v2_layout_is_pinned_byte_for_byte() {
        let mut q = KpiQueues::new(2, 2, 3);
        for t in 0..4 {
            q.push(&frame(2, 2, t as f64));
        }
        let expected = concat!(
            r#"{"num_dbs":2,"num_kpis":2,"capacity":3,"base_tick":1,"len":4,"samples":""#,
            // (db 0, kpi 0): 1, 2, 3
            "3ff0000000000000",
            "4000000000000000",
            "4008000000000000",
            // (db 0, kpi 1): 2, 3, 4
            "4000000000000000",
            "4008000000000000",
            "4010000000000000",
            // (db 1, kpi 0): 11, 12, 13
            "4026000000000000",
            "4028000000000000",
            "402a000000000000",
            // (db 1, kpi 1): 12, 13, 14
            "4028000000000000",
            "402a000000000000",
            "402c000000000000",
            r#""}"#,
        );
        assert_eq!(serde_json::to_string(&q).expect("serialize"), expected);
        let back: KpiQueues = serde_json::from_str(expected).expect("parse fixture");
        assert_eq!(back.window(1, 0, 1, 3), Some(vec![11.0, 12.0, 13.0]));
        assert_eq!(back.window(0, 1, 1, 3), Some(vec![2.0, 3.0, 4.0]));
    }

    /// The direct snapshot writer emits exactly the bytes of the generic
    /// `Value` tree, for queues before, at and past their first eviction
    /// and across more than one hex push buffer.
    #[test]
    fn direct_snapshot_writer_matches_value_tree() {
        for (dbs, kpis, capacity, ticks) in [
            (1, 1, 1, 0),
            (2, 2, 3, 2),
            (2, 3, 70, 150),
            (5, 14, 120, 300),
        ] {
            let mut q = KpiQueues::new(dbs, kpis, capacity);
            for t in 0..ticks {
                q.push(&frame(dbs, kpis, t as f64 * 0.37 - 11.0));
            }
            let direct = serde_json::to_string(&q).expect("serialize");
            assert_eq!(
                direct,
                q.to_value().to_string(),
                "{dbs}x{kpis} cap {capacity} after {ticks}"
            );
            let mut catcher = DbCatcher::new(DbCatcherConfig::with_kpis(kpis), dbs);
            for t in 0..ticks {
                let _ = catcher.try_ingest_tick(&frame(dbs, kpis, (t % 17) as f64));
            }
            let snapshot = catcher.snapshot();
            assert_eq!(
                snapshot.to_json().expect("serialize"),
                snapshot.to_value().to_string()
            );
        }
    }

    /// Bit patterns a decimal round trip would lose or that sit on
    /// encoding edges.
    const SPECIAL_BITS: [u64; 8] = [
        0x7ff8_0000_0000_0000, // canonical quiet NaN
        0x7ff0_0000_dead_beef, // signalling NaN with a payload
        0xfff8_0000_0000_0001, // negative quiet NaN with a payload
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
    ];

    proptest! {
        /// Queues holding arbitrary bit patterns survive
        /// `DetectorSnapshot::{to_json, from_json}` bitwise, and
        /// re-encoding the restored queues reproduces the same document.
        #[test]
        fn snapshot_round_trips_arbitrary_bits_exactly(
            dbs in 1usize..4,
            kpis in 1usize..4,
            capacity in 1usize..6,
            ticks in 0usize..20,
            words in prop::collection::vec(any::<u64>(), 1..48),
            picks in prop::collection::vec(0usize..16, 1..48),
        ) {
            let mut q = KpiQueues::new(dbs, kpis, capacity);
            let mut n = 0usize;
            for _ in 0..ticks {
                let frame: Vec<Vec<f64>> = (0..dbs)
                    .map(|_| {
                        (0..kpis)
                            .map(|_| {
                                n += 1;
                                let bits = match picks[n % picks.len()] {
                                    p if p < SPECIAL_BITS.len() => SPECIAL_BITS[p],
                                    _ => words[n % words.len()],
                                };
                                f64::from_bits(bits)
                            })
                            .collect()
                    })
                    .collect();
                q.push(&frame);
            }
            let mut snapshot = DbCatcher::new(DbCatcherConfig::with_kpis(kpis), dbs).snapshot();
            snapshot.queues = q.clone();
            let json = snapshot.to_json().expect("serialize");
            let back = DetectorSnapshot::from_json(&json).expect("parse").queues;
            prop_assert_eq!(back.base_tick(), q.base_tick());
            prop_assert_eq!(back.next_tick(), q.next_tick());
            prop_assert_eq!(back.capacity(), q.capacity());
            let retained = (q.next_tick() - q.base_tick()) as usize;
            for db in 0..dbs {
                for kpi in 0..kpis {
                    let bits = |queues: &KpiQueues| -> Vec<u64> {
                        queues
                            .window_slice(db, kpi, q.base_tick(), retained)
                            .expect("retained span")
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    };
                    prop_assert_eq!(bits(&back), bits(&q));
                }
            }
            snapshot.queues = back;
            prop_assert_eq!(snapshot.to_json().expect("re-serialize"), json);
        }
    }

    /// Header fields that disagree with the payload, and a payload of the
    /// wrong type, are refused. Hostile `samples` contents are covered at
    /// the snapshot level (`snapshot::tests::hostile_samples_are_errors_not_panics`).
    #[test]
    fn serde_rejects_corrupt_snapshots() {
        let mut q = KpiQueues::new(1, 2, 2);
        q.push(&frame(1, 2, 0.5));
        let json = serde_json::to_string(&q).expect("serialize");
        // (db 0, kpi 0) = 0.5, (db 0, kpi 1) = 1.5
        let samples = "3fe00000000000003ff8000000000000";
        assert!(json.contains(samples), "{json}");
        let broken = [
            json.replace(r#""num_kpis":2"#, r#""num_kpis":1"#),
            json.replace(r#""num_dbs":1"#, r#""num_dbs":2"#),
            json.replace(r#""len":1"#, r#""len":2"#),
            json.replace(r#""capacity":2"#, r#""capacity":0"#),
            json.replace(r#""base_tick":0"#, r#""base_tick":2"#),
            json.replace(&format!("\"{samples}\""), "0"),
            json.replace(&format!("\"{samples}\""), "null"),
        ];
        for doc in &broken {
            assert_ne!(doc, &json, "fixture must actually change");
            assert!(
                serde_json::from_str::<KpiQueues>(doc).is_err(),
                "accepted corrupt queues: {doc}"
            );
        }
    }
}
