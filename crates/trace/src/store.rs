//! The recorder's metric store: named counters and histograms as shared
//! atomic cells, readable at any instant without pausing writers.
//!
//! Locking discipline: the maps from name to cell sit behind `RwLock`s,
//! but the hot path — updating a metric that already exists — takes only
//! the read lock and then updates the cell's atomics. The write lock is
//! taken once per name, when it is first recorded. Snapshots take the
//! read lock and load each atomic; a histogram snapshot derives its count
//! from its bucket loads (see [`AtomicHistogram::snapshot`]), so it is
//! coherent even when taken mid-update.

use crate::histogram::{AtomicHistogram, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Named counters and histograms, updated in place from any thread.
#[derive(Default)]
pub(crate) struct Store {
    counters: RwLock<BTreeMap<String, AtomicU64>>,
    histograms: RwLock<BTreeMap<String, AtomicHistogram>>,
}

/// Apply `f` to the cell called `name`, creating it on first use: read
/// lock on the fast path, write lock only for a new name. Poisoning is
/// ignored — cells are atomics, never left half-written.
fn with_cell<T: Default, R>(
    map: &RwLock<BTreeMap<String, T>>,
    name: &str,
    f: impl FnOnce(&T) -> R,
) -> R {
    if let Some(cell) = map.read().unwrap_or_else(PoisonError::into_inner).get(name) {
        return f(cell);
    }
    let mut cells = map.write().unwrap_or_else(PoisonError::into_inner);
    f(cells.entry(name.to_owned()).or_default())
}

/// Every cell of `map`, read in name order.
fn read_all<T, V>(map: &RwLock<BTreeMap<String, T>>, read: impl Fn(&T) -> V) -> Vec<(String, V)> {
    map.read()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, cell)| (name.clone(), read(cell)))
        .collect()
}

impl Store {
    pub(crate) fn counter_add(&self, name: &str, delta: u64) {
        with_cell(&self.counters, name, |c| {
            // ordering: a monotone counter; readers tolerate any interleaving.
            c.fetch_add(delta, Ordering::Relaxed)
        });
    }

    pub(crate) fn observe_us(&self, name: &str, value_us: u64) {
        with_cell(&self.histograms, name, |h| h.observe_us(value_us));
    }

    pub(crate) fn counter(&self, name: &str) -> Option<u64> {
        let counters = self.counters.read().unwrap_or_else(PoisonError::into_inner);
        // ordering: a reporting read of a monotone counter.
        counters.get(name).map(|c| c.load(Ordering::Relaxed))
    }

    pub(crate) fn histogram(&self, name: &str) -> Option<Histogram> {
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        histograms.get(name).map(AtomicHistogram::snapshot)
    }

    pub(crate) fn counters(&self) -> Vec<(String, u64)> {
        // ordering: reporting reads of monotone counters.
        read_all(&self.counters, |c| c.load(Ordering::Relaxed))
    }

    pub(crate) fn histograms(&self) -> Vec<(String, Histogram)> {
        read_all(&self.histograms, AtomicHistogram::snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_round_trip_in_name_order() {
        let store = Store::default();
        store.counter_add("pairs", 3);
        store.counter_add("b", 1);
        store.counter_add("pairs", 4);
        store.observe_us("lat", 1);
        store.observe_us("lat", 1000);
        assert_eq!(store.counter("pairs"), Some(7));
        assert_eq!(store.counter("missing"), None);
        assert_eq!(
            store.counters(),
            vec![("b".to_string(), 1), ("pairs".to_string(), 7)]
        );
        let h = store.histogram("lat").expect("histogram recorded");
        assert_eq!((h.count(), h.sum_us()), (2, 1001));
        assert_eq!((h.min_us(), h.max_us()), (Some(1), Some(1000)));
        assert_eq!(store.histograms(), vec![("lat".to_string(), h)]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Hammer a store from several threads while snapshotting
            /// concurrently: every snapshot is coherent — a histogram's
            /// count is its bucket sum, and nothing goes backwards — and
            /// once the writers have joined, the totals are exact and
            /// `min`/`max` are the smallest and largest values observed.
            #[test]
            fn prop_snapshots_mid_update_are_coherent(
                per_thread in 1usize..200,
                threads in 2usize..5,
                values in proptest::collection::vec(0u64..=1 << 30, 1..8),
            ) {
                let store = Store::default();
                let snaps = std::thread::scope(|scope| {
                    for t in 0..threads {
                        let (store, values) = (&store, &values);
                        scope.spawn(move || {
                            for i in 0..per_thread {
                                store.counter_add("c", 1);
                                store.observe_us("h", values[(t + i) % values.len()]);
                            }
                        });
                    }
                    // Snapshot continuously while the writers hammer.
                    (0..50)
                        .map(|_| (store.counters(), store.histograms()))
                        .collect::<Vec<_>>()
                });
                let (mut last_count, mut last_hist) = (0u64, 0u64);
                for (counters, histograms) in &snaps {
                    if let Some((_, h)) = histograms.iter().find(|(n, _)| n == "h") {
                        let bucket_sum: u64 = h.bucket_counts().iter().sum();
                        prop_assert_eq!(h.count(), bucket_sum);
                        prop_assert!(h.count() >= last_hist, "histogram went backwards");
                        last_hist = h.count();
                    }
                    if let Some(&(_, c)) = counters.iter().find(|(n, _)| n == "c") {
                        prop_assert!(c >= last_count, "counter went backwards");
                        last_count = c;
                    }
                }
                let written: Vec<u64> = (0..threads)
                    .flat_map(|t| (0..per_thread).map(move |i| (t, i)))
                    .map(|(t, i)| values[(t + i) % values.len()])
                    .collect();
                let total = written.len() as u64;
                prop_assert_eq!(store.counter("c"), Some(total));
                let h = store.histogram("h").expect("histogram exists");
                prop_assert_eq!(h.count(), total);
                prop_assert_eq!(h.min_us(), written.iter().min().copied());
                prop_assert_eq!(h.max_us(), written.iter().max().copied());
            }
        }
    }
}
