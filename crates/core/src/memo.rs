//! One tiered cache for every memoized artifact: memory → disk → compute.
//!
//! Each artifact kind — the `front`, `expand` and `profile` stages, the
//! empirical gate's reference leg (`gate`), per-function codegen
//! (`fnmir`), pre-backend verification verdicts (`verify`) and whole
//! bench cells (`cell`) — is one [`Memo`], keyed by the kind's name plus
//! a `u64` content fingerprint ([`crate::fingerprint`]). A kind with a
//! [`crate::wire`] codec also has a disk tier: lookups fall through to
//! the active [`crate::store`] under the same `(kind, key)` and computed
//! values are published there. `front` and `verify` are cheap enough to
//! stay memory-only.
//!
//! **Computed once.** A lookup holds its key's slot from the memory
//! check until the value is published, so concurrent misses on one key
//! compute once: the first caller computes, the rest wait and then hit
//! memory. An `Err` from the maker — or a value the kind declines to
//! publish (a function artifact that failed verification) — is returned
//! to its caller only; the next waiter computes again. A maker that
//! panics leaves its slot empty and the next caller recomputes (a
//! poisoned slot holds no partial state, so its lock is recovered).
//!
//! A maker may look up other kinds while it holds its own slot. The
//! kinds nest in one order only — cell → gate → fnmir, cell → verify and
//! cell → profile → expand → front — so waiting never forms a cycle.
//!
//! Counters are per kind and cumulative. [`set_enabled`] turns every
//! kind off process-wide (each lookup computes, counters stand still);
//! a `bypass` lookup does the same for one call.

use crate::store;
use crate::wire::WireError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where a lookup's value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The process-wide memory tier.
    Memory,
    /// The persistent artifact store ([`crate::store`]).
    Disk,
    /// Computed by this lookup.
    Computed,
}

impl Source {
    /// Stable lowercase label for JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            Source::Memory => "memory",
            Source::Disk => "disk",
            Source::Computed => "computed",
        }
    }

    /// Whether the work was saved (served from either tier).
    pub(crate) fn hit(self) -> bool {
        self != Source::Computed
    }
}

/// Cumulative counters of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct KindStats {
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups whose maker ran and returned a value.
    pub misses: u64,
    /// Hits served from the store (also counted in `hits`).
    pub disk_hits: u64,
    /// Memory misses that consulted an active store and found nothing
    /// usable.
    pub disk_misses: u64,
}

/// A kind's [`crate::wire`] codec pair.
struct Codec<T> {
    enc: fn(&T) -> Vec<u8>,
    dec: fn(&[u8]) -> Result<T, WireError>,
}

/// One value slot; its lock is held while the value is computed.
type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

/// The memoized artifacts of one kind.
pub struct Memo<T> {
    kind: &'static str,
    codec: Option<Codec<T>>,
    publish: fn(&T) -> bool,
    slots: Mutex<HashMap<u64, Slot<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables every kind process-wide.
pub(crate) fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether the caches are enabled.
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Locks `m`, recovering from poison: every guarded value here is only
/// ever replaced whole, so a panicking holder leaves it valid.
fn lock<G>(m: &Mutex<G>) -> MutexGuard<'_, G> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Memo<T> {
    /// A memory-only kind that publishes every value.
    pub fn new(kind: &'static str) -> Memo<T> {
        Memo {
            kind,
            codec: None,
            publish: |_| true,
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
        }
    }

    /// Adds a disk tier through the active store, stored under this
    /// kind's name with the given codec.
    pub fn with_disk(
        mut self,
        enc: fn(&T) -> Vec<u8>,
        dec: fn(&[u8]) -> Result<T, WireError>,
    ) -> Memo<T> {
        self.codec = Some(Codec { enc, dec });
        self
    }

    /// Publishes only values for which `keep` holds; the rest are
    /// returned to their caller and recomputed by the next lookup.
    pub(crate) fn publish_if(mut self, keep: fn(&T) -> bool) -> Memo<T> {
        self.publish = keep;
        self
    }

    /// Looks `key` up memory → disk → compute (`make`), publishing a
    /// computed value to both tiers. With `bypass` (or the caches
    /// disabled) `make` runs and nothing is read or published.
    ///
    /// # Errors
    /// Returns `make`'s error; it is never cached.
    pub(crate) fn try_get<E>(
        &self,
        key: u64,
        bypass: bool,
        make: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, Source), E> {
        if bypass || !enabled() {
            return Ok((Arc::new(make()?), Source::Computed));
        }
        let slot = Arc::clone(lock(&self.slots).entry(key).or_default());
        let mut held = lock(&slot);
        if let Some(v) = &*held {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(v), Source::Memory));
        }
        let store = self.codec.as_ref().and_then(|_| store::active());
        if let (Some(codec), Some(store)) = (&self.codec, &store) {
            if let Some(v) = store::get_decoded(store, self.kind, key, codec.dec) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let v = Arc::new(v);
                *held = Some(Arc::clone(&v));
                return Ok((v, Source::Disk));
            }
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
        }
        let v = Arc::new(make()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if (self.publish)(&v) {
            *held = Some(Arc::clone(&v));
            drop(held);
            if let (Some(codec), Some(store)) = (&self.codec, &store) {
                store.put(self.kind, key, &(codec.enc)(&v));
            }
        }
        Ok((v, Source::Computed))
    }

    /// [`Memo::try_get`] for a maker that cannot fail, never bypassed.
    pub fn get(&self, key: u64, make: impl FnOnce() -> T) -> (Arc<T>, Source) {
        match self.try_get(key, false, || Ok::<T, std::convert::Infallible>(make())) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    /// Drops every memory-tier value of this kind (counters and the disk
    /// tier are kept).
    pub fn clear(&self) {
        lock(&self.slots).clear();
    }

    /// Snapshot of this kind's counters.
    pub(crate) fn stats(&self) -> KindStats {
        KindStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    const THREADS: usize = 8;

    /// Runs `f` on [`THREADS`] threads released together by a barrier.
    fn race<R: Send>(f: impl Fn() -> R + Sync) -> Vec<R> {
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        f()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("racer panicked"))
                .collect()
        })
    }

    #[test]
    fn concurrent_misses_on_one_key_compute_once() {
        let memo: Memo<u64> = Memo::new("test");
        let runs = AtomicUsize::new(0);
        let got = race(|| {
            memo.get(7, || {
                runs.fetch_add(1, Ordering::SeqCst);
                // Hold the slot while the others arrive, so most of them
                // wait on it; the assertions hold in any interleaving.
                std::thread::sleep(std::time::Duration::from_millis(20));
                49
            })
        });
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "the maker ran more than once"
        );
        assert!(got.iter().all(|(v, _)| **v == 49));
        let computed = got.iter().filter(|(_, s)| *s == Source::Computed).count();
        assert_eq!(computed, 1);
        let first = &got[0].0;
        assert!(
            got.iter().all(|(v, _)| Arc::ptr_eq(v, first)),
            "one shared value"
        );
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (THREADS as u64 - 1, 1));
    }

    #[test]
    fn errors_are_not_cached_and_release_waiters() {
        let memo: Memo<u64> = Memo::new("test");
        let runs = AtomicUsize::new(0);
        let got = race(|| {
            memo.try_get(3, false, || {
                runs.fetch_add(1, Ordering::SeqCst);
                Err::<u64, &str>("nope")
            })
        });
        // Every racer ran the maker in turn and saw its own error.
        assert_eq!(runs.load(Ordering::SeqCst), THREADS);
        assert!(got.iter().all(|r| *r == Err("nope")));
        assert_eq!(memo.stats(), KindStats::default());
        // A later success is cached as usual.
        let (v, src) = memo.get(3, || 9);
        assert_eq!((*v, src), (9, Source::Computed));
        assert_eq!(memo.get(3, || 0).1, Source::Memory);
    }

    #[test]
    fn unpublished_values_are_returned_but_recomputed() {
        let memo: Memo<u64> = Memo::new("test").publish_if(|v| *v % 2 == 0);
        assert_eq!(*memo.get(1, || 5).0, 5);
        assert_eq!(memo.get(1, || 6), (Arc::new(6), Source::Computed));
        assert_eq!(memo.get(1, || 0), (Arc::new(6), Source::Memory));
    }

    #[test]
    fn panicking_maker_is_followed_by_a_clean_recompute() {
        let memo: Memo<u64> = Memo::new("test");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get(5, || panic!("maker failed"))
        }));
        assert!(caught.is_err());
        let (v, src) = memo.get(5, || 25);
        assert_eq!((*v, src), (25, Source::Computed));
        assert_eq!(memo.get(5, || 0).1, Source::Memory);
    }

    #[test]
    fn bypass_and_clear_skip_the_memory_tier() {
        let memo: Memo<u64> = Memo::new("test");
        memo.get(1, || 1);
        let bypassed = memo.try_get(1, true, || Ok::<u64, ()>(2)).unwrap();
        assert_eq!((*bypassed.0, bypassed.1), (2, Source::Computed));
        assert_eq!(*memo.get(1, || 3).0, 1);
        memo.clear();
        assert_eq!(*memo.get(1, || 4).0, 4);
    }
}
