//! Sharded LRU response cache with single-flight deduplication.
//!
//! Keys carry the manifest generation, so a reload invalidates every cached
//! response implicitly — stale entries simply stop being addressable and
//! age out of the LRU. Identical concurrent misses are deduplicated: the
//! first request evaluates, the rest await the published result on a
//! `watch` channel instead of re-evaluating. A server error (5xx) is
//! published to those waiters but never inserted: a transient failure
//! (a dead shard, a reload in flight) is retried by the next request,
//! not served for the rest of the generation.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tokio::sync::watch;

use sandwich_store::fnv1a64;

/// One cached HTTP response body, shared between waiters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedResponse {
    /// HTTP status code.
    pub status: u16,
    /// Value of the `content-type` header.
    pub content_type: String,
    /// The exact response body bytes.
    pub body: Vec<u8>,
}

/// How a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a resident entry.
    Hit,
    /// Evaluated by this request and inserted.
    Miss,
    /// Waited on an identical in-flight evaluation.
    Deduped,
}

type Slot = watch::Receiver<Option<Arc<CachedResponse>>>;

struct Shard {
    entries: HashMap<String, (u64, Arc<CachedResponse>)>,
    inflight: HashMap<String, Slot>,
    stamp: u64,
}

impl Shard {
    fn touch(&mut self, key: &str) -> Option<Arc<CachedResponse>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(key).map(|slot| {
            slot.0 = stamp;
            slot.1.clone()
        })
    }

    /// Insert, evicting the least-recently-used entry at capacity.
    /// Returns the number of evictions (0 or 1).
    fn insert(&mut self, key: String, value: Arc<CachedResponse>, cap: usize) -> u64 {
        let mut evicted = 0;
        if self.entries.len() >= cap && !self.entries.contains_key(&key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                evicted = 1;
            }
        }
        self.stamp += 1;
        self.entries.insert(key, (self.stamp, value));
        evicted
    }
}

/// A leader's claim on an in-flight key. If the leader never publishes —
/// its compute panicked or its future was dropped — the claim is released
/// on drop; otherwise every later lookup of the key would wait on a
/// channel that can never fire.
struct LeaderSlot<'a> {
    shard: &'a Mutex<Shard>,
    key: &'a str,
    armed: bool,
}

impl Drop for LeaderSlot<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shard.lock().inflight.remove(self.key);
        }
    }
}

/// The cache: `shards` independent LRU maps, each bounded to
/// `per_shard_cap` entries.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
}

impl ResponseCache {
    /// Create a cache of `shards` shards, `per_shard_cap` entries each.
    pub fn new(shards: usize, per_shard_cap: usize) -> Self {
        let shards = shards.max(1);
        ResponseCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        inflight: HashMap::new(),
                        stamp: 0,
                    })
                })
                .collect(),
            per_shard_cap: per_shard_cap.max(1),
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        let i = (fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize;
        &self.shards[i]
    }

    /// Resident entries across all shards (for tests and gauges).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look `key` up; on a miss run `compute` (synchronously, outside the
    /// shard lock) and publish the result to every concurrent waiter.
    /// Returns the response, how it was obtained, and how many entries the
    /// insert evicted.
    pub async fn get_or_compute<F>(
        &self,
        key: &str,
        compute: F,
    ) -> (Arc<CachedResponse>, CacheOutcome, u64)
    where
        F: FnOnce() -> CachedResponse,
    {
        self.get_or_compute_async(key, || std::future::ready(compute()))
            .await
    }

    /// [`Self::get_or_compute`] with an **async** compute — the shard
    /// router's miss path fans out over sockets and must await inside the
    /// leader slot. Identical single-flight semantics: one leader runs the
    /// future, concurrent identical misses await the published result.
    pub async fn get_or_compute_async<F, Fut>(
        &self,
        key: &str,
        compute: F,
    ) -> (Arc<CachedResponse>, CacheOutcome, u64)
    where
        F: FnOnce() -> Fut,
        Fut: std::future::Future<Output = CachedResponse>,
    {
        let mut compute = Some(compute);
        loop {
            enum Plan {
                Found(Arc<CachedResponse>),
                Wait(Slot),
                Lead(watch::Sender<Option<Arc<CachedResponse>>>),
            }
            let plan = {
                let mut shard = self.shard_of(key).lock();
                if let Some(found) = shard.touch(key) {
                    Plan::Found(found)
                } else if let Some(rx) = shard.inflight.get(key) {
                    Plan::Wait(rx.clone())
                } else {
                    let (tx, rx) = watch::channel(None);
                    shard.inflight.insert(key.to_string(), rx);
                    Plan::Lead(tx)
                }
            };
            match plan {
                Plan::Found(found) => return (found, CacheOutcome::Hit, 0),
                Plan::Wait(mut rx) => loop {
                    if let Some(value) = rx.borrow_and_update() {
                        return (value, CacheOutcome::Deduped, 0);
                    }
                    if rx.changed().await.is_err() {
                        // The leader vanished without publishing; start over
                        // (we may become the new leader).
                        break;
                    }
                },
                Plan::Lead(tx) => {
                    let Some(compute) = compute.take() else {
                        unreachable!("leader role is taken at most once per call");
                    };
                    // Declared after `tx`, so dropped before it: a leader
                    // that never publishes frees its slot before waiters
                    // wake, and one of them takes the lead.
                    let mut slot = LeaderSlot {
                        shard: self.shard_of(key),
                        key,
                        armed: true,
                    };
                    let value = Arc::new(compute().await);
                    let evicted = {
                        let mut shard = slot.shard.lock();
                        shard.inflight.remove(key);
                        slot.armed = false;
                        if value.status >= 500 {
                            0
                        } else {
                            shard.insert(key.to_string(), value.clone(), self.per_shard_cap)
                        }
                    };
                    let _ = tx.send(Some(value.clone()));
                    return (value, CacheOutcome::Miss, evicted);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(tag: &str) -> CachedResponse {
        CachedResponse {
            status: 200,
            content_type: "application/json".into(),
            body: tag.as_bytes().to_vec(),
        }
    }

    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        tokio::runtime::Builder::new_multi_thread()
            .enable_all()
            .build()
            .unwrap()
            .block_on(fut)
    }

    #[test]
    fn hit_after_miss_and_distinct_keys() {
        block_on(async {
            let cache = ResponseCache::new(4, 8);
            let (a, outcome, _) = cache.get_or_compute("k1", || response("one")).await;
            assert_eq!(outcome, CacheOutcome::Miss);
            assert_eq!(a.body, b"one");
            let (b, outcome, _) = cache
                .get_or_compute("k1", || panic!("must not recompute"))
                .await;
            assert_eq!(outcome, CacheOutcome::Hit);
            assert_eq!(b.body, b"one");
            let (_, outcome, _) = cache.get_or_compute("k2", || response("two")).await;
            assert_eq!(outcome, CacheOutcome::Miss);
            assert_eq!(cache.len(), 2);
        });
    }

    #[test]
    fn lru_evicts_oldest_within_a_shard() {
        block_on(async {
            // One shard, capacity two: the least recently used key falls out.
            let cache = ResponseCache::new(1, 2);
            cache.get_or_compute("a", || response("a")).await;
            cache.get_or_compute("b", || response("b")).await;
            cache.get_or_compute("a", || panic!("hit")).await; // refresh a
            let (_, _, evicted) = cache.get_or_compute("c", || response("c")).await;
            assert_eq!(evicted, 1, "inserting c at capacity evicts b");
            let (_, outcome, _) = cache.get_or_compute("a", || panic!("hit")).await;
            assert_eq!(outcome, CacheOutcome::Hit, "a survived as most recent");
            let (_, outcome, _) = cache.get_or_compute("b", || response("b2")).await;
            assert_eq!(outcome, CacheOutcome::Miss, "b was evicted");
        });
    }

    #[test]
    fn concurrent_identical_misses_single_flight() {
        block_on(async {
            let cache = Arc::new(ResponseCache::new(2, 8));
            let computes = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let mut set = tokio::task::JoinSet::new();
            for _ in 0..8 {
                let cache = cache.clone();
                let computes = computes.clone();
                set.spawn(async move {
                    let (value, outcome, _) = cache
                        .get_or_compute("hot", || {
                            computes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            // Widen the in-flight window so peers dedupe.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            response("hot")
                        })
                        .await;
                    assert_eq!(value.body, b"hot");
                    outcome
                });
            }
            let mut outcomes = Vec::new();
            while let Some(joined) = set.join_next().await {
                outcomes.push(joined.unwrap());
            }
            assert_eq!(
                computes.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "exactly one evaluation for eight identical concurrent requests"
            );
            assert_eq!(
                outcomes
                    .iter()
                    .filter(|o| **o == CacheOutcome::Miss)
                    .count(),
                1
            );
            assert!(outcomes.iter().all(|o| matches!(
                o,
                CacheOutcome::Miss | CacheOutcome::Deduped | CacheOutcome::Hit
            )));
        });
    }

    #[test]
    fn panicking_leader_does_not_poison_its_key() {
        // Bounded by a timeout, never by a hang: a poisoned key makes the
        // second lookup spin forever.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            block_on(async {
                let cache = Arc::new(ResponseCache::new(1, 4));
                let leader = {
                    let cache = cache.clone();
                    tokio::spawn(async move {
                        cache.get_or_compute("k", || panic!("compute failed")).await
                    })
                };
                assert!(leader.await.is_err(), "the leader's compute panicked");
                let (value, outcome, _) = cache.get_or_compute("k", || response("ok")).await;
                let _ = done.send((value.body.clone(), outcome));
            })
        });
        let (body, outcome) = finished
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a lookup after a panicking leader must not hang");
        assert_eq!(body, b"ok");
        assert_eq!(outcome, CacheOutcome::Miss);
    }
}
