//! Read-side analytics over a sealed bundle store.
//!
//! The measurement pipeline writes segments; this crate serves them. Three
//! layers, one per module:
//!
//! - [`index`] — one parallel pass over the segments builds secondary
//!   indexes (per-day rollups, attacker and pool leaderboards, a
//!   slot-sorted sandwich list), persisted next to the manifest in the
//!   store's checksummed framing and keyed to the manifest generation.
//! - [`engine`] + [`cache`] — typed requests evaluate against one
//!   immutable index snapshot; a sharded LRU with single-flight
//!   deduplication makes the hot path allocation-free after first touch.
//! - [`frontend`] — the one `/api/*` front-end (admission, per-request
//!   generation pin, cached single-flight answers, the `/api/live`
//!   long-poll, probes, `query.*` metrics) over a [`Backend`];
//!   [`service`] is `queryd`'s local-engine backend, the shard router in
//!   `sandwich-shard` the scatter-gather one.
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod frontend;
pub mod index;
pub mod render;
pub mod service;

pub use cache::{CacheOutcome, CachedResponse, ResponseCache};
pub use engine::{
    decode_live_cursor, encode_live_cursor, origin_cursor, Engine, QueryRequest, DEFAULT_LIMIT,
    MAX_LIMIT, MAX_LIVE_WAIT_MS,
};
pub use frontend::{Backend, FrontEnd, DEFAULT_MAX_IN_FLIGHT};
pub use index::{
    build_index, build_index_subset, first_ref_after_cursor, fold_indexes, generation_of,
    live_minutes, load_index, load_index_any, load_index_as, merge_coverage, merge_days,
    merge_totals, minute_of, save_index, save_index_as, save_index_with, sort_attacker_entries,
    sort_pool_entries, sort_validator_entries, window_minutes, AttackerEntry, DayRollup,
    IndexCoverage, IndexReject, IndexTotals, LiveMinute, PoolEntry, QueryConfig, QueryIndex,
    SandwichRef, ValidatorEntry, INDEX_FILE, INDEX_MAGIC, LIVE_MINUTES, SLOTS_PER_MINUTE,
};
pub use service::{QueryService, QueryServiceConfig};
