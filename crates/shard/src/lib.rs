//! Horizontal sharding for the query-serving subsystem.
//!
//! One `queryd` owns one store directory and one index; this crate
//! partitions the sealed segments by slot range across N shard engines
//! and serves them behind a scatter-gather router:
//!
//! - [`map`] — the [`ShardMap`]: a persisted, generation-keyed assignment
//!   of every manifest segment (serving and quarantined) to exactly one
//!   shard, planned deterministically by slot order and balanced by
//!   bundle count.
//! - [`merge`] — the wire partials each shard serves under `/shard/*`
//!   and the pure, associative merge functions the router folds them
//!   with. Merged inputs feed the same `sandwich-query` render layer the
//!   single-engine path uses, so responses are byte-identical at every
//!   shard count.
//! - [`shard`] — [`ShardService`]: one engine per shard, built with
//!   `build_index_subset` over the shard's slice of the manifest,
//!   persisted per-shard, with its own response cache; it mounts the
//!   shared endpoint table under `/shard/` and the shared probes.
//! - [`router`] — [`RouterService`]: `sandwich-query`'s one `/api/*`
//!   front-end (admission, cache, long-poll, metrics, probes) over a
//!   scatter-gather backend that fans each request out to the shards,
//!   checks generation agreement, merges partials, re-paginates, and
//!   aggregates readiness (degraded-but-serving while at least one shard
//!   is ready).
//! - [`cluster`] — single-process assembly: N shard listeners plus the
//!   router over real sockets, so multi-node is a config change, not a
//!   rewrite.

#![warn(missing_docs)]

pub mod cluster;
pub mod map;
pub mod merge;
pub mod router;
pub mod shard;

pub use cluster::{ClusterConfig, ServingCluster};
pub use map::{ShardMap, ShardMapReject, ShardSpec, SHARD_MAP_FILE, SHARD_MAP_MAGIC};
pub use router::RouterService;
pub use shard::{shard_index_file, ShardConfig, ShardService, SHARD_INDEX_PREFIX};
