//! The benchmark's fixed sizes, rates and cadences.
//!
//! Every constant here was chosen once, from the capacity measured at the
//! commit that introduced the benchmark on a 2-core host, and is never
//! recomputed from a run: both sides of a later comparison must see the
//! same load. `perfbench/README.md` lists them with the reasons.

/// `live`: set-up repetitions per run; `setup_s` is their median.
pub const LIVE_SETUP_REPS: usize = 3;
/// `ingest`: simulations built per run (each takes about 0.1 s).
pub const INGEST_SETUP_REPS: usize = 7;
/// Load-generator threads, and the most connections open at once.
pub const LOAD_THREADS: usize = 2;

/// `ingest`: the default scenario at 1/4000 of mainnet volume.
pub const INGEST_VOLUME_DENOMINATOR: f64 = 4_000.0;
/// `ingest`: simulated days (≈59k bundles).
pub const INGEST_DAYS: u64 = 16;
/// `ingest`: bundles per sealed segment.
pub const INGEST_SEGMENT_BUNDLES: usize = 5_000;
/// `ingest`: fixed arrival rate of the read probe over the collected store.
pub const INGEST_PROBE_RATE: f64 = 200.0;
/// `ingest`: share of `--seconds` the read probe runs for.
pub const INGEST_PROBE_SHARE: f64 = 0.4;

/// `serve`: bundles in the synthetic store.
pub const SERVE_BUNDLES: u64 = 1_000_000;
/// `serve`: store generations per run (each is a 1M-bundle write).
pub const SERVE_SETUP_REPS: usize = 2;
/// `serve`: days the store spans.
pub const SERVE_DAYS: u64 = 8;
/// `serve`: fixed open-loop arrival rate, single engine and router alike.
pub const SERVE_RATE: f64 = 200.0;
/// `serve`: shards behind the router.
pub const SERVE_SHARDS: usize = 2;

/// Share of the request mix that is a cold, distinct slot-range scan.
pub const COLD_SHARE: f64 = 0.1;
/// Width of a cold slot-range scan (one hour of slots).
pub const COLD_RANGE_SLOTS: u64 = 9_000;

/// `live`: bundles pre-filled before timing.
pub const LIVE_PREFILL_BUNDLES: u64 = 200_000;
/// `live`: days the pre-filled history spans.
pub const LIVE_DAYS: u64 = 32;
/// `live`: fixed append rate of the generator.
pub const LIVE_APPEND_RATE: f64 = 320.0;
/// `live`: bundles per sealed segment (the seal cadence).
pub const LIVE_SEAL_BUNDLES: usize = 960;
/// `live`: share of appended bundles that are planted sandwiches.
pub const LIVE_PLANT_DENSITY: f64 = 0.03;
/// `live`: fixed rate of the background hot-key reader.
pub const LIVE_READ_RATE: f64 = 50.0;
/// `live`: long-poll bound of the `/api/live` cursor client.
pub const LIVE_WAIT_MS: u64 = 1_000;
