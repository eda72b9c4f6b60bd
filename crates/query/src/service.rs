//! The `queryd` service: the shared [`FrontEnd`] over one local engine,
//! plus the engine lifecycle (load-fold-or-build on open, atomic swap on
//! reload).
//!
//! Reloads are **incremental**: a generation change is absorbed by
//! scanning only the manifest delta and folding it into the live index,
//! which is byte-identical to a full rebuild; `query.index.full_rebuilds`
//! counts the (expected-never) fallbacks. `/api/live` long-polls wait for
//! the next fold.
//!
//! Consistency model: a request pins the engine `Arc` it answers from
//! (the front-end's per-request pin), so every response is computed
//! against a single manifest generation even while a reload swaps the
//! engine mid-flight — there are no torn reads by construction.
//!
//! Degraded mode: the service keeps serving through partial failure
//! instead of dying. Index builds skip unreadable segments (coverage is
//! reported on `/api/summary`), and a failed reload keeps the last good
//! engine serving (stale-while-revalidate; `/readyz` flips to 503 until
//! a reload succeeds). Admission control and the probes are the
//! front-end's.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use sandwich_net::Router;
use sandwich_obs::{names, Registry};
use sandwich_store::{BundleStore, Manifest};
use sandwich_types::Hash;

use crate::cache::CachedResponse;
use crate::engine::{Engine, QueryRequest};
use crate::frontend::{Backend, FrontEnd, DEFAULT_MAX_IN_FLIGHT};
use crate::index::{
    build_index, build_index_subset, fold_indexes, generation_of, load_index, load_index_any,
    save_index, IndexReject, QueryConfig, QueryIndex, INDEX_FILE,
};

/// Tunables for one service instance.
#[derive(Clone, Debug)]
pub struct QueryServiceConfig {
    /// Directory of the sealed bundle store (and the persisted index).
    pub store_dir: PathBuf,
    /// Index-build semantics (detector, threshold, clock, threads).
    pub query: QueryConfig,
    /// Bound on concurrently-admitted API requests; excess load is shed
    /// with `503` + `Retry-After`. Zero admits nothing (useful in tests);
    /// `/healthz`, `/readyz`, and `/metrics` are always exempt.
    pub max_in_flight: usize,
}

impl QueryServiceConfig {
    /// Paper-default semantics over `store_dir`.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        QueryServiceConfig {
            store_dir: store_dir.into(),
            query: QueryConfig::default(),
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        }
    }
}

/// The local backend: one engine snapshot at a time, swapped on reload.
struct Local {
    config: QueryServiceConfig,
    engine: RwLock<Arc<Engine>>,
    registry: Registry,
    /// Whether the most recent reload attempt succeeded. Starts true (an
    /// open that fails never constructs a service at all).
    last_reload_ok: AtomicBool,
}

impl Backend for Local {
    type Pin = Arc<Engine>;

    const LONG_POLL_TICK: Duration = Duration::from_millis(12);

    fn pin(&self) -> Arc<Engine> {
        self.engine.read().clone()
    }

    fn generation(pin: &Arc<Engine>) -> &str {
        pin.generation()
    }

    async fn evaluate(&self, pin: &Arc<Engine>, query: &QueryRequest) -> CachedResponse {
        pin.evaluate(query)
    }

    async fn live_rows_after(&self, pin: &Arc<Engine>, after_slot: u64, after_id: &Hash) -> usize {
        pin.live_rows_after(after_slot, after_id)
    }

    fn health_fields(&self) -> String {
        String::new()
    }

    /// Not ready while the last reload failed (the stale generation keeps
    /// serving); also reports whether the index covers the whole store.
    async fn readiness(&self, pin: &Arc<Engine>) -> (bool, String) {
        let complete = pin.index().coverage.complete();
        (
            self.last_reload_ok.load(Ordering::Acquire),
            format!(",\"complete\":{complete}"),
        )
    }
}

/// The query service: open once, serve many, reload on demand.
#[derive(Clone)]
pub struct QueryService {
    front: FrontEnd<Local>,
}

/// Rebuild the whole index from segments, persist it, and record timing.
fn rebuild_all(
    store: &BundleStore,
    config: &QueryConfig,
    registry: &Registry,
) -> std::io::Result<QueryIndex> {
    let started = Instant::now();
    let index = build_index(store, config)?;
    registry
        .histogram(names::QUERY_INDEX_BUILD_SECONDS)
        .observe(started.elapsed().as_secs_f64());
    registry.counter(names::QUERY_INDEX_REBUILDS).inc();
    save_index(store.dir(), &index)?;
    Ok(index)
}

/// Try to absorb a generation change by folding only the manifest delta
/// into `base` (an index built for an earlier generation of the same
/// store). Returns `Ok(None)` when the delta is not foldable — a covered
/// segment left the serving or quarantine list, or the base itself is
/// incomplete — and the caller must rebuild from scratch.
///
/// The fold scans only the *new* segments and merges their partial with
/// the base through the same associative merge the full build uses, so
/// the result is byte-identical to a from-scratch rebuild (the invariant
/// `tests/live_fold_props.rs` pins).
fn fold_from_base(
    store: &BundleStore,
    base: QueryIndex,
    generation: &str,
    config: &QueryConfig,
    registry: &Registry,
) -> std::io::Result<Option<QueryIndex>> {
    // A base that skipped segments (degraded build) or predates per-file
    // coverage tracking cannot prove what it already scanned: folding
    // would bake the gap in forever, so rebuild instead.
    if base.coverage.segments_failed > 0
        || base.segment_files.len() as u64 != base.coverage.segments_total
    {
        return Ok(None);
    }
    // An attribution-stale base — built under a different (or no)
    // validator spec than the manifest now carries — cannot be folded:
    // its refs lack or mis-assign leaders, and the fold would bake that
    // in forever. Rebuild from segments under the current spec instead.
    if base.validator_spec != store.manifest().validators {
        registry.counter(names::ATTRIB_SPEC_MISMATCH_REBUILDS).inc();
        return Ok(None);
    }
    let Some(delta) = store
        .manifest()
        .delta_from(&base.segment_files, &base.quarantined_files)
    else {
        return Ok(None);
    };
    let started = Instant::now();
    let delta_index =
        build_index_subset(store, config, &delta.new_serving, &delta.new_quarantined)?;
    let folded = fold_indexes(generation, vec![base, delta_index], config);
    registry.counter(names::QUERY_INDEX_FOLDS).inc();
    registry
        .counter(names::QUERY_INDEX_FOLD_SEGMENTS)
        .add(delta.len() as u64);
    registry
        .histogram(names::QUERY_INDEX_FOLD_SECONDS)
        .observe(started.elapsed().as_secs_f64());
    Ok(Some(folded))
}

/// Fold the manifest delta into `base` and persist the result when the
/// delta is foldable; otherwise rebuild from segments (counted as a full
/// rebuild).
fn fold_or_rebuild(
    store: &BundleStore,
    base: Option<QueryIndex>,
    generation: &str,
    config: &QueryConfig,
    registry: &Registry,
) -> std::io::Result<QueryIndex> {
    if let Some(base) = base {
        if let Some(folded) = fold_from_base(store, base, generation, config, registry)? {
            save_index(store.dir(), &folded)?;
            return Ok(folded);
        }
    }
    registry.counter(names::QUERY_INDEX_FULL_REBUILDS).inc();
    rebuild_all(store, config, registry)
}

/// Wrap an index that is about to go live in an engine, recording its
/// failed segments and its attribution coverage: one schedule build when
/// a validator spec was in play, plus how many sealed sandwiches joined
/// to a slot leader and how many fell back to the unattributed decode
/// path.
fn go_live(index: QueryIndex, registry: &Registry) -> Engine {
    if index.coverage.segments_failed > 0 {
        registry
            .counter(names::QUERY_INDEX_SEGMENTS_FAILED)
            .add(index.coverage.segments_failed);
    }
    if index.validator_spec.is_some() {
        registry.counter(names::ATTRIB_SCHEDULE_BUILDS).inc();
    }
    let joined = index.refs.iter().filter(|r| r.leader.is_some()).count() as u64;
    let unattributed = index.refs.len() as u64 - joined;
    if joined > 0 {
        registry.counter(names::ATTRIB_JOINS).add(joined);
    }
    if unattributed > 0 {
        registry
            .counter(names::ATTRIB_UNATTRIBUTED)
            .add(unattributed);
    }
    Engine::new(Arc::new(index))
}

/// Load the persisted index when it verifies, fold forward when it is
/// merely stale, rebuild from segments only when neither works, and
/// record which happened.
fn load_or_build(
    store: &BundleStore,
    config: &QueryConfig,
    registry: &Registry,
) -> std::io::Result<Engine> {
    let generation = generation_of(store.manifest());
    let index = match load_index(store.dir(), &generation) {
        Ok(index) => {
            registry.counter(names::QUERY_INDEX_LOADS).inc();
            index
        }
        Err(IndexReject::StaleGeneration { .. }) => {
            // The frame is intact, just older: fold the manifest delta
            // into it instead of rescanning the world.
            let base = load_index_any(store.dir(), INDEX_FILE).ok();
            fold_or_rebuild(store, base, &generation, config, registry)?
        }
        Err(reject) => {
            if reject != IndexReject::Missing {
                registry.counter(names::QUERY_INDEX_REJECTED).inc();
            }
            rebuild_all(store, config, registry)?
        }
    };
    Ok(go_live(index, registry))
}

impl QueryService {
    /// Open the store, load or build the index, and make the service
    /// ready to serve. Metrics land in `registry`.
    pub fn open(config: QueryServiceConfig, registry: Registry) -> std::io::Result<QueryService> {
        let store = BundleStore::open(&config.store_dir)?;
        let engine = load_or_build(&store, &config.query, &registry)?;
        let max_in_flight = config.max_in_flight;
        let local = Local {
            config,
            engine: RwLock::new(Arc::new(engine)),
            registry: registry.clone(),
            last_reload_ok: AtomicBool::new(true),
        };
        Ok(QueryService {
            front: FrontEnd::new(local, max_in_flight, registry),
        })
    }

    /// The generation currently being served.
    pub fn generation(&self) -> String {
        self.engine_snapshot().generation().to_string()
    }

    /// The metrics registry this service records into.
    pub fn registry(&self) -> &Registry {
        self.front.registry()
    }

    /// The engine snapshot currently serving (for harnesses that compare
    /// live responses against uncached evaluation).
    pub fn engine_snapshot(&self) -> Arc<Engine> {
        self.front.backend().pin()
    }

    /// The API router: `/api/*`, `/healthz`, `/readyz`, and `/metrics`.
    pub fn router(&self) -> Router {
        self.front.router()
    }

    /// Re-check the manifest; when its generation changed, load-or-build
    /// the new index and swap it in atomically. Returns `true` when a new
    /// generation went live. In-flight requests keep the engine snapshot
    /// they already took.
    ///
    /// Stale-while-revalidate: a failed reload leaves the last good
    /// engine serving and flips `/readyz` to 503 until a later reload
    /// succeeds. The error is still returned for the caller to log.
    pub fn reload(&self) -> std::io::Result<bool> {
        let local = self.front.backend();
        let result = local.reload();
        local
            .last_reload_ok
            .store(result.is_ok(), Ordering::Release);
        result
    }
}

impl Local {
    fn reload(&self) -> std::io::Result<bool> {
        let manifest = Manifest::load(&self.config.store_dir)?;
        let generation = generation_of(&manifest);
        // Same generation (including a no-op manifest touch): nothing to
        // do, and crucially the response cache — whose keys are
        // generation-prefixed — keeps every warm entry.
        if *self.engine.read().generation() == generation {
            return Ok(false);
        }
        let store = BundleStore::open(&self.config.store_dir)?;
        let generation = generation_of(store.manifest());
        let registry = &self.registry;
        let config = &self.config.query;
        // Fold forward from the index already in memory — the common
        // seal-only case scans just the new segments. Anything else
        // (compaction, quarantine of a covered segment) falls back to a
        // full rebuild.
        let base = self.engine.read().index().clone();
        let index = fold_or_rebuild(&store, Some(base), &generation, config, registry)?;
        *self.engine.write() = Arc::new(go_live(index, registry));
        registry.counter(names::QUERY_RELOADS).inc();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_net::{HttpClient, Server};
    use sandwich_store::{CollectedBundle, StoreWriter};
    use sandwich_types::{Hash, Keypair, Lamports, Slot};

    fn bundle(seed: u64, slot: u64, tip: u64) -> CollectedBundle {
        let kp = Keypair::from_label("qsvc");
        CollectedBundle {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot: Slot(slot),
            timestamp_ms: slot * 400,
            tip: Lamports(tip),
            tx_ids: vec![kp.sign(&seed.to_le_bytes())],
        }
    }

    fn seed_store(tag: &str, segments: u64) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swqsvc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = StoreWriter::create(&dir).unwrap();
        for seg in 0..segments {
            let bundles: Vec<_> = (0..10)
                .map(|i| bundle(seg * 100 + i, seg * 50 + i, 30_000))
                .collect();
            w.seal_segment(bundles, Vec::new(), Vec::new()).unwrap();
        }
        dir
    }

    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        tokio::runtime::Builder::new_multi_thread()
            .enable_all()
            .build()
            .unwrap()
            .block_on(fut)
    }

    #[test]
    fn open_builds_then_reopen_loads() {
        let dir = seed_store("reopen", 2);

        let r1 = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), r1.clone()).unwrap();
        let generation = service.generation();
        let snap = r1.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_REBUILDS), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_LOADS), None);

        // Second open against an unchanged manifest: pure load, no rebuild.
        let r2 = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), r2.clone()).unwrap();
        assert_eq!(service.generation(), generation);
        let snap = r2.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_REBUILDS), None);
        assert_eq!(snap.counter(names::QUERY_INDEX_LOADS), Some(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_index_is_rejected_and_rebuilt() {
        let dir = seed_store("corrupt", 1);
        QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();

        let path = dir.join(crate::index::INDEX_FILE);
        let mut image = std::fs::read(&path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x01;
        std::fs::write(&path, &image).unwrap();

        let registry = Registry::new();
        QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_REJECTED), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_REBUILDS), Some(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_is_noop_without_manifest_change() {
        let dir = seed_store("noop", 1);
        let registry = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        assert!(!service.reload().unwrap());
        assert_eq!(registry.snapshot().counter(names::QUERY_RELOADS), None);

        // Seal another segment: the reload goes live and says so.
        let sealed = Manifest::load(&dir).unwrap().segments;
        let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
        w.seal_segment(vec![bundle(999, 500, 30_000)], Vec::new(), Vec::new())
            .unwrap();
        assert!(service.reload().unwrap());
        assert_eq!(registry.snapshot().counter(names::QUERY_RELOADS), Some(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_folds_the_delta_instead_of_rebuilding() {
        let dir = seed_store("fold", 2);
        let registry = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        assert_eq!(
            registry.snapshot().counter(names::QUERY_INDEX_REBUILDS),
            Some(1),
            "cold open builds once"
        );

        // Seal two more segments and reload: the new generation must be
        // absorbed by folding exactly the delta, not rebuilding.
        let sealed = Manifest::load(&dir).unwrap().segments;
        let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
        for seg in 2..4u64 {
            let bundles: Vec<_> = (0..10)
                .map(|i| bundle(seg * 100 + i, seg * 50 + i, 30_000))
                .collect();
            w.seal_segment(bundles, Vec::new(), Vec::new()).unwrap();
        }
        assert!(service.reload().unwrap());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLDS), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLD_SEGMENTS), Some(2));
        assert_eq!(
            snap.counter(names::QUERY_INDEX_REBUILDS),
            Some(1),
            "still just the cold build"
        );
        assert_eq!(snap.counter(names::QUERY_INDEX_FULL_REBUILDS), None);

        // The folded index is byte-identical to a from-scratch build.
        let store = BundleStore::open(&dir).unwrap();
        let full = build_index(&store, &QueryServiceConfig::new(&dir).query).unwrap();
        let folded = service.engine_snapshot().index().clone();
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&full).unwrap()
        );

        // The fold was persisted: a cold reopen is a pure load.
        let r2 = Registry::new();
        let reopened = QueryService::open(QueryServiceConfig::new(&dir), r2.clone()).unwrap();
        assert_eq!(reopened.generation(), service.generation());
        assert_eq!(r2.snapshot().counter(names::QUERY_INDEX_LOADS), Some(1));
        assert_eq!(r2.snapshot().counter(names::QUERY_INDEX_REBUILDS), None);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_seal_folds_the_stale_persisted_index_forward() {
        let dir = seed_store("stalefold", 2);
        QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();

        // Seal while no service is running: the persisted index is now
        // one generation stale. A fresh open folds it forward.
        let sealed = Manifest::load(&dir).unwrap().segments;
        let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
        w.seal_segment(vec![bundle(999, 500, 30_000)], Vec::new(), Vec::new())
            .unwrap();

        let registry = Registry::new();
        let service = QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLDS), Some(1));
        assert_eq!(snap.counter(names::QUERY_INDEX_FOLD_SEGMENTS), Some(1));
        assert_eq!(
            snap.counter(names::QUERY_INDEX_REBUILDS),
            None,
            "no rescan of old segments"
        );
        assert_eq!(snap.counter(names::QUERY_INDEX_FULL_REBUILDS), None);

        let store = BundleStore::open(&dir).unwrap();
        let full = build_index(&store, &QueryServiceConfig::new(&dir).query).unwrap();
        assert_eq!(
            serde_json::to_string(service.engine_snapshot().index()).unwrap(),
            serde_json::to_string(&full).unwrap()
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn noop_manifest_touch_keeps_the_response_cache_warm() {
        block_on(async {
            let dir = seed_store("touch", 1);
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            let first = client.get("/api/summary").await.unwrap();
            let warm = client.get("/api/summary").await.unwrap();
            assert_eq!(first.body, warm.body);
            assert_eq!(
                registry.snapshot().counter(names::QUERY_CACHE_HITS),
                Some(1)
            );

            // Rewrite the manifest byte-for-byte (a no-op touch): the
            // generation is unchanged, so the reload must not swap the
            // engine, and every warm cache entry must stay warm.
            let manifest_path = dir.join(sandwich_store::MANIFEST_FILE);
            let bytes = std::fs::read(&manifest_path).unwrap();
            std::fs::write(&manifest_path, &bytes).unwrap();
            assert!(!service.reload().unwrap());

            let still_warm = client.get("/api/summary").await.unwrap();
            assert_eq!(first.body, still_warm.body);
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::QUERY_CACHE_HITS), Some(2));
            assert_eq!(snap.counter(names::QUERY_CACHE_MISSES), Some(1));
            assert_eq!(snap.counter(names::QUERY_RELOADS), None);

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn live_long_poll_answers_when_a_reload_folds_rows_in() {
        block_on(async {
            let dir = seed_store("livepoll", 1);
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            // Page-poll from the origin: 200 with an opaque cursor, no rows
            // (the seeded bundles are not sandwiches).
            let page = client.get("/api/live?limit=10").await.unwrap();
            assert_eq!(page.status, 200);
            let text = String::from_utf8_lossy(&page.body).to_string();
            assert!(text.contains("\"cursor\":\"v1."), "{text}");
            assert!(text.contains("\"total_after\":0"), "{text}");

            // Long-poll with a short bound: returns (empty) after the
            // wait rather than hanging.
            let waited = client.get("/api/live?wait_ms=60").await.unwrap();
            assert_eq!(waited.status, 200);
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::QUERY_LIVE_LONG_POLLS), Some(1));
            assert!(snap.counter(names::QUERY_LIVE_REQUESTS) >= Some(2));

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn endpoints_serve_over_a_socket_with_cache_and_generation_header() {
        block_on(async {
            let dir = seed_store("socket", 2);
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let generation = service.generation();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            let first = client.get("/api/summary").await.unwrap();
            assert_eq!(first.status, 200);
            assert_eq!(
                first.header_value("x-query-generation"),
                Some(generation.as_str()),
                "generation header on every response"
            );
            let second = client.get("/api/summary").await.unwrap();
            assert_eq!(first.body, second.body, "cache returns identical bytes");
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::QUERY_CACHE_MISSES), Some(1));
            assert_eq!(snap.counter(names::QUERY_CACHE_HITS), Some(1));

            // Malformed parameters: 400, never cached, never fatal.
            let bad = client.get("/api/attackers?limit=banana").await.unwrap();
            assert_eq!(bad.status, 400);
            let still_up = client.get("/api/days").await.unwrap();
            assert_eq!(still_up.status, 200);

            // Unknown attacker via a path parameter: 404 JSON.
            let missing = client
                .get("/api/attacker/1111111111111111111111111111111111111111111")
                .await
                .unwrap();
            assert!(missing.status == 404 || missing.status == 400);

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn admission_control_sheds_with_retry_after_but_health_stays_up() {
        block_on(async {
            let dir = seed_store("admit", 1);
            let registry = Registry::new();
            let mut config = QueryServiceConfig::new(&dir);
            config.max_in_flight = 0; // admit nothing: every API call sheds
            let service = QueryService::open(config, registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            let shed = client.get("/api/summary").await.unwrap();
            assert_eq!(shed.status, 503);
            assert_eq!(shed.header_value("retry-after"), Some("1"));
            assert!(String::from_utf8_lossy(&shed.body).contains("capacity"));
            assert_eq!(registry.snapshot().counter(names::QUERY_SHED), Some(1));

            // Liveness and readiness are exempt from admission control.
            let health = client.get("/healthz").await.unwrap();
            assert_eq!(health.status, 200);
            let ready = client.get("/readyz").await.unwrap();
            assert_eq!(ready.status, 200);
            assert!(String::from_utf8_lossy(&ready.body).contains("\"ready\":true"));

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn quarantined_segment_degrades_coverage_but_keeps_serving() {
        block_on(async {
            let dir = seed_store("quarantine", 3);

            // Corrupt one segment body and let the doctor quarantine it.
            let victim = Manifest::load(&dir).unwrap().segments[0].file.clone();
            let path = dir.join(&victim);
            let mut image = std::fs::read(&path).unwrap();
            image[12] ^= 0x40; // inside the body: unrecoverable by design
            std::fs::write(&path, &image).unwrap();
            let report = sandwich_store::doctor::repair(&dir).unwrap();
            assert_eq!(report.quarantined, 1, "doctor quarantined the victim");

            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            let summary = client.get("/api/summary").await.unwrap();
            assert_eq!(summary.status, 200, "queryd serves over a damaged store");
            let text = String::from_utf8_lossy(&summary.body).to_string();
            assert!(text.contains("\"segments_quarantined\":1"), "{text}");
            assert!(text.contains("\"bundles_quarantined\":10"), "{text}");
            assert!(text.contains("\"complete\":false"), "{text}");
            assert!(
                text.contains("\"bundles\":20"),
                "two clean segments: {text}"
            );

            let health = client.get("/healthz").await.unwrap();
            assert_eq!(health.status, 200);
            let ready = client.get("/readyz").await.unwrap();
            assert_eq!(ready.status, 200);
            assert!(String::from_utf8_lossy(&ready.body).contains("\"complete\":false"));

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn spec_change_rebuilds_instead_of_folding_and_serves_validators() {
        block_on(async {
            let dir = seed_store("specswap", 2);
            let registry = Registry::new();
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), registry.clone()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            // No validator spec yet: the leaderboard answers, empty.
            let none = client.get("/api/validators").await.unwrap();
            assert_eq!(none.status, 200);
            assert!(String::from_utf8_lossy(&none.body).contains("\"total\":0"));

            // Attach a spec: the generation changes, and the in-memory
            // base (built without attribution) must NOT fold forward —
            // the reload rebuilds from segments under the new spec.
            let sealed = Manifest::load(&dir).unwrap().segments;
            let mut w = StoreWriter::resume(&dir, &sealed).unwrap();
            w.set_validators(sandwich_attrib::ValidatorSpec::new(7, 6))
                .unwrap();
            assert!(service.reload().unwrap());
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::ATTRIB_SPEC_MISMATCH_REBUILDS), Some(1));
            assert_eq!(snap.counter(names::QUERY_INDEX_FULL_REBUILDS), Some(1));
            assert_eq!(snap.counter(names::ATTRIB_SCHEDULE_BUILDS), Some(1));

            // Every spec validator gets a row even with zero sandwiches.
            let page = client.get("/api/validators?limit=10").await.unwrap();
            assert_eq!(page.status, 200);
            let text = String::from_utf8_lossy(&page.body).to_string();
            assert!(text.contains("\"total\":6"), "{text}");
            assert!(text.contains("\"blocks_led\""), "{text}");
            assert!(text.contains("\"stake_pools\""), "{text}");
            assert_eq!(
                registry
                    .snapshot()
                    .counter(names::QUERY_VALIDATORS_REQUESTS),
                Some(2)
            );

            // Unknown validator: 404 JSON, just like unknown attackers.
            let missing = client
                .get("/api/validator/1111111111111111111111111111111111111111111")
                .await
                .unwrap();
            assert!(missing.status == 404 || missing.status == 400);
            assert_eq!(
                registry
                    .snapshot()
                    .counter(names::QUERY_VALIDATOR_DETAIL_REQUESTS),
                Some(1)
            );

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }

    #[test]
    fn failed_reload_keeps_serving_stale_and_flips_readyz() {
        block_on(async {
            let dir = seed_store("stale", 1);
            let service =
                QueryService::open(QueryServiceConfig::new(&dir), Registry::new()).unwrap();
            let server = Server::bind("127.0.0.1:0", service.router()).await.unwrap();
            let client = HttpClient::new(server.local_addr());

            // Break the store out from under the daemon, then reload.
            let manifest_path = dir.join(sandwich_store::MANIFEST_FILE);
            let manifest_bytes = std::fs::read(&manifest_path).unwrap();
            std::fs::remove_file(&manifest_path).unwrap();
            assert!(service.reload().is_err());

            // Stale-while-revalidate: the old generation keeps answering.
            let summary = client.get("/api/summary").await.unwrap();
            assert_eq!(summary.status, 200);
            let ready = client.get("/readyz").await.unwrap();
            assert_eq!(ready.status, 503);
            assert_eq!(ready.header_value("retry-after"), Some("3"));
            let health = client.get("/healthz").await.unwrap();
            assert_eq!(health.status, 200, "liveness is not readiness");

            // Restore the manifest: the next reload clears readiness.
            std::fs::write(&manifest_path, &manifest_bytes).unwrap();
            assert!(!service.reload().unwrap(), "same generation: no swap");
            let ready = client.get("/readyz").await.unwrap();
            assert_eq!(ready.status, 200);

            server.shutdown().await;
            std::fs::remove_dir_all(&dir).unwrap();
        });
    }
}
