//! [`ShardService`] — one shard's engine and its `/shard/*` partial API.
//!
//! A shard owns a slice of the manifest (per the [`crate::ShardMap`]),
//! builds its index with `build_index_subset` over exactly that slice,
//! persists it under a shard-and-fingerprint-qualified file name
//! (`query-index.shard-{i}of{n}-{fp}.bin`, same `SWQIX01` frame), and
//! serves merge-ready partials from its own response cache. Coverage is
//! exact per shard: a shard whose slice contains quarantined or
//! unreadable segments reports them in its own coverage block, and the
//! router's sum reproduces the whole-store block.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use sandwich_net::{Request, Response, Router};
use sandwich_obs::{names, Registry};
use sandwich_query::frontend::{health_response, ready_response, routes};
use sandwich_query::render::{error_response, DETAIL_REF_CAP};
use sandwich_query::{
    build_index_subset, first_ref_after_cursor, generation_of, live_minutes, load_index_as,
    save_index_as, CachedResponse, Engine, QueryConfig, ResponseCache, SandwichRef,
};
use sandwich_store::BundleStore;
use sandwich_types::{Hash, Pubkey};

use crate::map::ShardMap;
use crate::merge::{
    AttackerDetailPartial, AttackersPartial, DaysPartial, LivePartial, PoolDetailPartial,
    RangePartial, SummaryPartial, ValidatorDetailPartial, ValidatorsPartial,
};

/// File name of one shard's persisted index: qualified by shard id, shard
/// count, and the assignment fingerprint so a re-plan never aliases a
/// stale index (the generation inside the frame is still checked on load).
pub fn shard_index_file(shard: usize, shards: usize, fingerprint: &str) -> String {
    format!("query-index.shard-{shard}of{shards}-{fingerprint}.bin")
}

/// Leading file-name prefix of every per-shard index (for garbage
/// collection of stale fingerprints).
pub const SHARD_INDEX_PREFIX: &str = "query-index.shard-";

/// Response-cache shards of one shard service.
const CACHE_SHARDS: usize = 4;

/// Entries per shard-service cache shard.
const CACHE_PER_SHARD: usize = 64;

/// Tunables for one shard service.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Directory of the sealed bundle store.
    pub store_dir: PathBuf,
    /// Index-build semantics (detector, threshold, clock, threads).
    pub query: QueryConfig,
    /// This shard's id (index into the shard map).
    pub shard: usize,
}

impl ShardConfig {
    /// Paper-default semantics for shard `shard` over `store_dir`.
    pub fn new(store_dir: impl Into<PathBuf>, shard: usize) -> Self {
        ShardConfig {
            store_dir: store_dir.into(),
            query: QueryConfig::default(),
            shard,
        }
    }
}

/// An owned, validated shard query (the `Request` itself is not `Clone`,
/// and the single-flight compute closure must own its inputs).
enum ShardQuery {
    Summary,
    Days,
    Attackers,
    Attacker(Pubkey),
    Pool(Pubkey),
    Validators,
    Validator(Pubkey),
    Range {
        from_slot: u64,
        to_slot: u64,
        need: usize,
    },
    Live {
        after_slot: u64,
        after_id: Hash,
        need: usize,
    },
}

/// `entries` with their refs cleared: rank and row data only, off the
/// wire. A validator's `sandwich_slots` stays: the router's distinct-block
/// merge needs the slot union.
fn without_refs<T: Clone>(entries: &[T], refs: fn(&mut T) -> &mut Vec<u32>) -> Vec<T> {
    let strip = |entry: &T| {
        let mut entry = entry.clone();
        *refs(&mut entry) = Vec::new();
        entry
    };
    entries.iter().map(strip).collect()
}

/// Query parameter `key` parsed as a `T`, or `default` when absent.
fn param<T: std::str::FromStr>(request: &Request, key: &str, default: T) -> Result<T, String> {
    match request.query.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("query parameter {key:?} must be an integer")),
    }
}

impl ShardQuery {
    /// Parse the request to shard endpoint `kind`, or say why it is a 400.
    fn parse(kind: &str, request: &Request) -> Result<ShardQuery, String> {
        let key = |name: &str| {
            request
                .path_param(name)
                .and_then(|raw| raw.parse::<Pubkey>().ok())
                .ok_or_else(|| format!("invalid {name}"))
        };
        Ok(match kind {
            "summary" => ShardQuery::Summary,
            "days" => ShardQuery::Days,
            "attackers" => ShardQuery::Attackers,
            "validators" => ShardQuery::Validators,
            "attacker" => ShardQuery::Attacker(key("pubkey")?),
            "validator" => ShardQuery::Validator(key("pubkey")?),
            "pool" => ShardQuery::Pool(key("mint")?),
            "sandwiches" => {
                let from_slot = param(request, "from_slot", 0)?;
                let to_slot = param(request, "to_slot", u64::MAX)?;
                let need = param(request, "need", usize::MAX)?;
                if from_slot > to_slot {
                    return Err(format!("from_slot {from_slot} exceeds to_slot {to_slot}"));
                }
                ShardQuery::Range {
                    from_slot,
                    to_slot,
                    need,
                }
            }
            "live" => ShardQuery::Live {
                after_slot: param(request, "after_slot", 0)?,
                after_id: match request.query.get("after_id") {
                    None => Hash([0u8; 32]),
                    Some(raw) => Hash::from_base58(raw)
                        .ok_or("query parameter \"after_id\" must be base58")?,
                },
                need: param(request, "need", usize::MAX)?,
            },
            other => return Err(format!("unknown shard endpoint {other:?}")),
        })
    }

    /// Canonical cache-key tail (unique per distinct answer).
    fn canonical(&self) -> String {
        match self {
            ShardQuery::Summary => "summary".to_string(),
            ShardQuery::Days => "days".to_string(),
            ShardQuery::Attackers => "attackers".to_string(),
            ShardQuery::Attacker(pubkey) => format!("attacker/{pubkey}"),
            ShardQuery::Pool(mint) => format!("pool/{mint}"),
            ShardQuery::Validators => "validators".to_string(),
            ShardQuery::Validator(pubkey) => format!("validator/{pubkey}"),
            ShardQuery::Range {
                from_slot,
                to_slot,
                need,
            } => format!("sandwiches?from={from_slot}&to={to_slot}&need={need}"),
            ShardQuery::Live {
                after_slot,
                after_id,
                need,
            } => format!("live?after={after_slot:016x}.{after_id}&need={need}"),
        }
    }
}

struct ShardState {
    engine: Arc<Engine>,
    fingerprint: String,
    shards: usize,
}

struct ShardInner {
    config: ShardConfig,
    state: RwLock<ShardState>,
    cache: ResponseCache,
    registry: Registry,
    last_install_ok: AtomicBool,
}

/// One shard: an engine over its manifest slice plus the partial API.
#[derive(Clone)]
pub struct ShardService {
    inner: Arc<ShardInner>,
}

/// Load the shard's persisted index when it verifies, rebuild its subset
/// from segments when it does not, and record which happened.
fn load_or_build_shard(
    config: &ShardConfig,
    map: &ShardMap,
    registry: &Registry,
) -> std::io::Result<ShardState> {
    let store = BundleStore::open(&config.store_dir)?;
    let generation = generation_of(store.manifest());
    if map.generation != generation {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "shard map generation {} does not match manifest {generation}",
                map.generation
            ),
        ));
    }
    let (serving, quarantined) = map.resolve(store.manifest(), config.shard).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("stale shard map: {e}"),
        )
    })?;
    let fingerprint = map.fingerprint(config.shard);
    let file = shard_index_file(config.shard, map.shard_count(), &fingerprint);
    let index = match load_index_as(store.dir(), &file, &generation) {
        Ok(index) => {
            registry.counter(names::QUERY_INDEX_LOADS).inc();
            index
        }
        Err(_) => {
            let started = Instant::now();
            let index = build_index_subset(&store, &config.query, &serving, &quarantined)?;
            registry
                .histogram(names::QUERY_INDEX_BUILD_SECONDS)
                .observe(started.elapsed().as_secs_f64());
            registry.counter(names::QUERY_INDEX_REBUILDS).inc();
            save_index_as(store.dir(), &index, &file)?;
            index
        }
    };
    if index.coverage.segments_failed > 0 {
        registry
            .counter(names::QUERY_INDEX_SEGMENTS_FAILED)
            .add(index.coverage.segments_failed);
    }
    Ok(ShardState {
        engine: Arc::new(Engine::new(Arc::new(index))),
        fingerprint,
        shards: map.shard_count(),
    })
}

impl ShardService {
    /// Open the store and build (or load) this shard's slice of the index
    /// per `map`. Metrics land in `registry`.
    pub fn open(
        config: ShardConfig,
        map: &ShardMap,
        registry: Registry,
    ) -> std::io::Result<ShardService> {
        let state = load_or_build_shard(&config, map, &registry)?;
        Ok(ShardService {
            inner: Arc::new(ShardInner {
                config,
                state: RwLock::new(state),
                cache: ResponseCache::new(CACHE_SHARDS, CACHE_PER_SHARD),
                registry,
                last_install_ok: AtomicBool::new(true),
            }),
        })
    }

    /// Swap in the engine for a (possibly new) shard map — the reload
    /// path after a seal or a rebalance. Returns `true` when a different
    /// generation or assignment went live. A failed install keeps the
    /// last good engine serving and flips `/readyz` until one succeeds.
    pub fn install(&self, map: &ShardMap) -> std::io::Result<bool> {
        let result = self.install_inner(map);
        self.inner
            .last_install_ok
            .store(result.is_ok(), Ordering::Release);
        result
    }

    fn install_inner(&self, map: &ShardMap) -> std::io::Result<bool> {
        {
            let state = self.inner.state.read();
            if state.engine.generation() == map.generation
                && state.fingerprint == map.fingerprint(self.inner.config.shard)
                && state.shards == map.shard_count()
            {
                return Ok(false);
            }
        }
        let state = load_or_build_shard(&self.inner.config, map, &self.inner.registry)?;
        *self.inner.state.write() = state;
        self.inner.registry.counter(names::QUERY_RELOADS).inc();
        Ok(true)
    }

    /// This shard's id.
    pub fn shard(&self) -> usize {
        self.inner.config.shard
    }

    /// The generation currently being served.
    pub fn generation(&self) -> String {
        self.inner.state.read().engine.generation().to_string()
    }

    /// The engine snapshot currently serving (for tests and benches).
    pub fn engine_snapshot(&self) -> Arc<Engine> {
        self.inner.state.read().engine.clone()
    }

    fn json<T: serde::Serialize>(value: &T) -> CachedResponse {
        CachedResponse {
            status: 200,
            content_type: "application/json".to_string(),
            body: serde_json::to_vec(value).unwrap_or_default(),
        }
    }

    fn summary_partial(engine: &Engine) -> CachedResponse {
        let index = engine.index();
        Self::json(&SummaryPartial {
            generation: index.generation.clone(),
            coverage: index.coverage.clone(),
            totals: index.totals.clone(),
            days: index.days.len() as u64,
            attacker_keys: index.attackers.iter().map(|e| e.attacker).collect(),
            pool_keys: index.pools.iter().map(|e| e.mint).collect(),
        })
    }

    fn validator_detail_partial(engine: &Engine, pubkey: &Pubkey) -> CachedResponse {
        let recent = engine
            .validator_entry(pubkey)
            .map(|(_, entry)| engine.ref_tail(&entry.refs, DETAIL_REF_CAP))
            .unwrap_or_default();
        Self::json(&ValidatorDetailPartial {
            generation: engine.generation().to_string(),
            entries: without_refs(engine.validator_entries(), |e| &mut e.refs),
            recent,
        })
    }

    fn attacker_detail_partial(engine: &Engine, pubkey: &Pubkey) -> CachedResponse {
        let recent = engine
            .attacker_entry(pubkey)
            .map(|(_, entry)| engine.ref_tail(&entry.refs, DETAIL_REF_CAP))
            .unwrap_or_default();
        Self::json(&AttackerDetailPartial {
            generation: engine.generation().to_string(),
            entries: without_refs(&engine.index().attackers, |e| &mut e.refs),
            recent,
        })
    }

    fn pool_detail_partial(engine: &Engine, mint: &Pubkey) -> CachedResponse {
        let (attackers, recent) = match engine.pool_entry(mint) {
            None => (Vec::new(), Vec::new()),
            Some((_, entry)) => {
                let all: Vec<SandwichRef> = engine.ref_tail(&entry.refs, usize::MAX);
                let set: std::collections::BTreeSet<Pubkey> =
                    all.iter().map(|r| r.attacker).collect();
                (
                    set.into_iter().collect(),
                    engine.ref_tail(&entry.refs, DETAIL_REF_CAP),
                )
            }
        };
        Self::json(&PoolDetailPartial {
            generation: engine.generation().to_string(),
            pools: without_refs(&engine.index().pools, |e| &mut e.refs),
            attackers,
            recent,
        })
    }

    fn range_partial(engine: &Engine, from_slot: u64, to_slot: u64, need: usize) -> CachedResponse {
        let refs = &engine.index().refs;
        let start = sandwich_query::index::first_ref_at_or_after(refs, from_slot);
        let end = match to_slot.checked_add(1) {
            Some(bound) => sandwich_query::index::first_ref_at_or_after(refs, bound),
            None => refs.len(),
        };
        let in_range = &refs[start..end];
        Self::json(&RangePartial {
            generation: engine.generation().to_string(),
            total: in_range.len() as u64,
            refs: in_range.iter().take(need).cloned().collect(),
        })
    }

    fn live_partial(
        engine: &Engine,
        after_slot: u64,
        after_id: &Hash,
        need: usize,
    ) -> CachedResponse {
        let index = engine.index();
        let refs = &index.refs;
        let start = first_ref_after_cursor(refs, after_slot, after_id);
        let after = &refs[start..];
        Self::json(&LivePartial {
            generation: engine.generation().to_string(),
            tip_slot: index.totals.max_slot,
            total_after: after.len() as u64,
            refs: after.iter().take(need).cloned().collect(),
            minutes: live_minutes(refs, index.totals.max_slot),
        })
    }

    async fn handle(&self, kind: &'static str, request: Request) -> Response {
        let engine = self.engine_snapshot();
        let generation = engine.generation().to_string();
        let shard = self.shard();
        match kind {
            "healthz" => return health_response(&format!(",\"shard\":{shard}"), &generation),
            "readyz" => {
                let ready = self.inner.last_install_ok.load(Ordering::Acquire);
                let complete = engine.index().coverage.complete();
                let fields = format!(",\"shard\":{shard},\"complete\":{complete}");
                return ready_response(ready, &fields, &generation);
            }
            _ => {}
        }

        let parsed = ShardQuery::parse(kind, &request);

        let cached = match parsed {
            Err(message) => Arc::new(error_response(400, message)),
            Ok(query) => {
                let key = format!("{generation}|{}", query.canonical());
                let compute = || match query {
                    ShardQuery::Summary => Self::summary_partial(&engine),
                    ShardQuery::Days => Self::json(&DaysPartial {
                        generation: engine.generation().to_string(),
                        days: engine.index().days.clone(),
                    }),
                    ShardQuery::Attackers => Self::json(&AttackersPartial {
                        generation: engine.generation().to_string(),
                        entries: without_refs(&engine.index().attackers, |e| &mut e.refs),
                    }),
                    ShardQuery::Attacker(pubkey) => Self::attacker_detail_partial(&engine, &pubkey),
                    ShardQuery::Pool(mint) => Self::pool_detail_partial(&engine, &mint),
                    ShardQuery::Validators => Self::json(&ValidatorsPartial {
                        generation: engine.generation().to_string(),
                        entries: without_refs(engine.validator_entries(), |e| &mut e.refs),
                    }),
                    ShardQuery::Validator(pubkey) => {
                        Self::validator_detail_partial(&engine, &pubkey)
                    }
                    ShardQuery::Range {
                        from_slot,
                        to_slot,
                        need,
                    } => Self::range_partial(&engine, from_slot, to_slot, need),
                    ShardQuery::Live {
                        after_slot,
                        after_id,
                        need,
                    } => Self::live_partial(&engine, after_slot, &after_id, need),
                };
                let (cached, _outcome, _evicted) =
                    self.inner.cache.get_or_compute(&key, compute).await;
                cached
            }
        };

        Response::new(cached.status, cached.body.clone())
            .header("content-type", &cached.content_type)
            .header("x-query-generation", &generation)
    }

    /// The partial API router (the shared endpoint table under
    /// `/shard/`, the probes, and `GET /metrics` from the registry).
    pub fn router(&self) -> Router {
        let service = self.clone();
        routes(
            "/shard/",
            self.inner.registry.clone(),
            move |kind, request| {
                let service = service.clone();
                async move { service.handle(kind, request).await }
            },
        )
    }
}
