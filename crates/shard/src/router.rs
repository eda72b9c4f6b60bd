//! [`RouterService`] — scatter-gather over the shard partial APIs.
//!
//! The router is the only public face of a sharded deployment: it serves
//! the exact `/api/*` surface `queryd` does, parses requests with the
//! same `QueryRequest` code, fans each one out to every shard's
//! `/shard/*` partial endpoint over real sockets, folds the partials with
//! the pure merges in [`crate::merge`], and renders through
//! `sandwich_query::render` — the same response-building code the
//! single-engine path uses. That shared tail is what makes responses
//! byte-identical at every shard count.
//!
//! Consistency: the router pins a generation per request and rejects any
//! partial answered at a different one with a `503` (a reload is in
//! flight; the client retries). Failed fan-outs are never left in the
//! cache. `/readyz` aggregates shard readiness and reports
//! degraded-but-serving while at least one shard is ready.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use serde::de::DeserializeOwned;

use sandwich_net::{HttpClient, Method, Request, Response, Router};
use sandwich_obs::{names, Registry};
use sandwich_query::render::{self, error_response, DETAIL_REF_CAP};
use sandwich_query::{
    merge_coverage, merge_days, merge_totals, CacheOutcome, CachedResponse, QueryRequest,
    ResponseCache, SandwichRef,
};
use sandwich_types::Hash;

use crate::merge::{
    distinct_count, merge_attackers, merge_live, merge_pools, merge_range, merge_recent,
    merge_validators, AttackerDetailPartial, AttackersPartial, DaysPartial, LivePartial,
    PoolDetailPartial, RangePartial, SummaryPartial, ValidatorDetailPartial, ValidatorsPartial,
};

/// How often a router long-poll re-fans out looking for rows past the
/// cursor (coarser than the single-engine tick: each probe costs a
/// scatter-gather).
const LONG_POLL_TICK: Duration = Duration::from_millis(25);

/// Tunables for the scatter-gather router.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Response-cache shards (merged responses, keyed by generation).
    pub cache_shards: usize,
    /// Entries per cache shard.
    pub cache_per_shard: usize,
    /// Bound on concurrently-admitted API requests; excess load is shed
    /// with `503` + `Retry-After`. `/healthz`, `/readyz`, and `/metrics`
    /// are always exempt.
    pub max_in_flight: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            cache_shards: 8,
            cache_per_shard: 128,
            max_in_flight: 256,
        }
    }
}

/// A shard partial that carries the generation it answered for.
trait Partial: DeserializeOwned + Send + 'static {
    /// The generation the shard answered at.
    fn generation(&self) -> &str;
}

macro_rules! impl_partial {
    ($($ty:ty),+) => {
        $(impl Partial for $ty {
            fn generation(&self) -> &str {
                &self.generation
            }
        })+
    };
}

impl_partial!(
    SummaryPartial,
    DaysPartial,
    AttackersPartial,
    AttackerDetailPartial,
    PoolDetailPartial,
    RangePartial,
    LivePartial,
    ValidatorsPartial,
    ValidatorDetailPartial
);

struct RouterInner {
    shards: Vec<HttpClient>,
    generation: RwLock<String>,
    cache: ResponseCache,
    registry: Registry,
    in_flight: AtomicUsize,
    max_in_flight: usize,
}

/// Decrements the in-flight gauge when an admitted request finishes.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The scatter-gather router over N shard services.
#[derive(Clone)]
pub struct RouterService {
    inner: Arc<RouterInner>,
}

impl RouterService {
    /// A router over the shard listeners at `shards`, expecting every
    /// partial to be answered at `generation` until told otherwise.
    pub fn new(
        shards: Vec<SocketAddr>,
        generation: String,
        config: RouterConfig,
        registry: Registry,
    ) -> RouterService {
        RouterService {
            inner: Arc::new(RouterInner {
                shards: shards.into_iter().map(HttpClient::new).collect(),
                generation: RwLock::new(generation),
                cache: ResponseCache::new(config.cache_shards, config.cache_per_shard),
                registry,
                in_flight: AtomicUsize::new(0),
                max_in_flight: config.max_in_flight,
            }),
        }
    }

    /// The generation the router currently expects shards to answer at.
    pub fn generation(&self) -> String {
        self.inner.generation.read().clone()
    }

    /// Move the router to a new generation (after the shards reloaded).
    /// Old-generation cache entries become unreachable by key prefix.
    pub fn set_generation(&self, generation: String) {
        *self.inner.generation.write() = generation;
    }

    /// Number of shards fanned out to.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    fn admit(&self) -> Option<InFlightGuard<'_>> {
        let inner = &self.inner;
        let prev = inner.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= inner.max_in_flight {
            inner.in_flight.fetch_sub(1, Ordering::Release);
            inner.registry.counter(names::QUERY_SHED).inc();
            None
        } else {
            Some(InFlightGuard(&inner.in_flight))
        }
    }

    /// Fan one partial request out to every shard; all must answer 200 at
    /// `expected` generation or the whole fan-out fails with the 503 the
    /// client should retry on. Latency, width, and straggler metrics are
    /// recorded either way.
    async fn fetch<T: Partial>(
        &self,
        path: String,
        expected: &str,
    ) -> Result<Vec<T>, CachedResponse> {
        let inner = &self.inner;
        let n = inner.shards.len();
        inner.registry.counter(names::QUERY_SHARD_FANOUTS).inc();
        inner
            .registry
            .histogram(names::QUERY_SHARD_FANOUT_WIDTH)
            .observe(n as f64);

        let path = Arc::new(path);
        let mut set = tokio::task::JoinSet::new();
        for (shard, client) in inner.shards.iter().enumerate() {
            let client = *client;
            let path = path.clone();
            set.spawn(async move {
                let started = Instant::now();
                let result = client.get(&path).await;
                (shard, started.elapsed(), result)
            });
        }

        let mut latencies: Vec<Option<Duration>> = vec![None; n];
        let mut partials: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut failure: Option<String> = None;
        while let Some(joined) = set.join_next().await {
            let Ok((shard, elapsed, result)) = joined else {
                failure = Some("a fan-out task died".to_string());
                continue;
            };
            latencies[shard] = Some(elapsed);
            inner
                .registry
                .histogram(&format!("{}{shard}", names::QUERY_SHARD_LATENCY_PREFIX))
                .observe(elapsed.as_secs_f64());
            match result {
                Err(error) => failure = Some(format!("shard {shard}: {error}")),
                Ok(response) if response.status != 200 => {
                    failure = Some(format!("shard {shard} answered {}", response.status));
                }
                Ok(response) => match serde_json::from_slice::<T>(&response.body) {
                    Err(error) => {
                        failure =
                            Some(format!("shard {shard} sent an unreadable partial: {error}"));
                    }
                    Ok(partial) if partial.generation() != expected => {
                        failure = Some(format!(
                            "shard {shard} is at generation {}, router expects {expected}",
                            partial.generation()
                        ));
                    }
                    Ok(partial) => partials[shard] = Some(partial),
                },
            }
        }

        // Stragglers: shards that took more than twice the fastest answer.
        let done: Vec<Duration> = latencies.iter().flatten().copied().collect();
        if done.len() > 1 {
            let fastest = done.iter().min().copied().unwrap_or_default();
            let stragglers = done.iter().filter(|l| **l > fastest * 2).count() as u64;
            if stragglers > 0 {
                inner
                    .registry
                    .counter(names::QUERY_SHARD_STRAGGLERS)
                    .add(stragglers);
            }
        }

        if let Some(message) = failure {
            inner
                .registry
                .counter(names::QUERY_SHARD_FANOUT_FAILURES)
                .inc();
            return Err(error_response(
                503,
                format!("scatter-gather failed: {message}"),
            ));
        }
        Ok(partials.into_iter().flatten().collect())
    }

    /// One `/api/live` scatter-gather, returning the rendered page plus
    /// the number of rows it carries (the long-poll loop needs the count
    /// without re-parsing the body). A failed fan-out returns the 503
    /// with a zero count.
    async fn evaluate_live(
        &self,
        generation: &str,
        after_slot: u64,
        after_id: &Hash,
        limit: usize,
    ) -> (CachedResponse, usize) {
        let parts: Vec<LivePartial> = match self
            .fetch(
                format!("/shard/live?after_slot={after_slot}&after_id={after_id}&need={limit}"),
                generation,
            )
            .await
        {
            Ok(parts) => parts,
            Err(failed) => return (failed, 0),
        };
        let started = Instant::now();
        let (tip, total_after, refs, minutes) = merge_live(parts);
        let rows: Vec<SandwichRef> = refs.into_iter().take(limit).collect();
        let count = rows.len();
        let response = render::live_page(
            generation,
            after_slot,
            after_id,
            tip,
            total_after,
            limit,
            rows,
            minutes,
        );
        self.inner
            .registry
            .histogram(names::QUERY_SHARD_MERGE_SECONDS)
            .observe(started.elapsed().as_secs_f64());
        (response, count)
    }

    /// Scatter, gather, merge, render: one `/api/*` answer at `generation`.
    async fn evaluate(&self, generation: &str, query: &QueryRequest) -> CachedResponse {
        let registry = self.inner.registry.clone();
        let merged_at = |started: Instant| {
            registry
                .histogram(names::QUERY_SHARD_MERGE_SECONDS)
                .observe(started.elapsed().as_secs_f64());
        };
        match query {
            QueryRequest::Summary => {
                let parts: Vec<SummaryPartial> =
                    match self.fetch("/shard/summary".to_string(), generation).await {
                        Ok(parts) => parts,
                        Err(failed) => return failed,
                    };
                let started = Instant::now();
                let coverage =
                    merge_coverage(&parts.iter().map(|p| p.coverage.clone()).collect::<Vec<_>>());
                let totals =
                    merge_totals(&parts.iter().map(|p| p.totals.clone()).collect::<Vec<_>>());
                let days = parts.iter().map(|p| p.days).max().unwrap_or(0);
                let attackers = distinct_count(
                    &parts
                        .iter()
                        .map(|p| p.attacker_keys.clone())
                        .collect::<Vec<_>>(),
                );
                let pools = distinct_count(
                    &parts
                        .iter()
                        .map(|p| p.pool_keys.clone())
                        .collect::<Vec<_>>(),
                );
                let response =
                    render::summary(generation, &coverage, &totals, days, attackers, pools);
                merged_at(started);
                response
            }
            QueryRequest::Days => {
                let parts: Vec<DaysPartial> =
                    match self.fetch("/shard/days".to_string(), generation).await {
                        Ok(parts) => parts,
                        Err(failed) => return failed,
                    };
                let started = Instant::now();
                let merged = merge_days(&parts.into_iter().map(|p| p.days).collect::<Vec<_>>());
                let response = render::days(generation, &merged);
                merged_at(started);
                response
            }
            QueryRequest::Attackers { limit, after } => {
                let parts: Vec<AttackersPartial> =
                    match self.fetch("/shard/attackers".to_string(), generation).await {
                        Ok(parts) => parts,
                        Err(failed) => return failed,
                    };
                let started = Instant::now();
                let entries = merge_attackers(parts.into_iter().map(|p| p.entries).collect());
                let response = render::attackers_page(generation, &entries, *limit, *after);
                merged_at(started);
                response
            }
            QueryRequest::Attacker { pubkey } => {
                let parts: Vec<AttackerDetailPartial> = match self
                    .fetch(format!("/shard/attacker/{pubkey}"), generation)
                    .await
                {
                    Ok(parts) => parts,
                    Err(failed) => return failed,
                };
                let started = Instant::now();
                let recent = merge_recent(
                    parts.iter().map(|p| p.recent.clone()).collect(),
                    DETAIL_REF_CAP,
                );
                let entries = merge_attackers(parts.into_iter().map(|p| p.entries).collect());
                let response = match entries.iter().position(|e| e.attacker == *pubkey) {
                    None => render::unknown_attacker(pubkey),
                    Some(rank) => render::attacker_detail(generation, rank, &entries[rank], recent),
                };
                merged_at(started);
                response
            }
            QueryRequest::Pool { mint } => {
                let parts: Vec<PoolDetailPartial> =
                    match self.fetch(format!("/shard/pool/{mint}"), generation).await {
                        Ok(parts) => parts,
                        Err(failed) => return failed,
                    };
                let started = Instant::now();
                let recent = merge_recent(
                    parts.iter().map(|p| p.recent.clone()).collect(),
                    DETAIL_REF_CAP,
                );
                let attackers = distinct_count(
                    &parts
                        .iter()
                        .map(|p| p.attackers.clone())
                        .collect::<Vec<_>>(),
                );
                let pools = merge_pools(parts.into_iter().map(|p| p.pools).collect());
                let response = match pools.iter().position(|e| e.mint == *mint) {
                    None => render::unknown_pool(mint),
                    Some(rank) => {
                        // The merged entry's distinct-attacker count is a
                        // placeholder; the unioned shard lists are exact.
                        let mut entry = pools[rank].clone();
                        entry.attackers = attackers;
                        render::pool_detail(generation, rank, &entry, recent)
                    }
                };
                merged_at(started);
                response
            }
            QueryRequest::Validators { limit, after } => {
                let parts: Vec<ValidatorsPartial> = match self
                    .fetch("/shard/validators".to_string(), generation)
                    .await
                {
                    Ok(parts) => parts,
                    Err(failed) => return failed,
                };
                let started = Instant::now();
                let entries = merge_validators(parts.into_iter().map(|p| p.entries).collect());
                let response = render::validators_page(generation, &entries, *limit, *after);
                merged_at(started);
                response
            }
            QueryRequest::Validator { pubkey } => {
                let parts: Vec<ValidatorDetailPartial> = match self
                    .fetch(format!("/shard/validator/{pubkey}"), generation)
                    .await
                {
                    Ok(parts) => parts,
                    Err(failed) => return failed,
                };
                let started = Instant::now();
                let recent = merge_recent(
                    parts.iter().map(|p| p.recent.clone()).collect(),
                    DETAIL_REF_CAP,
                );
                let entries = merge_validators(parts.into_iter().map(|p| p.entries).collect());
                let response = match entries.iter().position(|e| e.pubkey == *pubkey) {
                    None => render::unknown_validator(pubkey),
                    Some(rank) => {
                        render::validator_detail(generation, rank, &entries[rank], recent)
                    }
                };
                merged_at(started);
                response
            }
            QueryRequest::Sandwiches {
                from_slot,
                to_slot,
                limit,
                after,
            } => {
                // Each shard ships its first `after + limit` in-range refs;
                // the union contains every ref the page can need (each
                // shard's refs are a subsequence of the global slot order).
                let need = after.saturating_add(*limit);
                let parts: Vec<RangePartial> = match self
                    .fetch(
                        format!(
                            "/shard/sandwiches?from_slot={from_slot}&to_slot={to_slot}&need={need}"
                        ),
                        generation,
                    )
                    .await
                {
                    Ok(parts) => parts,
                    Err(failed) => return failed,
                };
                let started = Instant::now();
                let (total, refs) = merge_range(parts);
                let start = (*after).min(refs.len());
                let end = after.saturating_add(*limit).min(refs.len());
                let response = render::sandwiches_page(
                    generation,
                    *from_slot,
                    *to_slot,
                    total,
                    *limit,
                    *after,
                    refs[start..end].to_vec(),
                );
                merged_at(started);
                response
            }
            QueryRequest::Live {
                after_slot,
                after_id,
                limit,
                ..
            } => {
                self.evaluate_live(generation, *after_slot, after_id, *limit)
                    .await
                    .0
            }
        }
    }

    async fn handle(&self, endpoint: &'static str, request: Request) -> Response {
        let inner = &self.inner;
        inner.registry.counter(names::QUERY_REQUESTS).inc();
        let timer = Instant::now();

        let Some(_guard) = self.admit() else {
            let shed = error_response(503, "server at capacity, retry shortly");
            return Response::new(shed.status, shed.body)
                .header("content-type", &shed.content_type)
                .header("retry-after", "1");
        };

        // One generation per request: every shard must answer at it.
        let generation = self.generation();

        let parsed = QueryRequest::parse(endpoint, &request);

        // Live long-poll: uncached bounded retry loop. Each probe re-reads
        // the router generation (a reload may land mid-wait) and re-fans
        // out; the loop answers as soon as a probe carries rows, or with
        // the final probe's response at the deadline (including a 503
        // when the fan-out is failing — the client's retry signal).
        if let Ok(QueryRequest::Live {
            after_slot,
            after_id,
            limit,
            wait_ms,
        }) = &parsed
        {
            inner.registry.counter(names::QUERY_LIVE_REQUESTS).inc();
            if *wait_ms > 0 {
                inner.registry.counter(names::QUERY_LIVE_LONG_POLLS).inc();
                let waited = Instant::now();
                let deadline = Duration::from_millis(*wait_ms);
                loop {
                    let generation = self.generation();
                    let (response, rows) = self
                        .evaluate_live(&generation, *after_slot, after_id, *limit)
                        .await;
                    if rows > 0 || waited.elapsed() >= deadline {
                        if rows > 0 {
                            inner
                                .registry
                                .counter(names::QUERY_LIVE_ROWS)
                                .add(rows as u64);
                        }
                        inner
                            .registry
                            .histogram(names::QUERY_LIVE_WAIT_SECONDS)
                            .observe(waited.elapsed().as_secs_f64());
                        inner
                            .registry
                            .histogram(&format!("{}{endpoint}", names::QUERY_SECONDS_PREFIX))
                            .observe(timer.elapsed().as_secs_f64());
                        return Response::new(response.status, response.body.clone())
                            .header("content-type", &response.content_type)
                            .header("x-query-generation", &generation);
                    }
                    tokio::time::sleep(LONG_POLL_TICK).await;
                }
            }
        }

        let (cached, outcome, evicted, key) = match parsed {
            Err(message) => (
                Arc::new(error_response(400, message)),
                CacheOutcome::Miss,
                0,
                None,
            ),
            Ok(query) => {
                let key = format!("{generation}|{}", query.canonical_key());
                let compute = {
                    let router = self.clone();
                    let generation = generation.clone();
                    move || async move { router.evaluate(&generation, &query).await }
                };
                let (cached, outcome, evicted) =
                    inner.cache.get_or_compute_async(&key, compute).await;
                (cached, outcome, evicted, Some(key))
            }
        };

        // A failed fan-out must not pin a 503 for the generation's
        // lifetime: evict it so the next request retries the shards.
        if let Some(key) = key {
            if outcome == CacheOutcome::Miss && cached.status >= 500 {
                inner.cache.invalidate(&key);
            }
        }

        match outcome {
            CacheOutcome::Hit => inner.registry.counter(names::QUERY_CACHE_HITS).inc(),
            CacheOutcome::Miss => inner.registry.counter(names::QUERY_CACHE_MISSES).inc(),
            CacheOutcome::Deduped => {
                inner
                    .registry
                    .counter(names::QUERY_CACHE_SINGLE_FLIGHT_WAITS)
                    .inc();
                inner.registry.counter(names::QUERY_CACHE_HITS).inc();
            }
        }
        if evicted > 0 {
            inner
                .registry
                .counter(names::QUERY_CACHE_EVICTIONS)
                .add(evicted);
        }
        inner
            .registry
            .histogram(&format!("{}{endpoint}", names::QUERY_SECONDS_PREFIX))
            .observe(timer.elapsed().as_secs_f64());

        Response::new(cached.status, cached.body.clone())
            .header("content-type", &cached.content_type)
            .header("x-query-generation", &generation)
    }

    /// `GET /healthz`: liveness of the router itself — never fans out.
    fn health_response(&self) -> Response {
        let body = format!(
            "{{\"status\":\"ok\",\"generation\":\"{}\",\"shards\":{}}}",
            self.generation(),
            self.shard_count()
        );
        Response::new(200, body.into_bytes()).header("content-type", "application/json")
    }

    /// `GET /readyz`: aggregated readiness. 200 while at least one shard
    /// is ready (`degraded: true` when not all are); 503 when none are.
    async fn ready_response(&self) -> Response {
        let inner = &self.inner;
        let n = inner.shards.len();
        let mut set = tokio::task::JoinSet::new();
        for client in &inner.shards {
            let client = *client;
            set.spawn(async move {
                matches!(client.get("/readyz").await, Ok(response) if response.status == 200)
            });
        }
        let mut ready = 0usize;
        while let Some(joined) = set.join_next().await {
            if joined.unwrap_or(false) {
                ready += 1;
            }
        }
        let ok = ready >= 1;
        let body = format!(
            "{{\"ready\":{ok},\"degraded\":{},\"shards\":{n},\"ready_shards\":{ready},\"generation\":\"{}\"}}",
            ready < n,
            self.generation()
        );
        let response = Response::new(if ok { 200 } else { 503 }, body.into_bytes())
            .header("content-type", "application/json");
        if ok {
            response
        } else {
            response.header("retry-after", "3")
        }
    }

    /// The public `/api/*` router (plus health probes and `/metrics`).
    pub fn router(&self) -> Router {
        let endpoints: [(&'static str, &'static str); 9] = [
            ("summary", "/api/summary"),
            ("days", "/api/days"),
            ("attackers", "/api/attackers"),
            ("attacker", "/api/attacker/{pubkey}"),
            ("pool", "/api/pool/{mint}"),
            ("sandwiches", "/api/sandwiches"),
            ("live", "/api/live"),
            ("validators", "/api/validators"),
            ("validator", "/api/validator/{pubkey}"),
        ];
        let mut router = Router::new();
        for (endpoint, path) in endpoints {
            let service = self.clone();
            router = router.route(Method::Get, path, move |request: Request| {
                let service = service.clone();
                async move { service.handle(endpoint, request).await }
            });
        }
        let service = self.clone();
        router = router.route(Method::Get, "/healthz", move |_request: Request| {
            let service = service.clone();
            async move { service.health_response() }
        });
        let service = self.clone();
        router = router.route(Method::Get, "/readyz", move |_request: Request| {
            let service = service.clone();
            async move { service.ready_response().await }
        });
        router.with_metrics(self.inner.registry.clone())
    }
}
