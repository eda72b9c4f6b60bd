//! [`RouterService`] — the shared `/api/*` front-end over a
//! scatter-gather backend.
//!
//! The router is the only public face of a sharded deployment. It is the
//! same [`FrontEnd`] `queryd` runs — admission, parsing, the per-request
//! generation pin, the response cache, the `/api/live` long-poll, probes,
//! and `query.*` metrics — so only the answering differs: each request
//! fans out to every shard's `/shard/*` partial endpoint over real
//! sockets, the partials fold with the pure merges in [`crate::merge`],
//! and the result renders through `sandwich_query::render`, the same
//! response-building code the single-engine path uses. That shared head
//! and tail are what make responses byte-identical at every shard count.
//!
//! Consistency: the pinned generation is the router's; any partial
//! answered at a different one fails the fan-out with a `503` (a reload
//! is in flight; the client retries), which the cache never keeps.
//! `/readyz` aggregates shard readiness and reports degraded-but-serving
//! while at least one shard is ready.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use serde::de::DeserializeOwned;

use sandwich_net::{HttpClient, Router};
use sandwich_obs::{names, Registry};
use sandwich_query::render::{self, error_response, DETAIL_REF_CAP};
use sandwich_query::{
    merge_coverage, merge_days, merge_totals, Backend, CachedResponse, FrontEnd, QueryRequest,
    SandwichRef,
};
use sandwich_types::Hash;

use crate::merge::{
    distinct_count, merge_attackers, merge_live, merge_pools, merge_range, merge_recent,
    merge_validators, AttackerDetailPartial, AttackersPartial, DaysPartial, LivePartial,
    PoolDetailPartial, RangePartial, SummaryPartial, ValidatorDetailPartial, ValidatorsPartial,
};

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

/// The scatter-gather backend: the shard clients and the generation
/// every partial must be answered at.
struct Scatter {
    shards: Vec<HttpClient>,
    generation: RwLock<String>,
    registry: Registry,
}

/// The scatter-gather router over N shard services.
#[derive(Clone)]
pub struct RouterService {
    front: FrontEnd<Scatter>,
}

impl RouterService {
    /// A router over the shard listeners at `shards`, expecting every
    /// partial to be answered at `generation` until told otherwise, and
    /// admitting at most `max_in_flight` API requests at once.
    pub fn new(
        shards: Vec<SocketAddr>,
        generation: String,
        max_in_flight: usize,
        registry: Registry,
    ) -> RouterService {
        let scatter = Scatter {
            shards: shards.into_iter().map(HttpClient::new).collect(),
            generation: RwLock::new(generation),
            registry: registry.clone(),
        };
        RouterService {
            front: FrontEnd::new(scatter, max_in_flight, registry),
        }
    }

    /// The generation the router currently expects shards to answer at.
    pub fn generation(&self) -> String {
        self.front.backend().pin()
    }

    /// Move the router to a new generation (after the shards reloaded).
    /// Old-generation cache entries become unreachable by key prefix.
    pub fn set_generation(&self, generation: String) {
        *self.front.backend().generation.write() = generation;
    }

    /// Number of shards fanned out to.
    pub fn shard_count(&self) -> usize {
        self.front.backend().shards.len()
    }

    /// The public router: `/api/*`, `/healthz`, `/readyz`, and `/metrics`.
    pub fn router(&self) -> Router {
        self.front.router()
    }
}

impl Scatter {
    /// Fan one partial request out to every shard; all must answer 200 at
    /// `expected` generation or the whole fan-out fails with the 503 the
    /// client should retry on. Latency, width, and straggler metrics are
    /// recorded either way.
    async fn fetch<T: Partial>(
        &self,
        path: String,
        expected: &str,
    ) -> Result<Vec<T>, CachedResponse> {
        let n = self.shards.len();
        self.registry.counter(names::QUERY_SHARD_FANOUTS).inc();
        self.registry
            .histogram(names::QUERY_SHARD_FANOUT_WIDTH)
            .observe(n as f64);

        let path = Arc::new(path);
        let mut set = tokio::task::JoinSet::new();
        for (shard, client) in self.shards.iter().enumerate() {
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
            self.registry
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
                self.registry
                    .counter(names::QUERY_SHARD_STRAGGLERS)
                    .add(stragglers);
            }
        }

        if let Some(message) = failure {
            self.registry
                .counter(names::QUERY_SHARD_FANOUT_FAILURES)
                .inc();
            return Err(error_response(
                503,
                format!("scatter-gather failed: {message}"),
            ));
        }
        Ok(partials.into_iter().flatten().collect())
    }

    /// Run one merge-and-render step, timing it as merge work.
    fn merged(&self, merge: impl FnOnce() -> CachedResponse) -> CachedResponse {
        let started = Instant::now();
        let response = merge();
        self.registry
            .histogram(names::QUERY_SHARD_MERGE_SECONDS)
            .observe(started.elapsed().as_secs_f64());
        response
    }

    /// Scatter, gather, merge, render: one `/api/*` answer at `generation`,
    /// or the 503 of a failed fan-out.
    async fn scatter(
        &self,
        generation: &str,
        query: &QueryRequest,
    ) -> Result<CachedResponse, CachedResponse> {
        Ok(match query {
            QueryRequest::Summary => {
                let parts: Vec<SummaryPartial> =
                    self.fetch("/shard/summary".into(), generation).await?;
                self.merged(|| {
                    let coverage: Vec<_> = parts.iter().map(|p| p.coverage.clone()).collect();
                    let totals: Vec<_> = parts.iter().map(|p| p.totals.clone()).collect();
                    let attackers: Vec<_> = parts.iter().map(|p| p.attacker_keys.clone()).collect();
                    let pools: Vec<_> = parts.iter().map(|p| p.pool_keys.clone()).collect();
                    render::summary(
                        generation,
                        &merge_coverage(&coverage),
                        &merge_totals(&totals),
                        parts.iter().map(|p| p.days).max().unwrap_or(0),
                        distinct_count(&attackers),
                        distinct_count(&pools),
                    )
                })
            }
            QueryRequest::Days => {
                let parts: Vec<DaysPartial> = self.fetch("/shard/days".into(), generation).await?;
                self.merged(|| {
                    let days: Vec<_> = parts.into_iter().map(|p| p.days).collect();
                    render::days(generation, &merge_days(&days))
                })
            }
            QueryRequest::Attackers { limit, after } => {
                let parts: Vec<AttackersPartial> =
                    self.fetch("/shard/attackers".into(), generation).await?;
                self.merged(|| {
                    let entries = merge_attackers(parts.into_iter().map(|p| p.entries).collect());
                    render::attackers_page(generation, &entries, *limit, *after)
                })
            }
            QueryRequest::Attacker { pubkey } => {
                let parts: Vec<AttackerDetailPartial> = self
                    .fetch(format!("/shard/attacker/{pubkey}"), generation)
                    .await?;
                self.merged(|| {
                    let recent = merge_recent(
                        parts.iter().map(|p| p.recent.clone()).collect(),
                        DETAIL_REF_CAP,
                    );
                    let entries = merge_attackers(parts.into_iter().map(|p| p.entries).collect());
                    match entries.iter().position(|e| e.attacker == *pubkey) {
                        None => render::unknown_attacker(pubkey),
                        Some(rank) => {
                            render::attacker_detail(generation, rank, &entries[rank], recent)
                        }
                    }
                })
            }
            QueryRequest::Pool { mint } => {
                let parts: Vec<PoolDetailPartial> = self
                    .fetch(format!("/shard/pool/{mint}"), generation)
                    .await?;
                self.merged(|| {
                    let recent = merge_recent(
                        parts.iter().map(|p| p.recent.clone()).collect(),
                        DETAIL_REF_CAP,
                    );
                    let attackers: Vec<_> = parts.iter().map(|p| p.attackers.clone()).collect();
                    let pools = merge_pools(parts.into_iter().map(|p| p.pools).collect());
                    match pools.iter().position(|e| e.mint == *mint) {
                        None => render::unknown_pool(mint),
                        Some(rank) => {
                            // The merged entry's distinct-attacker count is a
                            // placeholder; the unioned shard lists are exact.
                            let mut entry = pools[rank].clone();
                            entry.attackers = distinct_count(&attackers);
                            render::pool_detail(generation, rank, &entry, recent)
                        }
                    }
                })
            }
            QueryRequest::Validators { limit, after } => {
                let parts: Vec<ValidatorsPartial> =
                    self.fetch("/shard/validators".into(), generation).await?;
                self.merged(|| {
                    let entries = merge_validators(parts.into_iter().map(|p| p.entries).collect());
                    render::validators_page(generation, &entries, *limit, *after)
                })
            }
            QueryRequest::Validator { pubkey } => {
                let parts: Vec<ValidatorDetailPartial> = self
                    .fetch(format!("/shard/validator/{pubkey}"), generation)
                    .await?;
                self.merged(|| {
                    let recent = merge_recent(
                        parts.iter().map(|p| p.recent.clone()).collect(),
                        DETAIL_REF_CAP,
                    );
                    let entries = merge_validators(parts.into_iter().map(|p| p.entries).collect());
                    match entries.iter().position(|e| e.pubkey == *pubkey) {
                        None => render::unknown_validator(pubkey),
                        Some(rank) => {
                            render::validator_detail(generation, rank, &entries[rank], recent)
                        }
                    }
                })
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
                let path = format!(
                    "/shard/sandwiches?from_slot={from_slot}&to_slot={to_slot}&need={need}"
                );
                let parts: Vec<RangePartial> = self.fetch(path, generation).await?;
                self.merged(|| {
                    let (total, refs) = merge_range(parts);
                    let start = (*after).min(refs.len());
                    let end = need.min(refs.len());
                    let rows = refs[start..end].to_vec();
                    render::sandwiches_page(
                        generation, *from_slot, *to_slot, total, *limit, *after, rows,
                    )
                })
            }
            QueryRequest::Live {
                after_slot,
                after_id,
                limit,
                ..
            } => {
                let path =
                    format!("/shard/live?after_slot={after_slot}&after_id={after_id}&need={limit}");
                let parts: Vec<LivePartial> = self.fetch(path, generation).await?;
                self.merged(|| {
                    let (tip, total_after, refs, minutes) = merge_live(parts);
                    let rows: Vec<SandwichRef> = refs.into_iter().take(*limit).collect();
                    render::live_page(
                        generation,
                        *after_slot,
                        after_id,
                        tip,
                        total_after,
                        *limit,
                        rows,
                        minutes,
                    )
                })
            }
        })
    }
}

impl Backend for Scatter {
    type Pin = String;

    /// Coarser than the single-engine tick: each probe is a fan-out.
    const LONG_POLL_TICK: Duration = Duration::from_millis(25);

    fn pin(&self) -> String {
        self.generation.read().clone()
    }

    fn generation(pin: &String) -> &str {
        pin
    }

    async fn evaluate(&self, generation: &String, query: &QueryRequest) -> CachedResponse {
        self.scatter(generation, query)
            .await
            .unwrap_or_else(|failed| failed)
    }

    /// Sums the shards' `total_after` from a rows-free live fan-out; a
    /// failed fan-out reads as no rows (the answer itself then carries
    /// the 503).
    async fn live_rows_after(
        &self,
        generation: &String,
        after_slot: u64,
        after_id: &Hash,
    ) -> usize {
        let path = format!("/shard/live?after_slot={after_slot}&after_id={after_id}&need=0");
        match self.fetch::<LivePartial>(path, generation).await {
            Ok(parts) => parts.iter().map(|p| p.total_after as usize).sum(),
            Err(_) => 0,
        }
    }

    fn health_fields(&self) -> String {
        format!(",\"shards\":{}", self.shards.len())
    }

    /// Ready while at least one shard is (`degraded` when not all are).
    async fn readiness(&self, _generation: &String) -> (bool, String) {
        let n = self.shards.len();
        let mut set = tokio::task::JoinSet::new();
        for client in &self.shards {
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
        let fields = format!(
            ",\"degraded\":{},\"shards\":{n},\"ready_shards\":{ready}",
            ready < n
        );
        (ready >= 1, fields)
    }
}
