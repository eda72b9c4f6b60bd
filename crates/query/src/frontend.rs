//! One `/api/*` front-end over a pluggable [`Backend`].
//!
//! `queryd` ([`crate::QueryService`]) and the shard router serve the same
//! nine endpoints with the same semantics; only where an answer comes from
//! differs — one local engine snapshot, or a scatter-gather over shards.
//! [`FrontEnd`] owns everything else, once:
//!
//! - admission control: at most `max_in_flight` API requests at a time,
//!   the rest shed with `503` + `Retry-After: 1` instead of queueing;
//! - parsing, and one backend pin per request, so every answer comes from
//!   a single manifest generation (echoed in `x-query-generation`) even
//!   while a reload swaps generations mid-flight;
//! - the `{generation}|{canonical}` response cache with single-flight
//!   deduplication (a computed 5xx is never cached, see [`ResponseCache`]);
//! - the `/api/live` long-poll: re-pin and re-probe every
//!   [`Backend::LONG_POLL_TICK`] until rows land past the cursor or
//!   `wait_ms` runs out, then answer through the cache like any request;
//! - the `query.*` request, cache, live, and latency metrics;
//! - `/healthz` (liveness), `/readyz` (readiness), and `/metrics`, all
//!   exempt from admission control.

use std::future::Future;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sandwich_net::{Method, Request, Response, Router};
use sandwich_obs::{names, Registry};
use sandwich_types::Hash;

use crate::cache::{CacheOutcome, CachedResponse, ResponseCache};
use crate::engine::QueryRequest;
use crate::render::error_response;

/// Default bound on concurrently admitted API requests.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 256;

/// Response-cache shards of a front-end.
const CACHE_SHARDS: usize = 8;

/// Entries per front-end cache shard.
const CACHE_PER_SHARD: usize = 128;

/// The nine query endpoints: the name [`QueryRequest::parse`] takes and
/// the path tail. The public surface mounts them under `/api/`, a shard's
/// partial surface under `/shard/`.
pub const ENDPOINTS: [(&str, &str); 9] = [
    ("summary", "summary"),
    ("days", "days"),
    ("attackers", "attackers"),
    ("attacker", "attacker/{pubkey}"),
    ("pool", "pool/{mint}"),
    ("sandwiches", "sandwiches"),
    ("live", "live"),
    ("validators", "validators"),
    ("validator", "validator/{pubkey}"),
];

/// Mount [`ENDPOINTS`] under `prefix` plus `/healthz` and `/readyz`, each
/// calling `handle(name, request)` (the probes as `"healthz"` and
/// `"readyz"`), and `/metrics` from `registry`.
pub fn routes<H, Fut>(prefix: &str, registry: Registry, handle: H) -> Router
where
    H: Fn(&'static str, Request) -> Fut + Clone + Send + Sync + 'static,
    Fut: Future<Output = Response> + Send + 'static,
{
    let probes = [
        ("healthz", "/healthz".to_string()),
        ("readyz", "/readyz".to_string()),
    ];
    ENDPOINTS
        .iter()
        .map(|&(name, tail)| (name, format!("{prefix}{tail}")))
        .chain(probes)
        .fold(Router::new(), |router, (name, path)| {
            let handle = handle.clone();
            router.route(Method::Get, &path, move |request| handle(name, request))
        })
        .with_metrics(registry)
}

/// `/healthz`: 200 as long as the process answers at all. `fields` are
/// extra JSON members, each with a leading comma.
pub fn health_response(fields: &str, generation: &str) -> Response {
    let body = format!("{{\"status\":\"ok\"{fields},\"generation\":\"{generation}\"}}");
    Response::new(200, body.into_bytes()).header("content-type", "application/json")
}

/// `/readyz`: 200 when `ready`, else 503 + `Retry-After: 3`. `fields`
/// are extra JSON members, each with a leading comma.
pub fn ready_response(ready: bool, fields: &str, generation: &str) -> Response {
    let body = format!("{{\"ready\":{ready}{fields},\"generation\":\"{generation}\"}}");
    let response = Response::new(if ready { 200 } else { 503 }, body.into_bytes())
        .header("content-type", "application/json");
    if ready {
        response
    } else {
        response.header("retry-after", "3")
    }
}

/// Where a [`FrontEnd`]'s answers come from.
pub trait Backend: Send + Sync + 'static {
    /// What one request pins: everything it answers comes from here.
    type Pin: Send + Sync;

    /// How often a long-poll re-pins and re-probes for rows.
    const LONG_POLL_TICK: Duration;

    /// Pin the generation serving now.
    fn pin(&self) -> Self::Pin;

    /// The manifest generation `pin` answers at.
    fn generation(pin: &Self::Pin) -> &str;

    /// Answer a validated request at `pin`.
    fn evaluate(
        &self,
        pin: &Self::Pin,
        query: &QueryRequest,
    ) -> impl Future<Output = CachedResponse> + Send;

    /// How many sandwiches sit strictly after the live cursor at `pin`
    /// (0 when the backend cannot tell).
    fn live_rows_after(
        &self,
        pin: &Self::Pin,
        after_slot: u64,
        after_id: &Hash,
    ) -> impl Future<Output = usize> + Send;

    /// Extra `/healthz` members, each with a leading comma.
    fn health_fields(&self) -> String;

    /// Readiness at `pin` plus extra `/readyz` members.
    fn readiness(&self, pin: &Self::Pin) -> impl Future<Output = (bool, String)> + Send;
}

struct Inner<B> {
    backend: B,
    cache: ResponseCache,
    registry: Registry,
    in_flight: AtomicUsize,
    max_in_flight: usize,
}

/// Decrements the in-flight count when an admitted request finishes,
/// however it finishes.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The `/api/*` front-end over backend `B`.
pub struct FrontEnd<B> {
    inner: Arc<Inner<B>>,
}

impl<B> Clone for FrontEnd<B> {
    fn clone(&self) -> Self {
        FrontEnd {
            inner: self.inner.clone(),
        }
    }
}

impl<B: Backend> FrontEnd<B> {
    /// A front-end over `backend`, admitting at most `max_in_flight` API
    /// requests at once (zero sheds every one) and recording into
    /// `registry`.
    pub fn new(backend: B, max_in_flight: usize, registry: Registry) -> Self {
        FrontEnd {
            inner: Arc::new(Inner {
                backend,
                cache: ResponseCache::new(CACHE_SHARDS, CACHE_PER_SHARD),
                registry,
                in_flight: AtomicUsize::new(0),
                max_in_flight,
            }),
        }
    }

    /// The backend answers come from.
    pub fn backend(&self) -> &B {
        &self.inner.backend
    }

    /// The metrics registry this front-end records into.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The HTTP router: `/api/*`, `/healthz`, `/readyz`, and `/metrics`.
    pub fn router(&self) -> Router {
        let front = self.clone();
        routes(
            "/api/",
            self.inner.registry.clone(),
            move |endpoint, request| {
                let front = front.clone();
                async move { front.handle(endpoint, request).await }
            },
        )
    }

    fn admit(&self) -> Option<InFlightGuard<'_>> {
        let inner = &*self.inner;
        if inner.in_flight.fetch_add(1, Ordering::AcqRel) >= inner.max_in_flight {
            inner.in_flight.fetch_sub(1, Ordering::Release);
            inner.registry.counter(names::QUERY_SHED).inc();
            return None;
        }
        Some(InFlightGuard(&inner.in_flight))
    }

    /// Answer one request to `endpoint`: a name from [`ENDPOINTS`], or
    /// `healthz` / `readyz`.
    pub async fn handle(&self, endpoint: &str, request: Request) -> Response {
        let inner = &*self.inner;
        let backend = &inner.backend;
        match endpoint {
            "healthz" => {
                return health_response(&backend.health_fields(), B::generation(&backend.pin()))
            }
            "readyz" => {
                let pin = backend.pin();
                let (ready, fields) = backend.readiness(&pin).await;
                return ready_response(ready, &fields, B::generation(&pin));
            }
            _ => {}
        }
        let registry = &inner.registry;
        registry.counter(names::QUERY_REQUESTS).inc();
        match endpoint {
            "validators" => registry.counter(names::QUERY_VALIDATORS_REQUESTS).inc(),
            "validator" => registry
                .counter(names::QUERY_VALIDATOR_DETAIL_REQUESTS)
                .inc(),
            _ => {}
        }
        let timer = Instant::now();

        let Some(_guard) = self.admit() else {
            let shed = error_response(503, "server at capacity, retry shortly");
            return Response::new(shed.status, shed.body)
                .header("content-type", &shed.content_type)
                .header("retry-after", "1");
        };

        let parsed = QueryRequest::parse(endpoint, &request);
        let pin = match &parsed {
            Ok(QueryRequest::Live {
                after_slot,
                after_id,
                limit,
                wait_ms,
            }) => self.live_pin(*after_slot, after_id, *limit, *wait_ms).await,
            _ => backend.pin(),
        };
        let generation = B::generation(&pin);

        let (cached, outcome, evicted) = match parsed {
            // Invalid parameters never reach the cache.
            Err(message) => (
                Arc::new(error_response(400, message)),
                CacheOutcome::Miss,
                0,
            ),
            Ok(query) => {
                let key = format!("{generation}|{}", query.canonical_key());
                inner
                    .cache
                    .get_or_compute_async(&key, || backend.evaluate(&pin, &query))
                    .await
            }
        };
        match outcome {
            CacheOutcome::Hit => registry.counter(names::QUERY_CACHE_HITS).inc(),
            CacheOutcome::Miss => registry.counter(names::QUERY_CACHE_MISSES).inc(),
            CacheOutcome::Deduped => {
                registry
                    .counter(names::QUERY_CACHE_SINGLE_FLIGHT_WAITS)
                    .inc();
                registry.counter(names::QUERY_CACHE_HITS).inc();
            }
        }
        if evicted > 0 {
            registry.counter(names::QUERY_CACHE_EVICTIONS).add(evicted);
        }
        registry
            .histogram(&format!("{}{endpoint}", names::QUERY_SECONDS_PREFIX))
            .observe(timer.elapsed().as_secs_f64());

        Response::new(cached.status, cached.body.clone())
            .header("content-type", &cached.content_type)
            .header("x-query-generation", generation)
    }

    /// The `/api/live` pin: probe for rows past the cursor and, on a
    /// long-poll (`wait_ms > 0`), re-pin and re-probe every tick until
    /// rows land or the wait runs out. The wait holds no lock. The page
    /// is answered at the last pin probed, so the rows counted into
    /// `query.live.rows` are the rows the page carries.
    async fn live_pin(
        &self,
        after_slot: u64,
        after_id: &Hash,
        limit: usize,
        wait_ms: u64,
    ) -> B::Pin {
        let inner = &*self.inner;
        let backend = &inner.backend;
        inner.registry.counter(names::QUERY_LIVE_REQUESTS).inc();
        let mut pin = backend.pin();
        let mut rows = backend.live_rows_after(&pin, after_slot, after_id).await;
        if wait_ms > 0 {
            inner.registry.counter(names::QUERY_LIVE_LONG_POLLS).inc();
            let waited = Instant::now();
            let deadline = Duration::from_millis(wait_ms);
            while rows == 0 && waited.elapsed() < deadline {
                tokio::time::sleep(B::LONG_POLL_TICK).await;
                pin = backend.pin();
                rows = backend.live_rows_after(&pin, after_slot, after_id).await;
            }
            inner
                .registry
                .histogram(names::QUERY_LIVE_WAIT_SECONDS)
                .observe(waited.elapsed().as_secs_f64());
        }
        if rows > 0 {
            inner
                .registry
                .counter(names::QUERY_LIVE_ROWS)
                .add(rows.min(limit) as u64);
        }
        pin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64;

    /// A backend with no engine and no sockets: every answer is
    /// `{"endpoint":...}` at a settable status, and the live row count is
    /// whatever the test stores.
    struct Fake {
        status: AtomicU64,
        rows: AtomicUsize,
        evaluations: AtomicUsize,
    }

    impl Fake {
        fn new() -> Self {
            Fake {
                status: AtomicU64::new(200),
                rows: AtomicUsize::new(0),
                evaluations: AtomicUsize::new(0),
            }
        }
    }

    impl Backend for Fake {
        type Pin = String;

        const LONG_POLL_TICK: Duration = Duration::from_millis(5);

        fn pin(&self) -> String {
            "00000000000000aa".to_string()
        }

        fn generation(pin: &String) -> &str {
            pin
        }

        async fn evaluate(&self, _pin: &String, query: &QueryRequest) -> CachedResponse {
            self.evaluations.fetch_add(1, Ordering::SeqCst);
            CachedResponse {
                status: self.status.load(Ordering::SeqCst) as u16,
                content_type: "application/json".to_string(),
                body: format!("{{\"endpoint\":\"{}\"}}", query.endpoint()).into_bytes(),
            }
        }

        async fn live_rows_after(&self, _pin: &String, _slot: u64, _id: &Hash) -> usize {
            self.rows.load(Ordering::SeqCst)
        }

        fn health_fields(&self) -> String {
            ",\"fake\":true".to_string()
        }

        async fn readiness(&self, _pin: &String) -> (bool, String) {
            (true, String::new())
        }
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: Method::Get,
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            params: HashMap::new(),
            headers: HashMap::new(),
            body: Default::default(),
        }
    }

    fn block_on<F: Future>(fut: F) -> F::Output {
        tokio::runtime::Builder::new_multi_thread()
            .enable_all()
            .build()
            .unwrap()
            .block_on(fut)
    }

    #[test]
    fn backend_server_error_is_reevaluated_not_served_from_cache() {
        block_on(async {
            let front = FrontEnd::new(Fake::new(), DEFAULT_MAX_IN_FLIGHT, Registry::new());
            let fake = front.backend();
            fake.status.store(503, Ordering::SeqCst);
            for _ in 0..2 {
                let failed = front.handle("summary", get("/api/summary", &[])).await;
                assert_eq!(failed.status, 503);
            }
            assert_eq!(
                fake.evaluations.load(Ordering::SeqCst),
                2,
                "5xx re-evaluated"
            );

            fake.status.store(200, Ordering::SeqCst);
            let fresh = front.handle("summary", get("/api/summary", &[])).await;
            let warm = front.handle("summary", get("/api/summary", &[])).await;
            assert_eq!((fresh.status, warm.status), (200, 200));
            assert_eq!(fresh.body, warm.body);
            assert_eq!(fake.evaluations.load(Ordering::SeqCst), 3, "200 cached");
            assert_eq!(
                warm.header_value("x-query-generation"),
                Some("00000000000000aa")
            );
            let snap = front.registry().snapshot();
            assert_eq!(snap.counter(names::QUERY_CACHE_MISSES), Some(3));
            assert_eq!(snap.counter(names::QUERY_CACHE_HITS), Some(1));
        });
    }

    #[test]
    fn zero_in_flight_sheds_every_api_request_but_not_the_probes() {
        block_on(async {
            let front = FrontEnd::new(Fake::new(), 0, Registry::new());
            let shed = front.handle("days", get("/api/days", &[])).await;
            assert_eq!(shed.status, 503);
            assert_eq!(shed.header_value("retry-after"), Some("1"));
            assert!(String::from_utf8_lossy(&shed.body).contains("capacity"));
            assert_eq!(front.backend().evaluations.load(Ordering::SeqCst), 0);
            let snap = front.registry().snapshot();
            assert_eq!(snap.counter(names::QUERY_SHED), Some(1));

            let health = front.handle("healthz", get("/healthz", &[])).await;
            assert_eq!(health.status, 200);
            assert_eq!(
                String::from_utf8_lossy(&health.body),
                "{\"status\":\"ok\",\"fake\":true,\"generation\":\"00000000000000aa\"}"
            );
            let ready = front.handle("readyz", get("/readyz", &[])).await;
            assert_eq!(ready.status, 200);
            assert_eq!(
                front.registry().snapshot().counter(names::QUERY_SHED),
                Some(1)
            );
        });
    }

    #[test]
    fn empty_long_poll_answers_at_its_deadline() {
        block_on(async {
            let front = FrontEnd::new(Fake::new(), DEFAULT_MAX_IN_FLIGHT, Registry::new());
            let started = Instant::now();
            let page = front
                .handle("live", get("/api/live", &[("wait_ms", "120")]))
                .await;
            let waited = started.elapsed();
            assert_eq!(page.status, 200);
            assert!(waited >= Duration::from_millis(120), "{waited:?}");
            assert!(waited < Duration::from_millis(1_500), "{waited:?}");
            let snap = front.registry().snapshot();
            assert_eq!(snap.counter(names::QUERY_LIVE_LONG_POLLS), Some(1));
            assert_eq!(snap.counter(names::QUERY_LIVE_ROWS), None);
        });
    }
}
