//! `serve`: batch analysis plus API traffic over a 1M-bundle store.
//!
//! The store is `scale_gen`-shaped, spans 8 days and carries the validator
//! spec the pipeline stamps, so attribution runs in every index build. The
//! batch phase times `scan_store` and a cold `build_index` + `save_index`.
//! Then one fixed request mix is replayed against `queryd` (one engine)
//! and again through a 2-shard `ServingCluster`, each in an open-loop phase
//! at one fixed rate and a closed-loop phase on 2 connections. It runs no
//! sim and no collector; the single-engine phase bypasses `shard`.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use sandwich_attrib::LeaderSchedule;
use sandwich_bench::scale::{generate, ScaleConfig, ScaleStats};
use sandwich_core::{scan_store, AnalysisConfig};
use sandwich_net::Server;
use sandwich_obs::{names, Registry, Snapshot};
use sandwich_query::{
    build_index, build_index_subset, load_index, save_index, save_index_as, Engine, QueryConfig,
    QueryIndex, QueryService, QueryServiceConfig, INDEX_FILE,
};
use sandwich_shard::{shard_index_file, ClusterConfig, ServingCluster, ShardMap};
use sandwich_sim::ScenarioConfig;
use sandwich_store::{BundleStore, StoreWriter};
use sandwich_types::SlotClock;

use crate::load::{self, closed_loop, latencies_ms, open_loop, Reference, Request, Sent};
use crate::spec::*;
use crate::stats::{median, quantile, sorted, Summary};
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Report};

/// Index builds per run; `index_build_s` is their median.
const BUILD_REPS: usize = 5;
/// `scan_store` passes per run; `bundles_per_s` is their median.
const SCAN_REPS: usize = 7;

/// Generate a `scale_gen` store stamped with the validator spec the
/// measurement pipeline stamps for this seed.
pub fn generate_store(dir: &Path, config: &ScaleConfig) -> (StoreWriter, ScaleStats) {
    let _ = std::fs::remove_dir_all(dir);
    let mut writer = StoreWriter::create(dir).expect("create store");
    let spec = ScenarioConfig {
        seed: config.seed,
        ..Default::default()
    }
    .validator_spec();
    writer.set_validators(spec).expect("stamp validator spec");
    let stats = generate(&mut writer, config).expect("generate store");
    (writer, stats)
}

/// Cold `build_index` + `save_index`, repeated; reports the median as
/// `index_build_s` and returns the index.
pub fn index_build(ctx: &Ctx, store: &BundleStore, report: &mut Report) -> QueryIndex {
    let config = QueryConfig {
        threads: ctx.threads,
        ..Default::default()
    };
    let mut times = Vec::new();
    let mut index = None;
    for rep in 0..BUILD_REPS {
        let started = Instant::now();
        let built = ctx
            .tracer
            .span("query.build_index", ROOT, rep as u64, || {
                build_index(store, &config)
            })
            .expect("build_index");
        ctx.tracer
            .span("query.save_index", ROOT, rep as u64, || {
                save_index(store.dir(), &built)
            })
            .expect("save_index");
        times.push(started.elapsed().as_secs_f64());
        index = Some(built);
    }
    let index = index.expect("one build");
    report.check(
        "index carries attribution (validators present)",
        index.validators.is_some(),
    );
    report.check("index covers the whole store", index.coverage.complete());
    let build = report.samples("index_build_s", &times);
    report.metric("index_build_s", build.median);
    let totals = ctx.tracer.totals();
    let per_rep = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s / t.count as f64);
    report.metric("query.build_index_s", per_rep("query.build_index"));
    report.metric("query.save_index_s", per_rep("query.save_index"));
    if ctx.tracer.on() {
        let generation = index.generation.clone();
        let load = ctx.tracer.span("query.load_index", ROOT, 0, || {
            let started = Instant::now();
            let loaded = load_index(store.dir(), &generation);
            (started.elapsed().as_secs_f64(), loaded.map(|l| l == index))
        });
        report.check("saved index loads back identical", load.1 == Ok(true));
        report.metric("query.load_index_s", load.0);
        let bytes = std::fs::metadata(store.dir().join(INDEX_FILE)).map_or(0, |m| m.len());
        report.metric("query.index_bytes", bytes as f64);
        if let Some(spec) = index.validator_spec {
            let started = Instant::now();
            let schedule = LeaderSchedule::new(&spec);
            report.metric("attrib.schedule_s", started.elapsed().as_secs_f64());
            let started = Instant::now();
            let led = schedule.slots_led_through(index.totals.max_slot);
            report.metric(
                "attrib.slots_led_through_s",
                started.elapsed().as_secs_f64(),
            );
            report.check(
                "denominator covers every slot",
                led.iter().sum::<u64>() == index.totals.max_slot + 1,
            );
        }
    }
    index
}

/// `queryd`: one `QueryService` behind a loopback HTTP server.
pub struct Queryd {
    service: QueryService,
    server: Server,
    addr: SocketAddr,
}

impl Queryd {
    pub fn start(rt: &tokio::runtime::Runtime, dir: &Path, threads: usize) -> Queryd {
        let mut config = QueryServiceConfig::new(dir);
        config.query.threads = threads;
        let service = QueryService::open(config, Registry::new()).expect("open queryd");
        let server = rt
            .block_on(Server::bind("127.0.0.1:0", service.router()))
            .expect("bind queryd");
        let addr = server.local_addr();
        Queryd {
            service,
            server,
            addr,
        }
    }

    pub fn service(&self) -> &QueryService {
        &self.service
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The open-loop phase at `rate`: checks every answer against uncached
    /// evaluation and records `<prefix>.*` latencies. Returns p50 and p90.
    pub fn open_loop_phase(
        &self,
        ctx: &Ctx,
        reqs: &[Request],
        rate: f64,
        prefix: &'static str,
        report: &mut Report,
    ) -> (f64, f64) {
        let engine = self.service.engine_snapshot();
        phase_open_loop(ctx, self.addr, &engine, reqs, rate, prefix, report)
    }

    pub fn stop(self, rt: &tokio::runtime::Runtime) {
        rt.block_on(self.server.shutdown());
    }
}

/// Span names of a phase: open loop, closed loop, one request.
fn span_names(prefix: &str) -> (&'static str, &'static str, &'static str) {
    match prefix {
        "router" => ("router.open_loop", "router.closed_loop", "router.request"),
        _ => ("query.open_loop", "query.closed_loop", "query.request"),
    }
}

/// Record the answers of one phase: operations, correctness against the
/// uncached engine, and `<prefix>.{p50,p99,hot_p50,cold_p50}_ms`.
fn tally(
    engine: &Engine,
    reqs: &[Request],
    sent: &[Sent],
    prefix: &str,
    report: &mut Report,
) -> Vec<f64> {
    report.ops(sent.len() as u64, load::failures(sent, reqs));
    let mismatches = Reference::new(engine, reqs).mismatches(sent);
    report.check(
        &format!("{prefix}: every answer equals uncached Engine::evaluate"),
        mismatches == 0,
    );
    let all = sorted(&latencies_ms(sent, reqs, None));
    report.metric(&format!("{prefix}.p50_ms"), quantile(&all, 0.5));
    report.metric(&format!("{prefix}.p99_ms"), quantile(&all, 0.99));
    let hot = latencies_ms(sent, reqs, Some(true));
    report.metric(&format!("{prefix}.hot_p50_ms"), median(&hot));
    let cold = latencies_ms(sent, reqs, Some(false));
    if !cold.is_empty() {
        report.metric(&format!("{prefix}.cold_p50_ms"), median(&cold));
    }
    all
}

#[allow(clippy::too_many_arguments)]
fn phase_open_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    engine: &Engine,
    reqs: &[Request],
    rate: f64,
    prefix: &'static str,
    report: &mut Report,
) -> (f64, f64) {
    let (phase, _, request) = span_names(prefix);
    let span = ctx.tracer.begin(phase, ROOT, 0);
    let sent = open_loop(addr, reqs, rate, LOAD_THREADS, &ctx.tracer, span, request);
    ctx.tracer.end(span);
    let all = tally(engine, reqs, &sent, prefix, report);
    let late: Vec<f64> = sent.iter().map(|s| s.late_s * 1e3).collect();
    report.samples(&format!("{prefix}.late_ms"), &late);
    let late_p99 = quantile(&sorted(&late), 0.99);
    let worst = report.get("loadgen.late_p99_ms").unwrap_or(0.0);
    report.metric("loadgen.late_p99_ms", late_p99.max(worst));
    report.note(
        &format!("{prefix}.latency_ms"),
        format!(
            "{{\"rate_per_s\":{rate},\"n\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            all.len(),
            quantile(&all, 0.5),
            quantile(&all, 0.9),
            quantile(&all, 0.99)
        ),
    );
    (quantile(&all, 0.5), quantile(&all, 0.9))
}

#[allow(clippy::too_many_arguments)]
fn phase_closed_loop(
    tracer: &Tracer,
    addr: SocketAddr,
    engine: &Engine,
    reqs: &[Request],
    seconds: f64,
    prefix: &'static str,
    report: &mut Report,
) -> f64 {
    let (_, phase, request) = span_names(prefix);
    let span = tracer.begin(phase, ROOT, 0);
    let (sent, wall) = closed_loop(addr, reqs, seconds, tracer, span, request);
    tracer.end(span);
    report.ops(sent.len() as u64, load::failures(&sent, reqs));
    let mismatches = Reference::new(engine, reqs).mismatches(&sent);
    report.check(
        &format!("{prefix}: every closed-loop answer equals uncached Engine::evaluate"),
        mismatches == 0,
    );
    sent.iter().filter(|s| s.ok(reqs)).count() as f64 / wall
}

/// p50 of the merged buckets of every histogram whose name starts with
/// `prefix` (the registry's per-endpoint and per-shard latencies).
fn merged_p50(snapshot: &Snapshot, prefix: &str) -> f64 {
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    let mut total = 0u64;
    for (name, h) in &snapshot.histograms {
        if !name.starts_with(prefix) {
            continue;
        }
        total += h.count;
        if buckets.is_empty() {
            buckets = h.buckets.clone();
        } else {
            for (b, (_, c)) in buckets.iter_mut().zip(&h.buckets) {
                b.1 += c;
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    let rank = total as f64 * 0.5;
    let (mut cumulative, mut lower) = (0u64, 0.0);
    for (upper, count) in buckets {
        if (cumulative + count) as f64 >= rank && count > 0 {
            return lower + (rank - cumulative as f64) / count as f64 * (upper - lower);
        }
        cumulative += count;
        lower = upper;
    }
    lower
}

/// `query.cache_hit_rate` and `query.shed` from a service registry.
pub fn cache_metrics(snapshot: &Snapshot, report: &mut Report) {
    let hits = snapshot.counter(names::QUERY_CACHE_HITS).unwrap_or(0) as f64;
    let misses = snapshot.counter(names::QUERY_CACHE_MISSES).unwrap_or(0) as f64;
    report.metric("query.cache_hit_rate", hits / (hits + misses).max(1.0));
    report.metric(
        "query.shed",
        snapshot.counter(names::QUERY_SHED).unwrap_or(0) as f64,
    );
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    let dir = ctx.dir("serve.store");
    let scale = ScaleConfig {
        bundles: SERVE_BUNDLES,
        days: SERVE_DAYS,
        seed: ctx.seed,
        ..Default::default()
    };

    // Set-up: generate the store (repeated; the median counts), then,
    // after the batch phase, open queryd and the cluster (counted once).
    let mut gen_times = Vec::new();
    let mut generated = None;
    for _ in 0..SERVE_SETUP_REPS {
        let started = Instant::now();
        let (writer, stats) = generate_store(&dir, &scale);
        let store = writer.into_reader();
        gen_times.push(started.elapsed().as_secs_f64());
        generated = Some((store, stats));
    }
    let (store, stats) = generated.expect("one store");
    let gen_s = report.samples("setup.generate_s", &gen_times).median;

    // Batch analysis.
    let clock = SlotClock::default();
    let analysis = AnalysisConfig::paper_defaults(SERVE_DAYS);
    let mut scan_rates = Vec::new();
    for rep in 0..SCAN_REPS {
        let started = Instant::now();
        let scanned = ctx
            .tracer
            .span("scan.store", ROOT, rep as u64, || {
                scan_store(&store, &clock, &analysis, ctx.threads)
            })
            .expect("scan_store");
        scan_rates.push(SERVE_BUNDLES as f64 / started.elapsed().as_secs_f64());
        report.check(
            "serve: scan finds exactly the planted sandwiches",
            scanned.findings.len() as u64 == stats.sandwiches,
        );
    }
    let scan = report.samples("bundles_per_s", &scan_rates);
    report.metric("bundles_per_s", scan.median);
    let index = index_build(ctx, &store, &mut report);
    report.check(
        "serve: index holds exactly the planted sandwiches",
        index.totals.sandwiches == stats.sandwiches,
    );
    report.ops((SCAN_REPS + BUILD_REPS) as u64, 0);
    if ctx.tracer.on() {
        store_layers(ctx, &store, &mut report);
    }

    let started = Instant::now();
    let queryd = Queryd::start(&rt, &dir, ctx.threads);
    let shard_s = build_shards(ctx, &store);
    report.metric("shard.build_s", shard_s);
    let cluster_registry = Registry::new();
    let mut cluster_config = ClusterConfig::new(&dir, SERVE_SHARDS);
    cluster_config.query.threads = ctx.threads;
    let cluster = rt
        .block_on(ServingCluster::serve(
            cluster_config,
            cluster_registry.clone(),
        ))
        .expect("serve cluster");
    let serving_s = started.elapsed().as_secs_f64();
    report.metric("setup_s", gen_s + serving_s);
    report.note(
        "setup",
        format!("{{\"generate_median_s\":{gen_s},\"serving_s\":{serving_s}}}"),
    );

    let open_n = (SERVE_RATE * ctx.seconds * 0.25) as usize;
    let reqs = load::mix(&index, ctx.seed, open_n, false);
    let engine = queryd.service().engine_snapshot();
    let closed_s = ctx.seconds * 0.1;

    let (p50, p90) = queryd.open_loop_phase(ctx, &reqs, SERVE_RATE, "query", &mut report);
    report.metric("latency_p50_ms", p50);
    report.metric("latency.p90_ms", p90);
    let qps = phase_closed_loop(
        &ctx.tracer,
        queryd.addr(),
        &engine,
        &reqs,
        closed_s,
        "query",
        &mut report,
    );
    report.metric("query.rps", qps);
    if ctx.tracer.on() {
        // The same closed loop with spans off: the tracing overhead.
        let off = Tracer::new(false);
        let untraced = phase_closed_loop(
            &off,
            queryd.addr(),
            &engine,
            &reqs,
            closed_s,
            "query",
            &mut report,
        );
        report.metric("trace.overhead_pct", (untraced / qps - 1.0) * 100.0);
        evaluate_layers(ctx, &engine, &reqs, &mut report);
    }
    let snapshot = queryd.service().registry().snapshot();
    cache_metrics(&snapshot, &mut report);
    let server_p50 = merged_p50(&snapshot, names::QUERY_SECONDS_PREFIX) * 1e3;
    report.metric("query.server_p50_ms", server_p50);
    report.metric("net.roundtrip_overhead_ms", p50 - server_p50);

    let router = cluster.router_addr();
    phase_open_loop(
        ctx,
        router,
        &engine,
        &reqs,
        SERVE_RATE,
        "router",
        &mut report,
    );
    let rps = phase_closed_loop(
        &ctx.tracer,
        router,
        &engine,
        &reqs,
        closed_s,
        "router",
        &mut report,
    );
    report.metric("router.rps", rps);
    let snapshot = cluster_registry.snapshot();
    report.metric(
        "shard.merge_s",
        snapshot
            .histogram(names::QUERY_SHARD_MERGE_SECONDS)
            .map_or(0.0, |h| h.sum),
    );
    report.metric(
        "shard.latency_p50_ms",
        merged_p50(&snapshot, names::QUERY_SHARD_LATENCY_PREFIX) * 1e3,
    );
    report.metric(
        "shard.fanout_width",
        snapshot
            .histogram(names::QUERY_SHARD_FANOUT_WIDTH)
            .map_or(0.0, |h| h.sum / h.count.max(1) as f64),
    );
    for (metric, counter) in [
        ("shard.stragglers", names::QUERY_SHARD_STRAGGLERS),
        ("shard.fanout_failures", names::QUERY_SHARD_FANOUT_FAILURES),
    ] {
        report.metric(metric, snapshot.counter(counter).unwrap_or(0) as f64);
    }

    rt.block_on(cluster.shutdown());
    queryd.stop(&rt);
    report.note(
        "fixed",
        format!(
            "{{\"bundles\":{SERVE_BUNDLES},\"days\":{SERVE_DAYS},\"planted\":{},\"segments\":{},\"rate_per_s\":{SERVE_RATE},\"open_loop_requests\":{open_n},\"closed_loop_s\":{closed_s},\"connections\":{LOAD_THREADS},\"shards\":{SERVE_SHARDS},\"cold_share\":{COLD_SHARE}}}",
            stats.sandwiches,
            store.segments().len()
        ),
    );
    report
}

/// Per-shard `build_index_subset` from outside, in parallel, persisted
/// where the cluster loads them. Returns the wall time.
fn build_shards(ctx: &Ctx, store: &BundleStore) -> f64 {
    let started = Instant::now();
    let map = ShardMap::plan(store.manifest(), SERVE_SHARDS);
    map.save(store.dir()).expect("save shard map");
    let config = QueryConfig {
        threads: (ctx.threads / SERVE_SHARDS).max(1),
        ..Default::default()
    };
    std::thread::scope(|scope| {
        for shard in 0..SERVE_SHARDS {
            let (map, config) = (&map, &config);
            scope.spawn(move || {
                ctx.tracer.span("shard.build", ROOT, shard as u64, || {
                    let (serving, quarantined) =
                        map.resolve(store.manifest(), shard).expect("resolve shard");
                    let index = build_index_subset(store, config, &serving, &quarantined)
                        .expect("shard build");
                    let file = shard_index_file(shard, SERVE_SHARDS, &map.fingerprint(shard));
                    save_index_as(store.dir(), &index, &file).expect("save shard index");
                })
            });
        }
    });
    started.elapsed().as_secs_f64()
}

/// Zero-copy view against materializing decode, over every segment.
fn store_layers(ctx: &Ctx, store: &BundleStore, report: &mut Report) {
    let n = store.segments().len();
    let started = Instant::now();
    ctx.tracer.span("store.open_view", ROOT, 0, || {
        for i in 0..n {
            std::hint::black_box(store.open_view(i).expect("open_view"));
        }
    });
    report.metric("store.open_view_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    ctx.tracer.span("store.read_segment", ROOT, 0, || {
        for i in 0..n {
            std::hint::black_box(store.read_segment(i).expect("read_segment"));
        }
    });
    report.metric("store.read_segment_s", started.elapsed().as_secs_f64());
}

/// `Engine::evaluate` in-process over the same mix, by class.
fn evaluate_layers(ctx: &Ctx, engine: &Engine, reqs: &[Request], report: &mut Report) {
    let (mut hot, mut cold) = (Vec::new(), Vec::new());
    let span = ctx.tracer.begin("query.evaluate", ROOT, 0);
    for r in reqs {
        let started = Instant::now();
        std::hint::black_box(engine.evaluate(&r.typed));
        let us = started.elapsed().as_secs_f64() * 1e6;
        if r.hot {
            hot.push(us);
        } else {
            cold.push(us);
        }
    }
    ctx.tracer.end(span);
    report.metric("query.evaluate_hot_us", Summary::of(&hot).median);
    report.metric("query.evaluate_cold_us", Summary::of(&cold).median);
}
