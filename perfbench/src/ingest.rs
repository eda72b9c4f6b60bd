//! `ingest`: the paper's measurement path, end to end.
//!
//! One `run_measurement` over the default scenario at 1/4000 volume for 16
//! simulated days, with the segment store and the streaming scan on, in a
//! closed loop (the sim advances as fast as the collector keeps up). Then
//! the collected store is indexed and served, as a tracker would serve the
//! fresh results, under a fixed-rate read probe for part of `--seconds`.
//! This is the only workload that runs `sim`, `jito`, `ledger`, `dex`,
//! `explorer`, the `net` client and `core::collector`; it never runs
//! `shard`.
//!
//! The traced run drives the same loop as `run_measurement_with` through
//! its public calls, with a span around each, and must reproduce the
//! untraced run's store, dataset, collector counters and report exactly.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use sandwich_core::{
    run_measurement, scaled_page_limit, scan_store, AnalysisConfig, AnalysisReport, Collector,
    CollectorConfig, CollectorStats, Dataset, IncrementalScan, PipelineConfig, StoreOptions,
};
use sandwich_explorer::{Explorer, HistoryStore, RetentionPolicy};
use sandwich_obs::{names, Registry, Snapshot};
use sandwich_sim::{ScenarioConfig, Simulation};
use sandwich_store::{BundleStore, StoreWriter};
use sandwich_types::SlotClock;

use crate::serve::{index_build, Queryd};
use crate::spec::*;
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Report};

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        days: INGEST_DAYS,
        seed,
        volume_scale: 1.0 / INGEST_VOLUME_DENOMINATOR,
        ..Default::default()
    }
}

fn pipeline(scenario: &ScenarioConfig, dir: &Path) -> PipelineConfig {
    PipelineConfig {
        collector: CollectorConfig {
            page_limit: scaled_page_limit(scenario, 1),
            ..Default::default()
        },
        store: Some(StoreOptions {
            dir: dir.to_path_buf(),
            segment_bundles: INGEST_SEGMENT_BUNDLES,
            streaming: true,
        }),
        ..Default::default()
    }
}

/// What one collection run left behind, in comparable form.
struct Collected {
    wall_s: f64,
    clock: SlotClock,
    store: BundleStore,
    report: AnalysisReport,
    dataset: Vec<u8>,
    stats: CollectorStats,
    metrics: Snapshot,
    polls_fetched: u64,
    polls_new: u64,
}

impl Collected {
    fn bundles(&self) -> u64 {
        self.store.manifest().total_bundles()
    }

    /// Everything the traced replica must reproduce.
    fn fingerprint(&self) -> String {
        let checksums: Vec<&String> = self.store.segments().iter().map(|m| &m.checksum).collect();
        format!(
            "{}|{}|{:?}|{:?}|{}",
            serde_json::to_string(&self.report).expect("report serializes"),
            String::from_utf8_lossy(&self.dataset),
            self.stats,
            checksums,
            self.store.manifest().total_bundles()
        )
    }
}

fn dataset_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    dataset.write_jsonl(&mut out).expect("dataset serializes");
    out
}

fn untraced(rt: &tokio::runtime::Runtime, sim: &mut Simulation, dir: &Path) -> Collected {
    let config = pipeline(sim.config(), dir);
    let started = Instant::now();
    let run = rt
        .block_on(run_measurement(sim, config))
        .expect("run_measurement");
    let wall_s = started.elapsed().as_secs_f64();
    let fetched: usize = run.dataset.polls().iter().map(|p| p.fetched).sum();
    let new: usize = run.dataset.polls().iter().map(|p| p.new).sum();
    Collected {
        wall_s,
        clock: run.clock,
        report: run.streaming_report.clone().expect("streaming report"),
        dataset: dataset_bytes(&run.dataset),
        stats: run.collector_stats,
        metrics: run.metrics.clone(),
        store: run.store.expect("store mode run"),
        polls_fetched: fetched as u64,
        polls_new: new as u64,
    }
}

/// `run_measurement_with` (fresh run, no halt, no resume), call for call,
/// with a span around each call into a layer.
async fn replica(sim: &mut Simulation, dir: &Path, tracer: &Tracer) -> std::io::Result<Collected> {
    let config = pipeline(sim.config(), dir);
    let started = Instant::now();
    let root = tracer.begin("ingest.run", ROOT, 0);
    let clock = sim.clock();
    let history = Arc::new(RwLock::new(HistoryStore::new(
        clock,
        RetentionPolicy::OnlyBundleLength(3),
    )));
    let registry = Registry::new();
    sim.attach_registry(&registry);
    let mut explorer_config = config.explorer.clone();
    explorer_config
        .faults
        .outages_ms
        .extend(sim.config().downtime_windows_ms(&clock));
    let explorer =
        Explorer::start_with_registry(history.clone(), explorer_config, registry.clone()).await?;
    let mut collector = Collector::with_registry(explorer.addr(), config.collector, &registry);
    let poll_errors = registry.counter("pipeline.poll_errors");
    let detail_errors = registry.counter("pipeline.detail_errors");
    let options = config.store.as_ref().expect("store options");
    let mut writer = StoreWriter::create(&options.dir)?;
    writer.set_validators(sim.config().validator_spec())?;
    let store_dir = writer.dir().to_path_buf();
    collector.attach_store(writer, options.segment_bundles);
    let mut incremental =
        IncrementalScan::new(clock, AnalysisConfig::paper_defaults(sim.config().days));
    let partials_emitted = registry.counter(names::SCAN_PARTIALS_EMITTED);
    let streaming_sandwiches = registry.gauge(names::SCAN_STREAMING_SANDWICHES);
    let (mut fetched, mut new) = (0u64, 0u64);

    let mut tick = 0u64;
    while let Some(outcome) = tracer.span("sim.step", root, tick, || sim.step()) {
        tracer.span("explorer.record_slot", root, tick, || {
            history.write().record_slot(&outcome.result)
        });
        let now_ms = clock.unix_ms(outcome.result.block.slot);
        explorer.set_now_ms(now_ms);
        if tick.is_multiple_of(config.poll_every_ticks) {
            let span = tracer.begin("collector.poll", root, tick);
            let polled = collector.poll_bundles(&clock, outcome.day, now_ms).await;
            tracer.end(span);
            match polled {
                Ok(Some(record)) => {
                    fetched += record.fetched as u64;
                    new += record.new as u64;
                }
                Ok(None) => {}
                Err(_) => poll_errors.inc(),
            }
        }
        if tick.is_multiple_of(config.detail_every_ticks) {
            let span = tracer.begin("collector.detail", root, tick);
            let fetched_details = collector.fetch_pending_details(now_ms).await;
            tracer.end(span);
            if fetched_details.is_err() {
                detail_errors.inc();
            }
        }
        let sealed = tracer.span("store.seal", root, tick, || collector.flush_store(false))?;
        for meta in sealed {
            tracer.span("scan.fold_sealed", root, tick, || {
                incremental.fold_sealed(&store_dir, &meta)
            })?;
            partials_emitted.inc();
            streaming_sandwiches.set(incremental.sandwich_count() as i64);
        }
        tick += 1;
    }

    let now_ms = explorer.now_ms();
    let span = tracer.begin("collector.detail", root, tick);
    let fetched_details = collector.fetch_pending_details(now_ms).await;
    tracer.end(span);
    if fetched_details.is_err() {
        detail_errors.inc();
    }
    let sealed = tracer.span("store.seal", root, tick, || collector.flush_store(true))?;
    for meta in sealed {
        tracer.span("scan.fold_sealed", root, tick, || {
            incremental.fold_sealed(&store_dir, &meta)
        })?;
        partials_emitted.inc();
        streaming_sandwiches.set(incremental.sandwich_count() as i64);
    }
    explorer.shutdown().await;
    let store = collector
        .take_store()
        .expect("store attached")
        .into_reader();
    let report = tracer.span("core.analyze", root, tick, || incremental.report());
    tracer.end(root);
    Ok(Collected {
        wall_s: started.elapsed().as_secs_f64(),
        clock,
        store,
        report,
        dataset: dataset_bytes(&collector.dataset),
        stats: collector.stats,
        metrics: registry.snapshot(),
        polls_fetched: fetched,
        polls_new: new,
    })
}

/// Count a run's operations and check its streaming report against a
/// post-run scan of the same store.
fn account(ctx: &Ctx, run: &Collected, report: &mut Report) {
    let counter = |name: &str| run.metrics.counter(name).unwrap_or(0);
    let attempted = run.stats.polls_ok
        + run.stats.polls_failed
        + run.stats.detail_batches
        + counter("pipeline.detail_errors")
        + run.stats.segments_sealed;
    let failed = run.stats.polls_failed + counter("pipeline.detail_errors");
    report.ops(attempted, failed);
    let rescan = scan_store(
        &run.store,
        &run.clock,
        &AnalysisConfig::paper_defaults(INGEST_DAYS),
        ctx.threads,
    )
    .expect("post-run scan");
    report.check(
        "ingest: streaming report equals a post-run scan_store",
        serde_json::to_string(&rescan).ok() == serde_json::to_string(&run.report).ok(),
    );
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");

    // Set-up is building the simulation (universe, populations, schedule).
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..INGEST_SETUP_REPS {
        let started = Instant::now();
        let sim = Simulation::new(scenario(ctx.seed));
        setup.push(started.elapsed().as_secs_f64());
        built = Some(sim);
    }
    let setup_s = report.samples("setup_s", &setup).median;
    report.metric("setup_s", setup_s);
    let mut sim = built.expect("one simulation");

    let dir = ctx.dir("ingest.store");
    let collected = if ctx.tracer.on() {
        // Reference run untraced, then the traced replica on an identical
        // simulation; the replica must reproduce it exactly.
        let reference = untraced(&rt, &mut sim, &ctx.dir("reference.store"));
        account(ctx, &reference, &mut report);
        let mut sim = Simulation::new(scenario(ctx.seed));
        let traced = rt
            .block_on(replica(&mut sim, &dir, &ctx.tracer))
            .expect("traced replica");
        account(ctx, &traced, &mut report);
        report.check(
            "ingest: traced replica reproduces run_measurement exactly",
            traced.fingerprint() == reference.fingerprint(),
        );
        report.metric(
            "trace.overhead_pct",
            (traced.wall_s / reference.wall_s - 1.0) * 100.0,
        );
        layer_metrics(ctx, &traced, &mut report);
        traced
    } else {
        // One closed-loop collection: its length is set by the fixed
        // 16-day scenario, not by `--seconds`.
        let run = untraced(&rt, &mut sim, &dir);
        account(ctx, &run, &mut report);
        report.metric("bundles_per_s", run.bundles() as f64 / run.wall_s);
        run
    };
    report.note(
        "collected",
        format!(
            "{{\"bundles\":{},\"sandwiches\":{},\"segments\":{}}}",
            collected.bundles(),
            collected.report.total_sandwiches(),
            collected.store.segments().len()
        ),
    );

    // Analyse and serve the fresh results.
    let index = index_build(ctx, &collected.store, &mut report);
    report.check(
        "ingest: index agrees with the streaming report",
        index.totals.sandwiches == collected.report.total_sandwiches(),
    );
    let queryd = Queryd::start(&rt, collected.store.dir(), ctx.threads);
    let reqs = crate::load::mix(
        &index,
        ctx.seed,
        (INGEST_PROBE_RATE * INGEST_PROBE_SHARE * ctx.seconds) as usize,
        false,
    );
    let (p50, p90) = queryd.open_loop_phase(ctx, &reqs, INGEST_PROBE_RATE, "query", &mut report);
    report.metric("latency_p50_ms", p50);
    report.metric("latency.p90_ms", p90);
    queryd.stop(&rt);
    report.note(
        "fixed",
        format!(
            "{{\"days\":{INGEST_DAYS},\"volume\":\"1/{INGEST_VOLUME_DENOMINATOR}\",\"segment_bundles\":{INGEST_SEGMENT_BUNDLES},\"probe_rate_per_s\":{INGEST_PROBE_RATE},\"probe_requests\":{}}}",
            reqs.len()
        ),
    );
    report
}

/// Per-layer metrics of the traced replica: span self times plus the
/// program's own registry counters and histograms.
fn layer_metrics(ctx: &Ctx, run: &Collected, report: &mut Report) {
    let totals = ctx.tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let m = &run.metrics;
    let counter = |name: &str| m.counter(name).unwrap_or(0) as f64;
    report.metric("sim.step_s", get("sim.step").self_s);
    report.metric("sim.steps", get("sim.step").count as f64);
    report.metric("explorer.record_slot_s", get("explorer.record_slot").self_s);
    let poll = get("collector.poll");
    report.metric("collector.poll_s", poll.self_s);
    report.metric("collector.polls", poll.count as f64);
    report.metric("collector.polls_failed", counter("collector.polls_failed"));
    let handler = m
        .histogram("explorer.bundles_seconds")
        .map_or(0.0, |h| h.sum);
    report.metric("explorer.handler_s", handler);
    report.metric("net.poll_transport_s", poll.self_s - handler);
    report.metric("collector.detail_s", get("collector.detail").self_s);
    report.metric(
        "collector.details_failed",
        counter("collector.details_failed"),
    );
    report.metric(
        "collector.useful_row_ratio",
        run.polls_new as f64 / run.polls_fetched.max(1) as f64,
    );
    let seal = get("store.seal");
    report.metric("store.seal_s", seal.self_s);
    report.metric("store.seals", run.stats.segments_sealed as f64);
    report.metric(
        "store.bytes_per_bundle",
        run.store.manifest().total_bytes() as f64 / run.bundles().max(1) as f64,
    );
    report.metric("scan.fold_sealed_s", get("scan.fold_sealed").self_s);
    report.metric("core.analyze_s", get("core.analyze").self_s);
    let wall = get("ingest.run").total_s;
    let explained = [
        "sim.step",
        "explorer.record_slot",
        "collector.poll",
        "collector.detail",
        "store.seal",
        "scan.fold_sealed",
    ]
    .iter()
    .map(|n| get(n).self_s)
    .sum::<f64>();
    report.metric("trace.explained_ratio", explained / wall.max(1e-9));
    report.note(
        "waterfall",
        format!("{{\"traced_wall_s\":{wall},\"explained_s\":{explained}}}"),
    );
}
