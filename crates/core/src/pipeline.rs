//! The end-to-end measurement pipeline: simulated chain → explorer API over
//! HTTP → polling collector → analysis.
//!
//! This is the whole paper in one function: the simulation produces blocks,
//! the explorer serves its two endpoints (injecting whatever faults its
//! plan schedules — including the configured downtime windows, which
//! become Figure 1's shaded gaps), and the collector polls every two
//! simulated minutes, riding out faults with retries, a circuit breaker,
//! and overlap backfill. The analysis turns the dataset into the figures.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::RwLock;

use sandwich_explorer::{Explorer, ExplorerConfig, HistoryStore, RetentionPolicy};
use sandwich_obs::{Registry, Snapshot};
use sandwich_sim::Simulation;
use sandwich_store::{BundleStore, StoreWriter};
use sandwich_types::SlotClock;

use crate::analysis::{analyze, AnalysisConfig, AnalysisReport};
use crate::checkpoint::{Checkpoint, StoreCheckpoint};
use crate::collector::{Collector, CollectorConfig, CollectorStats};
use crate::dataset::Dataset;
use crate::scan::{report_pass, IncrementalScan};

/// Pipeline tunables.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Explorer service behaviour, including its fault-injection plan.
    /// The scenario's `downtime_days` are appended to the plan's outage
    /// windows automatically — downtime is a server-side fault the
    /// collector must survive, not a voluntary skip.
    pub explorer: ExplorerConfig,
    /// Collector behaviour. `page_limit` should be the scaled equivalent
    /// of the paper's 50,000 (see [`scaled_page_limit`]).
    pub collector: CollectorConfig,
    /// Poll the bundles endpoint every N ticks (1 tick = 2 sim-minutes).
    pub poll_every_ticks: u64,
    /// Fetch pending length-3 details every N ticks.
    pub detail_every_ticks: u64,
    /// Flush collected records into a segmented binary bundle store as the
    /// run progresses (bounded resident memory), instead of accumulating
    /// everything in one in-memory `Vec` until the end.
    pub store: Option<StoreOptions>,
}

/// Segment-store wiring for a measurement run.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Directory for the manifest and segment files. Must not already hold
    /// a store (fresh runs) — resumed runs reattach via the checkpoint.
    pub dir: PathBuf,
    /// Bundles per sealed segment (the flush threshold).
    pub segment_bundles: usize,
    /// Fold each segment's analysis partial as it seals, so
    /// [`MeasurementRun::streaming_report`] carries the report without a
    /// separate post-run scan.
    pub streaming: bool,
}

impl StoreOptions {
    /// Store at `dir` with default segment size, streaming off.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreOptions {
            dir: dir.into(),
            segment_bundles: 5_000,
            streaming: false,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            explorer: ExplorerConfig::default(),
            collector: CollectorConfig::default(),
            poll_every_ticks: 1,
            detail_every_ticks: 30,
            store: None,
        }
    }
}

/// Run control: where to stop and where to pick up.
#[derive(Default)]
pub struct RunOptions {
    /// Stop before processing this tick, as if the process were killed.
    /// The run returns with `next_tick` set so it can be checkpointed.
    pub halt_at_tick: Option<u64>,
    /// Resume from a previous run's checkpoint: the simulation is replayed
    /// deterministically (feeding the explorer's history) without polling
    /// until the checkpointed cursor, then collection continues.
    pub resume: Option<Checkpoint>,
}

/// The paper's 50,000-bundle page, scaled to the scenario.
///
/// On mainnet a 50,000-bundle page covers ≈ 2.43× the bundle volume of one
/// two-minute polling interval (50,000 ÷ 14.8M/720). The scaled page keeps
/// that coverage ratio relative to the scenario's per-poll volume, so
/// overlap dynamics — including occasional misses under volume spikes —
/// are preserved.
pub fn scaled_page_limit(scenario: &sandwich_sim::ScenarioConfig, poll_every_ticks: u64) -> usize {
    let per_poll =
        scenario.bundles_per_day() / scenario.ticks_per_day as f64 * poll_every_ticks as f64;
    ((per_poll * 2.43).round() as usize).max(10)
}

/// Result of a full measurement run.
pub struct MeasurementRun {
    /// The collected dataset.
    pub dataset: Dataset,
    /// Collector health counters.
    pub collector_stats: CollectorStats,
    /// Requests the explorer actually served.
    pub explorer_requests: u64,
    /// Polls that failed even after retries (missed epochs).
    pub polls_failed: u64,
    /// The first tick a resumed run would process. Equal to the tick count
    /// for a run that finished; the halt point for a halted run.
    pub next_tick: u64,
    /// Whether the run stopped at `halt_at_tick` rather than completing.
    pub halted: bool,
    /// Final metrics snapshot across every layer (`sim.`, `engine.`,
    /// `bank.`, `explorer.`, `collector.`, `pipeline.`, `store.`, `scan.`).
    pub metrics: Snapshot,
    /// The slot clock shared by chain and collector.
    pub clock: SlotClock,
    /// The sealed segment store, when the run flushed into one.
    pub store: Option<BundleStore>,
    /// The streaming report (store mode with `streaming: true`): folded
    /// segment by segment as each sealed, identical to a post-run scan.
    pub streaming_report: Option<AnalysisReport>,
}

impl MeasurementRun {
    /// Analyze the collected data with the given configuration. In store
    /// mode the sealed segments are scanned (single-threaded here; use
    /// [`MeasurementRun::try_analyze`] for a thread count) plus whatever is
    /// still resident; legacy mode analyzes the in-memory dataset.
    pub fn analyze(&self, config: &AnalysisConfig) -> AnalysisReport {
        self.try_analyze(config, 1)
            .expect("segment store scan failed")
    }

    /// [`MeasurementRun::analyze`] over `threads` scan workers. The report
    /// is byte-identical for any thread count.
    pub fn try_analyze(
        &self,
        config: &AnalysisConfig,
        threads: usize,
    ) -> std::io::Result<AnalysisReport> {
        match &self.store {
            Some(store) if !store.segments().is_empty() => {
                let (mut acc, _, failure) = report_pass(store, &self.clock, config, threads, None);
                if let Some(failure) = failure {
                    return Err(failure);
                }
                // Fold in whatever never sealed (a halted run's residue;
                // empty after a completed run's final flush).
                for bundle in self.dataset.bundles() {
                    acc.observe_bundle(bundle, &self.dataset, &self.clock, config);
                }
                acc.observe_polls(self.dataset.unspilled_polls());
                Ok(acc.finalize(config))
            }
            _ => Ok(analyze(&self.dataset, &self.clock, config)),
        }
    }

    /// Convert a (typically halted) run into a resumable checkpoint. Store
    /// mode checkpoints by reference: the manifest entry list, not the
    /// segment data.
    pub fn into_checkpoint(self) -> Checkpoint {
        Checkpoint {
            next_tick: self.next_tick,
            stats: self.collector_stats,
            store: self.store.map(|s| StoreCheckpoint {
                dir: s.dir().to_string_lossy().into_owned(),
                segments: s.segments().to_vec(),
            }),
            dataset: self.dataset,
        }
    }
}

/// Drive `sim` to completion while collecting through a live explorer
/// instance over real HTTP.
pub async fn run_measurement(
    sim: &mut Simulation,
    config: PipelineConfig,
) -> std::io::Result<MeasurementRun> {
    run_measurement_with(sim, config, RunOptions::default()).await
}

/// [`run_measurement`] with halt/resume control.
pub async fn run_measurement_with(
    sim: &mut Simulation,
    config: PipelineConfig,
    opts: RunOptions,
) -> std::io::Result<MeasurementRun> {
    let clock = sim.clock();
    // Retain details exactly where the collector will ask for them.
    let retention = if config.collector.detail_bundle_lens == [3] {
        RetentionPolicy::OnlyBundleLength(3)
    } else {
        RetentionPolicy::BundleLengths(config.collector.detail_bundle_lens)
    };
    let store = Arc::new(RwLock::new(HistoryStore::new(clock, retention)));
    // One registry shared by every layer, live at the explorer's /metrics.
    let registry = Registry::new();
    sim.attach_registry(&registry);
    // Scheduled downtime is served as a hard outage by the explorer, so the
    // collector's retry/breaker path — not a voluntary skip — produces the
    // Figure 1 gaps.
    let mut explorer_config = config.explorer.clone();
    explorer_config
        .faults
        .outages_ms
        .extend(sim.config().downtime_windows_ms(&clock));
    let explorer =
        Explorer::start_with_registry(store.clone(), explorer_config, registry.clone()).await?;
    let mut collector = Collector::with_registry(explorer.addr(), config.collector, &registry);
    let poll_errors = registry.counter("pipeline.poll_errors");
    let detail_errors = registry.counter("pipeline.detail_errors");

    // Resume: restore the collected state, then fast-forward the (fully
    // deterministic) simulation to the cursor without touching the network.
    let (start_tick, resumed_store) = match opts.resume {
        Some(cp) => {
            // Keep the pipeline-level ledger in step with the restored
            // collector counters (poll_errors mirrors polls_failed).
            poll_errors.add(cp.stats.polls_failed);
            let resumed_store = cp.store;
            collector.restore(cp.stats, cp.dataset);
            (cp.next_tick, resumed_store)
        }
        None => (0, None),
    };

    // Store mode: reattach the checkpointed writer (manifest only — no
    // sealed segment is re-read into memory) or create a fresh store.
    let segment_bundles = config
        .store
        .as_ref()
        .map(|s| s.segment_bundles)
        .unwrap_or(5_000);
    let store_dir: Option<PathBuf> = match (&resumed_store, &config.store) {
        (Some(sc), _) => {
            let writer = StoreWriter::resume(Path::new(&sc.dir), &sc.segments)?;
            let dir = writer.dir().to_path_buf();
            collector.attach_store(writer, segment_bundles);
            Some(dir)
        }
        (None, Some(options)) => {
            let mut writer = StoreWriter::create(&options.dir)?;
            // Stamp the chain's validator spec into the manifest: public
            // chain data from which the index recomputes the full leader
            // schedule, attributing each sandwich to its slot leader.
            writer.set_validators(sim.config().validator_spec())?;
            let dir = writer.dir().to_path_buf();
            collector.attach_store(writer, options.segment_bundles);
            Some(dir)
        }
        (None, None) => None,
    };

    // Streaming analysis folds each segment as it seals. A resumed run
    // must first catch up on the segments sealed before the checkpoint.
    let mut incremental = match (&config.store, &store_dir) {
        (Some(options), Some(dir)) if options.streaming => {
            let mut inc =
                IncrementalScan::new(clock, AnalysisConfig::paper_defaults(sim.config().days));
            if let Some(segments) = collector.store_segments() {
                for meta in segments {
                    inc.fold_sealed(dir, meta)?;
                }
            }
            Some(inc)
        }
        _ => None,
    };
    let partials_emitted = registry.counter(sandwich_obs::names::SCAN_PARTIALS_EMITTED);
    let streaming_sandwiches = registry.gauge(sandwich_obs::names::SCAN_STREAMING_SANDWICHES);

    let mut tick_counter = 0u64;
    let mut halted = false;
    while let Some(outcome) = sim.step() {
        if opts.halt_at_tick.is_some_and(|h| tick_counter >= h) {
            halted = true;
            break;
        }
        store.write().record_slot(&outcome.result);
        let now_ms = clock.unix_ms(outcome.result.block.slot);
        explorer.set_now_ms(now_ms);

        if tick_counter >= start_tick {
            if tick_counter.is_multiple_of(config.poll_every_ticks) {
                // Transient failures are survived by retries; a poll that
                // still fails after them is a missed epoch, like the
                // paper's — but it is counted, not discarded. A poll the
                // open circuit breaker skipped is neither.
                if collector
                    .poll_bundles(&clock, outcome.day, now_ms)
                    .await
                    .is_err()
                {
                    poll_errors.inc();
                }
            }
            if tick_counter.is_multiple_of(config.detail_every_ticks)
                && collector.fetch_pending_details(now_ms).await.is_err()
            {
                detail_errors.inc();
            }
            // Seal every full segment's worth of drained records, keeping
            // resident memory bounded while the run is still polling.
            for meta in collector.flush_store(false)? {
                if let (Some(inc), Some(dir)) = (incremental.as_mut(), &store_dir) {
                    inc.fold_sealed(dir, &meta)?;
                    partials_emitted.inc();
                    streaming_sandwiches.set(inc.sandwich_count() as i64);
                }
            }
        }
        tick_counter += 1;
    }

    // Final sweep for any details still pending, then seal everything left
    // — unless we are emulating a kill, which gets no goodbye (the residue
    // rides in the checkpoint instead).
    if !halted {
        let now_ms = explorer.now_ms();
        if collector.fetch_pending_details(now_ms).await.is_err() {
            detail_errors.inc();
        }
        for meta in collector.flush_store(true)? {
            if let (Some(inc), Some(dir)) = (incremental.as_mut(), &store_dir) {
                inc.fold_sealed(dir, &meta)?;
                partials_emitted.inc();
                streaming_sandwiches.set(inc.sandwich_count() as i64);
            }
        }
    }

    let explorer_requests = explorer.requests_served();
    explorer.shutdown().await;

    let sealed_store = collector.take_store().map(StoreWriter::into_reader);
    Ok(MeasurementRun {
        dataset: collector.dataset,
        polls_failed: collector.stats.polls_failed,
        collector_stats: collector.stats,
        explorer_requests,
        next_tick: tick_counter,
        halted,
        metrics: registry.snapshot(),
        clock,
        store: sealed_store,
        streaming_report: incremental.map(|inc| inc.report()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use sandwich_sim::ScenarioConfig;

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn tiny_end_to_end_measurement() {
        let scenario = ScenarioConfig::tiny();
        let days = scenario.days;
        let page_limit = scaled_page_limit(&scenario, 1);
        let mut sim = Simulation::new(scenario);
        let pipeline = PipelineConfig {
            collector: CollectorConfig {
                page_limit,
                detail_batch: 100,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = run_measurement(&mut sim, pipeline).await.unwrap();
        assert!(
            run.dataset.len() > 100,
            "collected {} bundles",
            run.dataset.len()
        );
        assert!(run.collector_stats.polls_ok > 0);
        // Downtime is now a server-side outage: polls during it fail (or
        // are skipped by the open breaker) instead of being silently
        // withheld, and they are all accounted for.
        assert!(run.polls_failed > 0, "downtime produced no failed polls");

        let report = run.analyze(&AnalysisConfig::paper_defaults(days));

        // Detection matches ground truth: every landed sandwich that was
        // collected must be found, and nothing else.
        let truth = sim.truth();
        let found: std::collections::HashSet<_> = report
            .findings
            .iter()
            .map(|f| {
                // Recover the bundle id via the day+victim pair is ambiguous;
                // instead check counts below.
                (f.day, f.finding.victim)
            })
            .collect();
        assert!(!found.is_empty());
        assert!(
            report.total_sandwiches() <= truth.total_sandwiches(),
            "no false positives beyond ground truth: found {} vs truth {}",
            report.total_sandwiches(),
            truth.total_sandwiches()
        );
        // The collector missed at most the downtime window; outside it,
        // detection should recover the bulk of ground truth.
        assert!(
            report.total_sandwiches() as f64 >= truth.total_sandwiches() as f64 * 0.4,
            "found {} of {}",
            report.total_sandwiches(),
            truth.total_sandwiches()
        );

        // No poll *succeeds* during the downtime day (day 1 in the tiny
        // scenario): the explorer drops every connection in the window.
        assert!(run.dataset.polls().iter().all(|p| p.day != 1));
        // The first poll after the outage backfills the gap's trailing
        // edge, recovering bundles no successful poll ever covered.
        assert!(
            run.collector_stats.bundles_recovered > 0,
            "post-outage backfill recovered nothing"
        );

        // Defensive classification catches ground-truth defensive bundles.
        assert!(report.defense.defensive > 0);
        assert!(report.defense.defensive_fraction() > 0.5);

        // Every layer reported into the shared registry.
        let m = &run.metrics;
        for prefix in ["sim.", "engine.", "bank.", "explorer.", "collector."] {
            assert!(
                m.counter_sum(prefix) > 0,
                "no non-zero {prefix} counters in {:?}",
                m.counters
            );
        }
        assert_eq!(m.counter("collector.polls_failed"), Some(run.polls_failed));
        assert_eq!(m.counter("pipeline.poll_errors"), Some(run.polls_failed));
        // The outage is injected (and counted) by the fault plan.
        assert!(m.counter("faults.injected.outage").unwrap_or(0) > 0);
        assert!(m.histogram("explorer.bundles_seconds").unwrap().count > 0);
        assert!(m.histogram("sim.tick_seconds").unwrap().count > 0);
    }
}
