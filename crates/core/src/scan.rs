//! The scan engine: one walk over each sealed segment ([`walk_segment`],
//! reporting to a [`SegmentVisitor`]) and one store driver
//! ([`scan_segments`]) that maps it over the segments on
//! [`sandwich_store::parallel_map`] workers and reduces **in segment
//! order**. The analysis report ([`ScanPartial`]) and the query index are
//! the walk's two consumers, so both run the same detection code.
//!
//! Every accumulator in [`ScanPartial`] is either an integer (lamport
//! sums, counts) or an order-insensitive sample bag (CDF inputs, which
//! [`Cdf::from_samples`] sorts); floats appear only in
//! [`ScanPartial::finalize`]. The result: [`AnalysisReport`] is
//! bit-identical at 1, 2, or 8 threads, and identical to the single-pass
//! in-memory path ([`crate::analysis::analyze`] runs the walk's
//! per-record arm over the dataset).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use sandwich_ledger::{TransactionId, TransactionMeta};
use sandwich_obs::Registry;
use sandwich_store::{
    parallel_map, BundleStore, Columns, CorruptSegment, SegmentData, SegmentMeta, SegmentView,
    META_C1, META_C2, META_LINKED,
};
use sandwich_types::{Hash, Lamports, Slot, SlotClock};

use crate::analysis::{AnalysisConfig, AnalysisReport, DatedFinding};
use crate::dataset::{CollectedBundle, Dataset, PollRecord};
use crate::defense::{is_defensive_tip, DefenseStats};
use crate::detector::{detect, detect_in_bundle, DetectorConfig, SandwichFinding};
use crate::stats::{Cdf, DailySeries};

/// Where a scan finds the transaction metas behind a bundle: the dataset's
/// detail map in-memory, or the segment-local map during a store scan
/// (sealed segments are self-contained — a bundle's details always share
/// its segment).
pub trait DetailLookup {
    /// The meta for one transaction, if its detail was fetched.
    fn meta_of(&self, id: &TransactionId) -> Option<&TransactionMeta>;
}

impl DetailLookup for Dataset {
    fn meta_of(&self, id: &TransactionId) -> Option<&TransactionMeta> {
        self.detail(id).map(|d| &d.meta)
    }
}

impl DetailLookup for HashMap<TransactionId, TransactionMeta> {
    fn meta_of(&self, id: &TransactionId) -> Option<&TransactionMeta> {
        self.get(id)
    }
}

/// One scan unit's partial analysis state. Integer accumulators only —
/// floats are produced once, in [`ScanPartial::finalize`] — so merging
/// partials in segment order is exact and order of observation within a
/// unit never leaks into the report.
#[derive(Clone, Debug)]
pub struct ScanPartial {
    days: usize,
    bundles_by_len: [Vec<u64>; 5],
    sandwiches: Vec<u64>,
    defensive: Vec<u64>,
    victim_loss_lamports: Vec<u128>,
    attacker_gain_lamports: Vec<i128>,
    losses_usd: Vec<f64>,
    tips_len1: Vec<f64>,
    tips_len3: Vec<f64>,
    tips_sandwich: Vec<f64>,
    defense: DefenseStats,
    findings: Vec<DatedFinding>,
    non_sol: u64,
    len3_with_details: u64,
    polls: Vec<PollRecord>,
}

fn bump(series: &mut [u64], day: u64) {
    if let Some(v) = series.get_mut(day as usize) {
        *v += 1;
    }
}

/// [`ScanPartial`] as the walk's consumer, under the config it reports
/// with (the defensive threshold and the USD oracle).
struct ReportVisitor<'a> {
    partial: &'a mut ScanPartial,
    config: &'a AnalysisConfig,
}

impl SegmentVisitor for ReportVisitor<'_> {
    fn bundle(&mut self, day: u64, _slot: Slot, tx_count: usize, tip: Lamports) {
        let p = &mut *self.partial;
        let len = tx_count.clamp(1, 5);
        bump(&mut p.bundles_by_len[len - 1], day);
        if len == 1 {
            let threshold = self.config.defensive_threshold;
            p.tips_len1.push(tip.0 as f64);
            p.defense.observe_len1(tip, threshold);
            if is_defensive_tip(tip, threshold) {
                bump(&mut p.defensive, day);
            }
        } else if len == 3 {
            p.tips_len3.push(tip.0 as f64);
        }
    }

    fn linked(&mut self) {
        self.partial.len3_with_details += 1;
    }

    fn finding(
        &mut self,
        day: u64,
        _slot: Slot,
        bundle_id: Hash,
        tip: Lamports,
        finding: SandwichFinding,
    ) {
        let p = &mut *self.partial;
        bump(&mut p.sandwiches, day);
        p.tips_sandwich.push(tip.0 as f64);
        if finding.sol_legged {
            if let Some(loss) = finding.victim_loss_lamports {
                if let Some(v) = p.victim_loss_lamports.get_mut(day as usize) {
                    *v += u128::from(loss);
                }
                p.losses_usd
                    .push(self.config.oracle.lamports_to_usd(Lamports(loss)));
            }
            if let Some(gain) = finding.attacker_gain_lamports {
                if let Some(v) = p.attacker_gain_lamports.get_mut(day as usize) {
                    *v += gain;
                }
            }
        } else {
            p.non_sol += 1;
        }
        p.findings.push(DatedFinding {
            day,
            bundle_id,
            finding,
        });
    }

    fn polls(&mut self, polls: &[PollRecord]) {
        self.partial.observe_polls(polls);
    }
}

impl ScanPartial {
    /// An empty partial covering `days` measurement days.
    pub fn new(days: usize) -> Self {
        ScanPartial {
            days,
            bundles_by_len: std::array::from_fn(|_| vec![0; days]),
            sandwiches: vec![0; days],
            defensive: vec![0; days],
            victim_loss_lamports: vec![0; days],
            attacker_gain_lamports: vec![0; days],
            losses_usd: Vec::new(),
            tips_len1: Vec::new(),
            tips_len3: Vec::new(),
            tips_sandwich: Vec::new(),
            defense: DefenseStats::default(),
            findings: Vec::new(),
            non_sol: 0,
            len3_with_details: 0,
            polls: Vec::new(),
        }
    }

    /// Detected sandwiches folded in so far (streaming progress signal).
    pub fn sandwich_count(&self) -> u64 {
        self.findings.len() as u64
    }

    /// Fold one bundle in, resolving details through `lookup`.
    pub fn observe_bundle<D: DetailLookup>(
        &mut self,
        bundle: &CollectedBundle,
        lookup: &D,
        clock: &SlotClock,
        config: &AnalysisConfig,
    ) {
        let mut visitor = ReportVisitor {
            partial: self,
            config,
        };
        walk_bundle(
            bundle,
            lookup,
            clock,
            &config.detector,
            config.extended,
            &mut visitor,
        );
    }

    /// One sealed segment's partial, through the shared walk.
    fn of_segment(
        view: &SegmentView,
        clock: &SlotClock,
        config: &AnalysisConfig,
    ) -> std::io::Result<ScanPartial> {
        let mut partial = ScanPartial::new(config.days as usize);
        let visitor = &mut ReportVisitor {
            partial: &mut partial,
            config,
        };
        walk_segment(view, clock, &config.detector, config.extended, visitor)?;
        Ok(partial)
    }

    /// Append a run of poll records (they stay ordered across merges, so
    /// the overlap rate — which excludes the first poll — is exact).
    pub fn observe_polls(&mut self, polls: &[PollRecord]) {
        self.polls.extend_from_slice(polls);
    }

    /// Fold another partial in. Only valid in scan-unit order: polls are
    /// concatenated, everything else is commutative integer addition.
    pub fn merge(&mut self, other: ScanPartial) {
        debug_assert_eq!(self.days, other.days);
        for (a, b) in self.bundles_by_len.iter_mut().zip(other.bundles_by_len) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (x, y) in self.sandwiches.iter_mut().zip(other.sandwiches) {
            *x += y;
        }
        for (x, y) in self.defensive.iter_mut().zip(other.defensive) {
            *x += y;
        }
        for (x, y) in self
            .victim_loss_lamports
            .iter_mut()
            .zip(other.victim_loss_lamports)
        {
            *x += y;
        }
        for (x, y) in self
            .attacker_gain_lamports
            .iter_mut()
            .zip(other.attacker_gain_lamports)
        {
            *x += y;
        }
        self.losses_usd.extend(other.losses_usd);
        self.tips_len1.extend(other.tips_len1);
        self.tips_len3.extend(other.tips_len3);
        self.tips_sandwich.extend(other.tips_sandwich);
        self.defense.merge(&other.defense);
        self.findings.extend(other.findings);
        self.non_sol += other.non_sol;
        self.len3_with_details += other.len3_with_details;
        self.polls.extend(other.polls);
    }

    /// Convert the integer state into the report. The one place floats are
    /// produced; findings are sorted by `(day, bundle_id)` so the report is
    /// independent of which path (in-memory, 1 thread, N threads) built it.
    pub fn finalize(mut self, config: &AnalysisConfig) -> AnalysisReport {
        self.findings.sort_by_key(|a| (a.day, a.bundle_id.0));
        let series_u64 = |v: &[u64]| DailySeries {
            values: v.iter().map(|&x| x as f64).collect(),
        };
        let overlap_rate = if self.polls.len() <= 1 {
            1.0
        } else {
            let later = &self.polls[1..];
            later.iter().filter(|p| p.overlapped_previous).count() as f64 / later.len() as f64
        };
        AnalysisReport {
            days: config.days,
            bundles_by_len_per_day: std::array::from_fn(|i| series_u64(&self.bundles_by_len[i])),
            sandwiches_per_day: series_u64(&self.sandwiches),
            defensive_per_day: series_u64(&self.defensive),
            victim_loss_sol_per_day: DailySeries {
                values: self
                    .victim_loss_lamports
                    .iter()
                    .map(|&l| l as f64 / 1e9)
                    .collect(),
            },
            attacker_gain_sol_per_day: DailySeries {
                values: self
                    .attacker_gain_lamports
                    .iter()
                    .map(|&l| l as f64 / 1e9)
                    .collect(),
            },
            loss_cdf_usd: Cdf::from_samples(self.losses_usd),
            tip_cdf_len1: Cdf::from_samples(self.tips_len1),
            tip_cdf_len3: Cdf::from_samples(self.tips_len3),
            tip_cdf_sandwich: Cdf::from_samples(self.tips_sandwich),
            defense: self.defense,
            findings: self.findings,
            non_sol_sandwiches: self.non_sol,
            len3_with_details: self.len3_with_details,
            overlap_rate,
            oracle: config.oracle.clone(),
        }
    }
}

/// What the segment walk reports, in record order. Each consumer keeps
/// its own semantics on top: the report buckets a zero-tx record as
/// length 1, the index counts only true length-1 bundles as defensive.
pub trait SegmentVisitor {
    /// One bundle record: its measurement day, slot, transaction count
    /// (unclamped) and tip.
    fn bundle(&mut self, day: u64, slot: Slot, tx_count: usize, tip: Lamports);

    /// The length-3 bundle just reported has all three details, so the
    /// detector had its input.
    fn linked(&mut self) {}

    /// The bundle just reported is a confirmed sandwich.
    fn finding(
        &mut self,
        day: u64,
        slot: Slot,
        bundle_id: Hash,
        tip: Lamports,
        finding: SandwichFinding,
    );

    /// The unit's poll records, after its bundles.
    fn polls(&mut self, _polls: &[PollRecord]) {}
}

/// The per-record arm of the walk: report one bundle, resolving its
/// details through `lookup`. Length-3 bundles run the five-criteria
/// detector; with `extended`, longer bundles report their first embedded
/// sandwich too.
fn walk_bundle<D: DetailLookup, V: SegmentVisitor>(
    bundle: &CollectedBundle,
    lookup: &D,
    clock: &SlotClock,
    detector: &DetectorConfig,
    extended: bool,
    visitor: &mut V,
) {
    let day = clock.day_index(bundle.slot);
    let len = bundle.len();
    visitor.bundle(day, bundle.slot, len, bundle.tip);
    let metas = || {
        bundle
            .tx_ids
            .iter()
            .map(|id| lookup.meta_of(id))
            .collect::<Option<Vec<_>>>()
    };
    let finding = if len == 3 {
        let Some(m) = metas() else { return };
        visitor.linked();
        detect(detector, [m[0], m[1], m[2]])
    } else if extended && len > 3 {
        metas().and_then(|m| {
            detect_in_bundle(detector, &m)
                .into_iter()
                .map(|(_, f)| f)
                .next()
        })
    } else {
        None
    };
    if let Some(finding) = finding {
        visitor.finding(day, bundle.slot, bundle.bundle_id, bundle.tip, finding);
    }
}

/// The per-record arm over a fully decoded segment: details become a
/// segment-local last-wins lookup, then every bundle is walked against it.
fn walk_records<V: SegmentVisitor>(
    data: SegmentData,
    clock: &SlotClock,
    detector: &DetectorConfig,
    extended: bool,
    visitor: &mut V,
) {
    let lookup: HashMap<TransactionId, TransactionMeta> = data
        .details
        .into_iter()
        .map(|d| (d.meta.tx_id, d.meta))
        .collect();
    for bundle in &data.bundles {
        walk_bundle(bundle, &lookup, clock, detector, extended, visitor);
    }
    visitor.polls(&data.polls);
}

/// The columnar arm of the walk: a zero-copy view classified without
/// materializing every record.
///
/// The columns alone give each bundle's day, length, tip, and the three
/// detector pre-filter facts (LINKED, criterion 1, criterion 2), so the
/// overwhelmingly common cases — length-1 bundles and length-3 bundles
/// that cannot be sandwiches — are reported without touching the body.
/// Only a surviving candidate decodes its three details (and, on a
/// confirmed finding, its bundle record for the id). `cols` is
/// caller-provided scratch so a worker scanning many segments reuses one
/// arena.
///
/// Soundness of each skip is argued bit-by-bit in `store::column`; the
/// pre-filters are only consulted under the detector configuration that
/// makes them exact, and [`walk_segment`] routes extended scans (which
/// inspect longer bundles) to the per-record arm.
fn walk_columns<V: SegmentVisitor>(
    view: &SegmentView,
    cols: &mut Columns,
    clock: &SlotClock,
    det: &DetectorConfig,
    visitor: &mut V,
) -> Result<(), CorruptSegment> {
    view.read_columns(cols)?;
    let mut linked_cursor = 0usize;
    for i in 0..cols.slot.len() {
        let slot = Slot(cols.slot[i]);
        let day = clock.day_index(slot);
        let tx_count = cols.tx_count[i] as usize;
        let tip = Lamports(cols.tip[i]);
        visitor.bundle(day, slot, tx_count, tip);
        let flags = cols.flags[i];
        let entry = if flags & META_LINKED != 0 {
            let e =
                cols.linked.get(linked_cursor).copied().ok_or_else(|| {
                    CorruptSegment("more LINKED flags than linked entries".into())
                })?;
            linked_cursor += 1;
            Some(e)
        } else {
            None
        };
        if tx_count != 3 {
            continue;
        }
        let Some(entry) = entry else { continue };
        visitor.linked();
        if det.same_outer_signer && flags & META_C1 == 0 {
            continue;
        }
        if det.same_currencies && det.exclude_tip_only_final && flags & META_C2 == 0 {
            continue;
        }
        let m1 = view.detail_meta(cols, entry.details[0] as usize)?;
        let m2 = view.detail_meta(cols, entry.details[1] as usize)?;
        let m3 = view.detail_meta(cols, entry.details[2] as usize)?;
        if let Some(finding) = detect(det, [&m1, &m2, &m3]) {
            let bundle_id = view.bundle_record(cols, i)?.bundle_id;
            visitor.finding(day, slot, bundle_id, tip, finding);
        }
    }
    visitor.polls(&view.polls(cols)?);
    Ok(())
}

std::thread_local! {
    /// Per-worker column scratch: cleared between segments, never shrunk,
    /// so a scan over thousands of segments allocates its column arenas
    /// once per thread.
    static SCAN_SCRATCH: std::cell::RefCell<Columns> = std::cell::RefCell::new(Columns::default());
}

/// The one per-segment walk: the columnar arm when it is exact, otherwise
/// a full decode through the per-record arm (v1 segments without columns;
/// extended scans, whose longer-bundle detection needs every record).
pub fn walk_segment<V: SegmentVisitor>(
    view: &SegmentView,
    clock: &SlotClock,
    detector: &DetectorConfig,
    extended: bool,
    visitor: &mut V,
) -> std::io::Result<()> {
    if view.has_columns() && !extended {
        SCAN_SCRATCH.with(|scratch| {
            walk_columns(view, &mut scratch.borrow_mut(), clock, detector, visitor)
        })?;
    } else {
        walk_records(view.decode_all()?, clock, detector, extended, visitor);
    }
    Ok(())
}

/// Exact accounting of what one store pass covered: segments and bundles
/// actually scanned, sitting in quarantine, or skipped because they
/// failed to read or verify. Both the degraded scan and the query index
/// carry this block; the index persists it in its frame.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanCoverage {
    /// Serving segments in the pass (scanned + failed).
    pub segments_total: u64,
    /// Segments walked into the result.
    pub segments_scanned: u64,
    /// Segments the manifest had already quarantined (never read).
    pub segments_quarantined: u64,
    /// Serving segments that failed to read or verify and were skipped.
    pub segments_failed: u64,
    /// Bundles inside the scanned segments.
    pub bundles_scanned: u64,
    /// Bundles inside quarantined segments (per their manifest entries).
    pub bundles_quarantined: u64,
    /// Bundles inside skipped segments (per their manifest entries).
    pub bundles_failed: u64,
}

impl ScanCoverage {
    /// `true` when nothing was skipped or quarantined — the result
    /// describes every bundle the pass had on the books.
    pub fn complete(&self) -> bool {
        self.segments_quarantined == 0 && self.segments_failed == 0
    }
}

/// The one store driver: `walk` each segment of the `serving` subset
/// (indexes into [`BundleStore::segments`], opened with the manifest
/// checksum cross-check) on `threads` workers and hand the partials to
/// `reduce` **in segment order**. A failing segment is skipped and
/// counted; the `quarantined` subset (indexes into
/// [`BundleStore::quarantined`]) is accounted without being read. With a
/// registry, the pass records the `scan.*` metrics. Returns the coverage
/// and the first failure in segment order (strict callers fail on it).
pub fn scan_segments<P: Send>(
    store: &BundleStore,
    serving: &[usize],
    quarantined: &[usize],
    threads: usize,
    registry: Option<&Registry>,
    walk: impl Fn(&SegmentView) -> std::io::Result<P> + Sync,
    mut reduce: impl FnMut(P),
) -> (ScanCoverage, Option<std::io::Error>) {
    let started = std::time::Instant::now();
    let (results, workers) = parallel_map(serving, threads, |_, &i| {
        store.open_view(i).and_then(|view| walk(&view))
    });
    let mut coverage = ScanCoverage {
        segments_total: serving.len() as u64,
        segments_quarantined: quarantined.len() as u64,
        bundles_quarantined: quarantined
            .iter()
            .filter_map(|&q| store.quarantined().get(q))
            .map(|q| q.meta.bundles)
            .sum(),
        ..ScanCoverage::default()
    };
    let mut failure = None;
    for (&i, result) in serving.iter().zip(results) {
        let bundles = store.segments().get(i).map_or(0, |meta| meta.bundles);
        match result {
            Ok(partial) => {
                coverage.segments_scanned += 1;
                coverage.bundles_scanned += bundles;
                reduce(partial);
            }
            Err(e) => {
                coverage.segments_failed += 1;
                coverage.bundles_failed += bundles;
                failure.get_or_insert(e);
            }
        }
    }
    if let Some(registry) = registry {
        registry
            .counter(sandwich_obs::names::SCAN_SEGMENTS_SCANNED)
            .add(coverage.segments_scanned);
        registry
            .counter(sandwich_obs::names::SCAN_SEGMENTS_FAILED)
            .add(coverage.segments_failed);
        registry
            .counter(sandwich_obs::names::SCAN_SEGMENTS_QUARANTINED)
            .add(coverage.segments_quarantined);
        let busy = registry.histogram(sandwich_obs::names::SCAN_WORKER_BUSY_SECONDS);
        for w in &workers {
            busy.observe(w.busy.as_secs_f64());
        }
        registry
            .histogram(sandwich_obs::names::SCAN_SECONDS)
            .observe(started.elapsed().as_secs_f64());
    }
    (coverage, failure)
}

/// The report's partial over every sealed segment of `store`, with the
/// pass's coverage and first failure.
pub(crate) fn report_pass(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
    registry: Option<&Registry>,
) -> (ScanPartial, ScanCoverage, Option<std::io::Error>) {
    let serving: Vec<usize> = (0..store.segments().len()).collect();
    let quarantined: Vec<usize> = (0..store.quarantined().len()).collect();
    let mut acc = ScanPartial::new(config.days as usize);
    let (coverage, failure) = scan_segments(
        store,
        &serving,
        &quarantined,
        threads,
        registry,
        |view| ScanPartial::of_segment(view, clock, config),
        |partial| acc.merge(partial),
    );
    (acc, coverage, failure)
}

/// Full parallel analysis of a sealed store: scan, reduce, finalize. Any
/// segment that fails to read or verify fails the scan.
pub fn scan_store(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
) -> std::io::Result<AnalysisReport> {
    match report_pass(store, clock, config, threads, None) {
        (_, _, Some(failure)) => Err(failure),
        (partial, _, None) => Ok(partial.finalize(config)),
    }
}

/// Degraded-mode scan: like [`scan_store`], but a segment that fails to
/// read or verify is *skipped and accounted* instead of failing the whole
/// scan, quarantined segments are reported in the coverage block, and
/// with a registry the `scan.*` metrics are recorded. The report over the
/// surviving segments is still deterministic — byte-identical to a clean
/// scan of the same surviving set at any thread count.
pub fn scan_store_degraded(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
    registry: Option<&Registry>,
) -> std::io::Result<(AnalysisReport, ScanCoverage)> {
    let (partial, coverage, _) = report_pass(store, clock, config, threads, registry);
    Ok((partial.finalize(config), coverage))
}

/// Test oracle: full parallel analysis that decodes every record of every
/// segment through [`BundleStore::read_segment`] and the per-record arm
/// only. The zero-copy scan is benchmarked and byte-equality-tested
/// against it; nothing else should call it.
pub fn scan_store_materializing(
    store: &BundleStore,
    clock: &SlotClock,
    config: &AnalysisConfig,
    threads: usize,
) -> std::io::Result<AnalysisReport> {
    let units: Vec<usize> = (0..store.segments().len()).collect();
    let (partials, _workers) = parallel_map(&units, threads, |_, &i| {
        store.read_segment(i).map(|data| {
            let mut partial = ScanPartial::new(config.days as usize);
            let mut visitor = ReportVisitor {
                partial: &mut partial,
                config,
            };
            walk_records(data, clock, &config.detector, config.extended, &mut visitor);
            partial
        })
    });
    let mut acc = ScanPartial::new(config.days as usize);
    for partial in partials {
        acc.merge(partial?);
    }
    Ok(acc.finalize(config))
}

/// Streaming analysis: fold each segment's partial as it seals, so a
/// partial report is available mid-run. Because the fold happens in seal
/// (= segment) order, the final streaming report equals the batch scan.
/// Folding also re-reads (and checksums) the file just written — a free
/// end-to-end verification of every sealed segment.
pub struct IncrementalScan {
    clock: SlotClock,
    config: AnalysisConfig,
    partial: ScanPartial,
    segments_folded: u64,
}

impl IncrementalScan {
    /// A scanner ready to fold sealed segments.
    pub fn new(clock: SlotClock, config: AnalysisConfig) -> Self {
        let partial = ScanPartial::new(config.days as usize);
        IncrementalScan {
            clock,
            config,
            partial,
            segments_folded: 0,
        }
    }

    /// Fold one just-sealed segment in (in seal order). The file must be
    /// the segment `meta` describes: a checksum that disagrees with the
    /// manifest entry is `InvalidData`, exactly as in a store scan.
    pub fn fold_sealed(
        &mut self,
        dir: &std::path::Path,
        meta: &SegmentMeta,
    ) -> std::io::Result<()> {
        let view = SegmentView::open_sealed(dir, meta)?;
        self.partial
            .merge(ScanPartial::of_segment(&view, &self.clock, &self.config)?);
        self.segments_folded += 1;
        Ok(())
    }

    /// Segments folded so far.
    pub fn segments_folded(&self) -> u64 {
        self.segments_folded
    }

    /// Sandwiches detected so far (cheap, no finalize).
    pub fn sandwich_count(&self) -> u64 {
        self.partial.sandwich_count()
    }

    /// The report over everything folded so far.
    pub fn report(&self) -> AnalysisReport {
        self.partial.clone().finalize(&self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandwich_store::StoreWriter;
    use sandwich_types::{Hash, Keypair, Slot};

    fn bundle(seed: u64, slot: u64, len: usize, tip: u64) -> CollectedBundle {
        let kp = Keypair::from_label("scan");
        CollectedBundle {
            bundle_id: Hash::digest(&seed.to_le_bytes()),
            slot: Slot(slot),
            timestamp_ms: slot * 400,
            tip: Lamports(tip),
            tx_ids: (0..len)
                .map(|i| kp.sign(&(seed * 10 + i as u64).to_le_bytes()))
                .collect(),
        }
    }

    #[test]
    fn merge_matches_single_partial() {
        let clock = SlotClock::default();
        let config = AnalysisConfig::paper_defaults(2);
        let bundles: Vec<_> = (0..40u64).map(|i| bundle(i, i, 1, 30_000 + i)).collect();
        let lookup: HashMap<TransactionId, TransactionMeta> = HashMap::new();

        let mut whole = ScanPartial::new(2);
        for b in &bundles {
            whole.observe_bundle(b, &lookup, &clock, &config);
        }
        let mut left = ScanPartial::new(2);
        let mut right = ScanPartial::new(2);
        for b in &bundles[..17] {
            left.observe_bundle(b, &lookup, &clock, &config);
        }
        for b in &bundles[17..] {
            right.observe_bundle(b, &lookup, &clock, &config);
        }
        left.merge(right);
        let a = whole.finalize(&config);
        let b = left.finalize(&config);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn fold_sealed_rejects_a_valid_segment_that_is_not_the_sealed_one() {
        let dir = std::env::temp_dir().join(format!("scan-swap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = StoreWriter::create(&dir).unwrap();
        for seg in 0..2u64 {
            let bundles: Vec<_> = (0..10)
                .map(|i| bundle(seg * 100 + i, seg * 50 + i, 1, 20_000 + i))
                .collect();
            writer
                .seal_segment(bundles, Vec::new(), Vec::new())
                .unwrap();
        }
        let segments = writer.segments().to_vec();
        // Segment 1's file is a valid segment, just not segment 0.
        std::fs::copy(dir.join(&segments[1].file), dir.join(&segments[0].file)).unwrap();
        let mut scan =
            IncrementalScan::new(SlotClock::default(), AnalysisConfig::paper_defaults(1));
        let err = scan.fold_sealed(&dir, &segments[0]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            scan.segments_folded(),
            0,
            "nothing folded from the swapped file"
        );
        scan.fold_sealed(&dir, &segments[1]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_scan_is_thread_count_invariant() {
        let dir = std::env::temp_dir().join(format!("scan-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = StoreWriter::create(&dir).unwrap();
        for seg in 0..5u64 {
            let bundles: Vec<_> = (0..30)
                .map(|i| bundle(seg * 100 + i, seg * 50 + i, 1, 20_000 + i))
                .collect();
            writer
                .seal_segment(bundles, Vec::new(), Vec::new())
                .unwrap();
        }
        let store = writer.into_reader();
        let clock = SlotClock::default();
        let config = AnalysisConfig::paper_defaults(1);
        let base = serde_json::to_string(&scan_store(&store, &clock, &config, 1).unwrap()).unwrap();
        for threads in [2, 8] {
            let r = serde_json::to_string(&scan_store(&store, &clock, &config, threads).unwrap())
                .unwrap();
            assert_eq!(base, r, "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
