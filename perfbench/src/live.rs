//! `live`: writes beside reads over a long history.
//!
//! The store is pre-filled with 200k bundles over 32 days, stamped with
//! the validator spec. During the timed phase a generator appends bundles
//! at a fixed rate with planted sandwiches at a fixed density and seals a
//! segment every `LIVE_SEAL_BUNDLES`; a bench-side watcher calls
//! `QueryService::reload` as soon as a seal lands (not queryd's 3 s
//! sleep, which would hide the fold); a cursor client long-polls
//! `/api/live`; a background reader sends hot-key requests at a fixed
//! rate. This is the only workload where incremental folds, their
//! `save_index`, the attribution denominator walk and generation-driven
//! cache invalidation sit on the path a user waits on.
//!
//! Freshness is the time from a planted sandwich being handed to the store
//! writer until its row appears on the `/api/live` tail.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;

use sandwich_attrib::LeaderSchedule;
use sandwich_bench::scale::{ScaleConfig, SLOTS_PER_DAY};
use sandwich_jito::{bundle_id_of, tip_account, BundleId};
use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
use sandwich_obs::names;
use sandwich_query::{
    build_index_subset, encode_live_cursor, fold_indexes, origin_cursor, save_index, QueryConfig,
    QueryIndex, SandwichRef,
};
use sandwich_store::{BundleStore, CollectedBundle, CollectedDetail};
use sandwich_types::{LamportDelta, Lamports, Pubkey, Signature, Slot};

use crate::load::{self, latencies_ms, open_loop};
use crate::serve::{cache_metrics, generate_store, index_build, Queryd};
use crate::spec::*;
use crate::stats::{median, quantile, sorted};
use crate::trace::ROOT;
use crate::{Ctx, Report};

/// How long after the timed phase the run waits for the last seal to
/// reach the tail before it gives up and fails.
const DRAIN_SECONDS: f64 = 30.0;

/// The `/api/live` fields the cursor client reads.
#[derive(Deserialize)]
struct LivePage {
    cursor: String,
    rows: Vec<SandwichRef>,
}

/// One reload the watcher made: its wall time and the serving segment
/// count and generation it left.
struct Reload {
    seconds: f64,
    segments: usize,
    generation: String,
}

/// The appended-bundle generator: plain bundles and detectable sandwiches
/// shaped like collector output, at slots after the pre-filled history.
struct Appender {
    rng: StdRng,
    next_slot: u64,
    slot_step: u64,
    attackers: Vec<Pubkey>,
    pools: Vec<Pubkey>,
}

impl Appender {
    fn new(seed: u64, after_slot: u64) -> Appender {
        Appender {
            rng: StdRng::seed_from_u64(seed ^ 0x6c69_7665_5f61_7070),
            next_slot: after_slot + 1,
            slot_step: (LIVE_DAYS * SLOTS_PER_DAY / LIVE_PREFILL_BUNDLES).max(1),
            attackers: (0..8)
                .map(|i| Pubkey::derive(&format!("live:attacker:{i}")))
                .collect(),
            pools: (0..32)
                .map(|i| Pubkey::derive(&format!("live:pool:{i}")))
                .collect(),
        }
    }

    fn signature(&mut self) -> Signature {
        let mut bytes = [0u8; 64];
        self.rng.fill(&mut bytes);
        Signature(bytes)
    }

    fn swap(
        &self,
        tx_id: Signature,
        signer: Pubkey,
        mint: Pubkey,
        sol: i64,
        tokens: i128,
        tip: u64,
    ) -> TransactionMeta {
        let fee = 5_000i64;
        let mut sol_deltas = vec![SolDelta {
            account: signer,
            delta: LamportDelta(sol - fee - tip as i64),
        }];
        if tip > 0 {
            sol_deltas.push(SolDelta {
                account: tip_account(0),
                delta: LamportDelta(tip as i64),
            });
        }
        TransactionMeta {
            tx_id,
            signer,
            fee: Lamports(fee as u64),
            priority_fee: Lamports::ZERO,
            success: true,
            error: None,
            sol_deltas,
            token_deltas: vec![TokenDelta {
                owner: signer,
                mint,
                delta: tokens,
            }],
        }
    }

    /// The next `n` bundles, with the ids of the planted sandwiches.
    fn batch(&mut self, n: usize) -> (Vec<CollectedBundle>, Vec<CollectedDetail>, Vec<BundleId>) {
        let (mut bundles, mut details, mut planted) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n {
            let slot = Slot(self.next_slot);
            self.next_slot += self.slot_step;
            if self.rng.gen_bool(LIVE_PLANT_DENSITY) {
                let attacker = self.attackers[self.rng.gen_range(0..self.attackers.len())];
                let mint = self.pools[self.rng.gen_range(0..self.pools.len())];
                let mut victim = [0u8; 32];
                self.rng.fill(&mut victim);
                let victim = Pubkey(victim);
                let tx_ids: Vec<Signature> = (0..3).map(|_| self.signature()).collect();
                let tip = self.rng.gen_range(100_000u64..20_000_000);
                let sol_in = self.rng.gen_range(1_000_000_000i64..100_000_000_000);
                let tokens = self.rng.gen_range(1_000i64..1_000_000) as i128;
                let victim_sol = sol_in + self.rng.gen_range(sol_in / 10..sol_in / 2);
                let profit = self.rng.gen_range(sol_in / 100..sol_in / 10);
                let bundle_id = bundle_id_of(&tx_ids);
                for meta in [
                    self.swap(tx_ids[0], attacker, mint, -sol_in, tokens, 0),
                    self.swap(tx_ids[1], victim, mint, -victim_sol, tokens, 0),
                    self.swap(tx_ids[2], attacker, mint, sol_in + profit, -tokens, tip),
                ] {
                    details.push(CollectedDetail {
                        bundle_id,
                        slot,
                        meta,
                    });
                }
                planted.push(bundle_id);
                bundles.push(CollectedBundle {
                    bundle_id,
                    slot,
                    timestamp_ms: slot.0 * 400,
                    tip: Lamports(tip),
                    tx_ids,
                });
            } else {
                let tx_ids = vec![self.signature()];
                bundles.push(CollectedBundle {
                    bundle_id: bundle_id_of(&tx_ids),
                    slot,
                    timestamp_ms: slot.0 * 400,
                    tip: Lamports(self.rng.gen_range(1_000u64..200_000)),
                    tx_ids,
                });
            }
        }
        (bundles, details, planted)
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    let dir = ctx.dir("live.store");
    let scale = ScaleConfig {
        bundles: LIVE_PREFILL_BUNDLES,
        days: LIVE_DAYS,
        seed: ctx.seed,
        ..Default::default()
    };
    let config = QueryConfig {
        threads: ctx.threads,
        ..Default::default()
    };

    // Set-up: pre-fill, index and open queryd, repeated; the median counts.
    let mut setup = Vec::new();
    let mut ready = None;
    for _ in 0..LIVE_SETUP_REPS {
        if let Some((_, queryd)) = ready.take() {
            Queryd::stop(queryd, &rt);
        }
        let started = Instant::now();
        let (writer, _) = generate_store(&dir, &scale);
        let store = BundleStore::open(&dir).expect("open pre-filled store");
        let index = sandwich_query::build_index(&store, &config).expect("pre-fill index");
        save_index(&dir, &index).expect("save pre-fill index");
        let queryd = Queryd::start(&rt, &dir, ctx.threads);
        setup.push(started.elapsed().as_secs_f64());
        ready = Some((writer, queryd));
    }
    let (mut writer, queryd) = ready.expect("one set-up");
    let setup_s = report.samples("setup_s", &setup).median;
    report.metric("setup_s", setup_s);

    let service = queryd.service().clone();
    let base = service.engine_snapshot().index().clone();
    let start_cursor = match base.refs.last() {
        Some(r) => encode_live_cursor(&base.generation, r.slot, &r.bundle_id),
        None => {
            let (slot, id) = origin_cursor();
            encode_live_cursor(&base.generation, slot, &id)
        }
    };
    let reader_reqs = load::mix(
        &base,
        ctx.seed,
        (LIVE_READ_RATE * ctx.seconds) as usize,
        true,
    );
    let addr = queryd.addr();
    let mut appender = Appender::new(ctx.seed, base.totals.max_slot);
    let segments_at_start = writer.segments().len();

    let planted: Mutex<HashMap<BundleId, Instant>> = Mutex::new(HashMap::new());
    let arrivals: Mutex<Vec<(BundleId, Instant)>> = Mutex::new(Vec::new());
    let reloads: Mutex<Vec<Reload>> = Mutex::new(Vec::new());
    let sealed = AtomicUsize::new(segments_at_start);
    let writer_done = AtomicBool::new(false);
    let cursor_ops = AtomicUsize::new(0);
    let cursor_failed = AtomicUsize::new(0);
    let seal_failed = AtomicUsize::new(0);
    let reload_failed = AtomicUsize::new(0);
    let seal_times: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let tracer = &ctx.tracer;
    let seconds = ctx.seconds;

    let phase = tracer.begin("live.run", ROOT, 0);
    let t0 = Instant::now();
    let drain_deadline = t0 + Duration::from_secs_f64(seconds + DRAIN_SECONDS);
    let reader_sent = std::thread::scope(|scope| {
        // The writer: a fixed append rate, one seal per LIVE_SEAL_BUNDLES.
        scope.spawn(|| {
            let mut k = 0u64;
            loop {
                let due = t0
                    + Duration::from_secs_f64(
                        ((k + 1) * LIVE_SEAL_BUNDLES as u64) as f64 / LIVE_APPEND_RATE,
                    );
                if due > t0 + Duration::from_secs_f64(seconds) {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let (bundles, details, ids) = appender.batch(LIVE_SEAL_BUNDLES);
                let handoff = Instant::now();
                planted
                    .lock()
                    .expect("planted map")
                    .extend(ids.into_iter().map(|id| (id, handoff)));
                let span = tracer.begin("store.seal", phase, k);
                let result = writer.seal_segment(bundles, details, Vec::new());
                tracer.end(span);
                seal_times
                    .lock()
                    .expect("seal times")
                    .push(handoff.elapsed().as_secs_f64());
                match result {
                    Ok(_) => {
                        sealed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        eprintln!("perfbench: seal failed: {e}");
                        seal_failed.fetch_add(1, Ordering::SeqCst);
                    }
                }
                k += 1;
            }
            writer_done.store(true, Ordering::SeqCst);
        });

        // The watcher: reload as soon as a seal lands.
        scope.spawn(|| {
            let mut served = segments_at_start;
            let mut id = 0u64;
            loop {
                if Instant::now() > drain_deadline {
                    break;
                }
                let target = sealed.load(Ordering::SeqCst);
                if target > served {
                    let started = Instant::now();
                    let span = tracer.begin("query.reload", phase, id);
                    let reloaded = service.reload();
                    tracer.end(span);
                    let secs = started.elapsed().as_secs_f64();
                    match reloaded {
                        Ok(true) => {
                            let engine = service.engine_snapshot();
                            served = engine.index().segment_files.len();
                            reloads.lock().expect("reloads").push(Reload {
                                seconds: secs,
                                segments: served,
                                generation: engine.generation().to_string(),
                            });
                            id += 1;
                        }
                        Ok(false) => std::thread::sleep(Duration::from_millis(1)),
                        Err(e) => {
                            eprintln!("perfbench: reload failed: {e}");
                            reload_failed.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                } else if writer_done.load(Ordering::SeqCst) {
                    break;
                } else {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });

        // The cursor client: long-poll the tail, stamp each row's arrival.
        scope.spawn(|| {
            let mut cursor = start_cursor.clone();
            loop {
                let all_in = writer_done.load(Ordering::SeqCst)
                    && arrivals.lock().expect("arrivals").len()
                        >= planted.lock().expect("planted map").len();
                if all_in || Instant::now() > drain_deadline {
                    break;
                }
                let path = format!("/api/live?cursor={cursor}&limit=500&wait_ms={LIVE_WAIT_MS}");
                cursor_ops.fetch_add(1, Ordering::SeqCst);
                let page = load::get(addr, &path)
                    .ok()
                    .filter(|(status, _)| *status == 200)
                    .and_then(|(_, body)| serde_json::from_slice::<LivePage>(&body).ok());
                let Some(page) = page else {
                    cursor_failed.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                };
                let now = Instant::now();
                arrivals
                    .lock()
                    .expect("arrivals")
                    .extend(page.rows.iter().map(|r| (r.bundle_id, now)));
                cursor = page.cursor;
            }
        });

        // The background reader: hot keys at a fixed rate, one connection.
        let reader = scope.spawn(|| {
            let span = tracer.begin("live.reader", phase, 0);
            let sent = open_loop(
                addr,
                &reader_reqs,
                LIVE_READ_RATE,
                1,
                tracer,
                span,
                "live.read",
            );
            tracer.end(span);
            sent
        });
        reader.join().expect("reader thread")
    });
    tracer.end(phase);

    // Freshness, exactly-once delivery, and the fold invariants.
    let planted = planted.into_inner().expect("planted map");
    let arrivals = arrivals.into_inner().expect("arrivals");
    let reloads = reloads.into_inner().expect("reloads");
    let mut seen = HashSet::new();
    let duplicates = arrivals.iter().filter(|(id, _)| !seen.insert(*id)).count();
    let unplanted = arrivals
        .iter()
        .filter(|(id, _)| !planted.contains_key(id))
        .count();
    report.check(
        "live: every planted sandwich reached the tail",
        seen.len() == planted.len() && unplanted == 0,
    );
    report.check("live: no row delivered twice", duplicates == 0);
    report.check(
        "live: at least 100 sandwiches planted",
        planted.len() >= 100,
    );
    let freshness: Vec<f64> = arrivals
        .iter()
        .filter_map(|(id, at)| {
            planted
                .get(id)
                .map(|h| at.duration_since(*h).as_secs_f64() * 1e3)
        })
        .collect();
    let fresh = sorted(&freshness);
    report.metric("latency_p50_ms", quantile(&fresh, 0.5));
    report.metric("latency.p90_ms", quantile(&fresh, 0.9));
    report.samples("freshness_ms", &freshness);

    let snapshot = service.registry().snapshot();
    let full_rebuilds = snapshot
        .counter(names::QUERY_INDEX_FULL_REBUILDS)
        .unwrap_or(0);
    report.check(
        "live: no fold fell back to a full rebuild",
        full_rebuilds == 0,
    );
    report.metric("query.full_rebuilds", full_rebuilds as f64);

    let store = BundleStore::open(&dir).expect("open final store");
    let appended = (store.segments().len() - segments_at_start) * LIVE_SEAL_BUNDLES;
    let reload_times: Vec<f64> = reloads.iter().map(|r| r.seconds).collect();
    report.metric(
        "bundles_per_s",
        appended as f64 / reload_times.iter().sum::<f64>().max(1e-9),
    );
    report.samples("reload_s", &reload_times);
    let served = service.engine_snapshot();
    let fresh_index = index_build(ctx, &store, &mut report);
    report.check(
        "live: final folded index equals a fresh build_index",
        *served.index() == fresh_index,
    );

    let reader_failed = load::failures(&reader_sent, &reader_reqs);
    report.ops(
        reader_sent.len() as u64
            + cursor_ops.load(Ordering::SeqCst) as u64
            + seal_times.lock().expect("seal times").len() as u64
            + reloads.len() as u64
            + reload_failed.load(Ordering::SeqCst) as u64,
        reader_failed
            + cursor_failed.load(Ordering::SeqCst) as u64
            + seal_failed.load(Ordering::SeqCst) as u64
            + reload_failed.load(Ordering::SeqCst) as u64,
    );
    let reads = sorted(&latencies_ms(&reader_sent, &reader_reqs, None));
    report.metric("live.read_p50_ms", quantile(&reads, 0.5));
    report.metric("live.read_p99_ms", quantile(&reads, 0.99));
    let late: Vec<f64> = reader_sent.iter().map(|s| s.late_s * 1e3).collect();
    report.metric("loadgen.late_p99_ms", quantile(&sorted(&late), 0.99));

    // Per-layer figures.
    report.metric("query.reload_s", median(&reload_times));
    let folds = reloads.len().max(1);
    report.metric(
        "query.segments_per_fold",
        (store.segments().len() - segments_at_start) as f64 / folds as f64,
    );
    let seals = seal_times.into_inner().expect("seal times");
    report.metric("store.seal_s", seals.iter().sum());
    report.metric("store.seals", seals.len() as f64);
    let appended_bytes: u64 = store.segments()[segments_at_start..]
        .iter()
        .map(|m| m.bytes)
        .sum();
    report.metric(
        "store.bytes_per_bundle",
        appended_bytes as f64 / appended.max(1) as f64,
    );
    report.metric(
        "query.live_wait_s",
        snapshot
            .histogram(names::QUERY_LIVE_WAIT_SECONDS)
            .map_or(0.0, |h| h.sum),
    );
    report.metric(
        "query.live_rows",
        snapshot.counter(names::QUERY_LIVE_ROWS).unwrap_or(0) as f64,
    );
    cache_metrics(&snapshot, &mut report);
    if let Some(spec) = fresh_index.validator_spec {
        let started = Instant::now();
        let schedule = LeaderSchedule::new(&spec);
        report.metric("attrib.schedule_s", started.elapsed().as_secs_f64());
        let started = Instant::now();
        std::hint::black_box(schedule.slots_led_through(fresh_index.totals.max_slot));
        report.metric(
            "attrib.slots_led_through_s",
            started.elapsed().as_secs_f64(),
        );
    }
    if ctx.tracer.on() {
        refold(
            ctx,
            &store,
            &config,
            base,
            &reloads,
            segments_at_start,
            served.index(),
            &mut report,
        );
    }
    queryd.stop(&rt);
    drop(writer);
    report.note(
        "fixed",
        format!(
            "{{\"prefill_bundles\":{LIVE_PREFILL_BUNDLES},\"days\":{LIVE_DAYS},\"append_rate_per_s\":{LIVE_APPEND_RATE},\"seal_bundles\":{LIVE_SEAL_BUNDLES},\"plant_density\":{LIVE_PLANT_DENSITY},\"read_rate_per_s\":{LIVE_READ_RATE},\"wait_ms\":{LIVE_WAIT_MS},\"planted\":{},\"seals\":{},\"reloads\":{}}}",
            planted.len(),
            seals.len(),
            reloads.len()
        ),
    );
    report
}

/// Re-run each recorded fold from outside, stage by stage, after the timed
/// phase: `build_index_subset` over the delta, `fold_indexes` with the
/// previous index (cloned, as the reload clones the live one), and
/// `save_index`. The result must equal the index the service served.
#[allow(clippy::too_many_arguments)]
fn refold(
    ctx: &Ctx,
    store: &BundleStore,
    config: &QueryConfig,
    mut base: QueryIndex,
    reloads: &[Reload],
    segments_at_start: usize,
    served: &QueryIndex,
    report: &mut Report,
) {
    let scratch = ctx.dir("refold");
    std::fs::create_dir_all(&scratch).expect("create refold dir");
    let (mut subset_s, mut merge_s, mut save_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut from = segments_at_start;
    let tracer = &ctx.tracer;
    let mut untraced_first = None;
    for (i, reload) in reloads.iter().enumerate() {
        let delta: Vec<usize> = (from..reload.segments).collect();
        from = reload.segments;
        if i == 0 {
            // The first fold once with spans off: the tracing overhead.
            let started = Instant::now();
            let part = build_index_subset(store, config, &delta, &[]).expect("refold subset");
            let folded = fold_indexes(&reload.generation, vec![base.clone(), part], config);
            save_index(&scratch, &folded).expect("refold save");
            untraced_first = Some(started.elapsed().as_secs_f64());
        }
        let id = i as u64;
        let started = Instant::now();
        let part = tracer
            .span("query.fold_subset", ROOT, id, || {
                build_index_subset(store, config, &delta, &[])
            })
            .expect("refold subset");
        let t1 = Instant::now();
        let folded = tracer.span("query.fold_merge", ROOT, id, || {
            fold_indexes(&reload.generation, vec![base.clone(), part], config)
        });
        let t2 = Instant::now();
        tracer
            .span("query.fold_save", ROOT, id, || {
                save_index(&scratch, &folded)
            })
            .expect("refold save");
        let t3 = Instant::now();
        subset_s.push((t1 - started).as_secs_f64());
        merge_s.push((t2 - t1).as_secs_f64());
        save_s.push((t3 - t2).as_secs_f64());
        if i == 0 {
            let traced = (t3 - started).as_secs_f64();
            report.metric(
                "trace.overhead_pct",
                (traced / untraced_first.unwrap_or(traced) - 1.0) * 100.0,
            );
        }
        base = folded;
    }
    report.check(
        "live: refolded index equals the served index",
        reloads.is_empty() || base == *served,
    );
    let (a, b, c) = (median(&subset_s), median(&merge_s), median(&save_s));
    report.metric("query.fold_subset_s", a);
    report.metric("query.fold_merge_s", b);
    report.metric("query.fold_save_s", c);
    let reload = median(&reloads.iter().map(|r| r.seconds).collect::<Vec<_>>());
    report.metric("trace.explained_ratio", (a + b + c) / reload.max(1e-9));
}
