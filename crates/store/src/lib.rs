//! `sandwich-store` — the segmented binary bundle store and the parallel
//! scan executor underneath the analysis pipeline.
//!
//! The paper's measurement collects ~14.8M bundles/day for four months and
//! then runs the full analysis over the corpus. That only works when the
//! scan layer is a storage-aware batch engine rather than "one `Vec`, one
//! thread". This crate provides the storage half and the execution half:
//!
//! * [`records`] — the collected-record types (bundles, details, polls);
//! * [`varint`] / [`codec`] — a compact binary encoding: delta+varint
//!   slots and timestamps, interned pubkeys, zigzagged balance deltas;
//! * [`segment`] — sealed segment files with a checksummed footer carrying
//!   the slot range and record counts;
//! * [`manifest`] — the JSON manifest listing every sealed segment, the
//!   handle checkpoints reference instead of re-serializing data;
//! * [`store`] — [`StoreWriter`] (append/seal) and [`BundleStore`] (read);
//! * [`scan`] — [`parallel_map`], the work-stealing executor whose
//!   unit-ordered results make parallel reductions deterministic;
//! * [`crash`] — the durable-write primitive (temp file + fsync + atomic
//!   rename + directory fsync) and the deterministic [`CrashPlan`]
//!   injection harness over its enumerated steps;
//! * [`doctor`] — offline fsck: verify every checksum, repair what is
//!   provably recoverable, quarantine the rest with reason codes;
//! * [`rebalance`](mod@rebalance) — compaction: merge runs of small segments, split
//!   oversized ones, and swap the manifest atomically, preserving the
//!   record set exactly (safe under a live reader).
//!
//! The crate is std-only (plus the workspace serde shim for the manifest);
//! analysis semantics live in `sandwich-core`, which maps its partial
//! reports over segments through [`parallel_map`].

#![warn(missing_docs)]

pub mod codec;
pub mod column;
pub mod crash;
pub mod doctor;
pub mod manifest;
pub mod mmap;
pub mod rebalance;
pub mod records;
pub mod scan;
pub mod segment;
pub mod store;
pub mod varint;
pub mod view;

pub use codec::{CorruptSegment, SegmentData};
pub use column::{Columns, LinkedColumns, META_C1, META_C2, META_LINKED, META_TXC_MASK};
pub use crash::{is_injected_crash, CrashPlan};
pub use doctor::{DoctorReport, SegmentCheckReport, SegmentHealth};
pub use manifest::{
    Manifest, ManifestDelta, QuarantinedSegment, SealWatcher, SegmentMeta, MANIFEST_FILE,
};
pub use mmap::Mapped;
pub use rebalance::{rebalance, RebalanceConfig, RebalanceReport};
pub use records::{CollectedBundle, CollectedDetail, PollRecord};
pub use sandwich_attrib::ValidatorSpec;
pub use scan::{parallel_map, WorkerStats};
pub use segment::{fnv1a64, SegmentFooter, FORMAT_VERSION, SEGMENT_MAGIC, SEGMENT_MAGIC_V1};
pub use store::{BundleStore, StoreWriter};
pub use view::{SegmentView, ViewBundle};
