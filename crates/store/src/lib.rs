//! Persistent content-addressed artifact store.
//!
//! The in-process `ArtifactCache` (in `funtal-driver`) keys parse,
//! typecheck, lower, and compile artifacts on their full content. This
//! crate adds the tier below it: a disk-backed store so a *second
//! process* (a `serve` restart, the next CI job) starts warm. Both
//! tiers count hits, misses and rejects with the one [`StageCounters`]
//! type defined here.
//!
//! Three layers:
//!
//! - [`wire`] — a hand-rolled, versioned binary encoding (`Writer` /
//!   `Reader` / the [`Wire`] trait). No serde in the offline vendor
//!   set, so every codec is explicit; decoding is total (never
//!   panics) and every length is bounds-checked before allocation.
//! - [`codec`] — [`Wire`] implementations for the `funtal-syntax`
//!   vocabulary (terms, types, spans). Codecs for crate-private types
//!   (`BcModule`) and downstream artifact structs live in their owning
//!   crates against the same trait.
//! - [`disk`] — [`DiskStore`]: atomic temp-file + rename writes, a
//!   container header that stores the *full key* (so a collision of
//!   the 64-bit FNV-1a digest that names each file can never serve a
//!   wrong artifact), checksums, per-stage hit/miss/reject counters,
//!   and size-capped mtime-LRU eviction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod disk;
mod hash;
pub mod wire;

pub use disk::{
    parse_container, ContainerError, DiskStore, EntryInfo, GcReport, Stage, StageCounters,
    StageStats, StoreStats, FORMAT_VERSION,
};
pub use wire::{decode_from_slice, encode_to_vec, Reader, Wire, WireError, Writer};
