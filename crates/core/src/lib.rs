//! `hetrt-core` — the paper's contribution: a memory heterogeneity-aware
//! prefetch/evict runtime.
//!
//! This crate layers the §IV design of Chandrasekar, Ni & Kale (IPDPSW
//! 2017) on top of the two substrates:
//!
//! * [`converse`] delivers messages to over-decomposed chares and lets a
//!   [`SchedulerHook`](converse::SchedulerHook) intercept `[prefetch]`
//!   entry methods before execution;
//! * [`hetmem`] provides the capacity-budgeted, bandwidth-regulated
//!   memory nodes, the tracked data blocks (`CkIOHandle` equivalents)
//!   and `memcpy`-based migration.
//!
//! An application touches the runtime through one door: it builds an
//! [`OocRuntime`] from an [`OocConfig`] and a [`StrategyKind`], declares
//! its data as [`IoHandle`]s and its `[prefetch]` entry methods'
//! dependences, and reads [`OocStats`] back. Wait queues, IO threads,
//! fetch and eviction are the runtime's own business and stay private
//! to this crate (§IV-B):
//!
//! * [`IoHandle`] — a typed handle to a tracked block (the paper's
//!   `CkIOHandle<double>`), created on a node chosen by a
//!   [`Placement`] policy;
//! * each intercepted entry-method invocation is bundled with its
//!   declared dependences (§IV-B's "encapsulated as an OOCTask");
//! * a shared fetch/evict engine brings dependences into HBM under the
//!   capacity budget and evicts zero-refcount blocks back to DDR4, with
//!   optional LRU-on-demand eviction ([`EvictionPolicy`], ablation);
//! * per-PE (or single shared — [`WaitQueueTopology`], ablation) FIFO
//!   wait queues hold tasks whose data is not yet resident;
//! * the three scheduling strategies of §IV-B, all installable as
//!   scheduler hooks via [`OocRuntime`]:
//!   * **Multiple queues, single IO thread** — [`StrategyKind::IoThreads`]
//!     with one thread,
//!   * **Multiple queues, no IO thread** (synchronous parallel
//!     fetch/evict on the workers) — [`StrategyKind::SyncFetch`],
//!   * **Multiple queues, multiple IO threads** (asynchronous, one per
//!     PE) — [`StrategyKind::IoThreads`] with `pes` threads; the
//!     "IO thread per subgroup of wait queues" the paper plans is any
//!     intermediate thread count;
//! * the baselines of §IV-B: *Naive* (fill HBM, overflow to DDR4, never
//!   move — [`Placement::PreferHbm`] with no hook) and *DDR4-only*
//!   ([`Placement::DdrOnly`]).

mod config;
mod engine;
mod handle;
mod ooc;
mod placement;
mod stats;
mod strategy;
mod task;
mod waitqueue;

pub use config::{EvictionPolicy, OocConfig, OversizePolicy, StrategyKind, WaitQueueTopology};
pub use handle::IoHandle;
pub use ooc::OocRuntime;
pub use placement::Placement;
pub use stats::OocStats;
pub use strategy::{CacheStats, RejectedTask};
