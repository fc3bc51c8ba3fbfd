//! `vtsim` — a virtual-time discrete-event simulator of the
//! heterogeneity-aware runtime's scheduling policies.
//!
//! The threaded runtime (`hetrt-core`) regenerates the paper's figures
//! at MB scale in wall-clock seconds. This crate complements it by
//! replaying the *same policies* — naive baseline, synchronous worker
//! fetch, single/multiple IO threads, per-PE wait queues, refcounted
//! eviction — over the paper's **literal** configuration: 16 GB MCDRAM
//! at 420 GB/s, 96 GB DDR4 at 90 GB/s, 64 PEs, 32 GB stencil grids and
//! 24–54 GB matrices, all in virtual time, deterministically. A whole
//! figure sweep (the 12 simulations of `fig8_full_scale` or the 20 of
//! `fig9_full_scale`) takes about 0.2 s of host time in a release
//! build on a 2-vCPU Xeon.
//!
//! Model summary (simplifications documented in DESIGN.md):
//!
//! * Each memory node is a FIFO **reservation pipe** ([`pipe`]): a
//!   charge of `b` bytes issued at time `t` occupies the pipe from
//!   `max(t, cursor)` for `b / rate` — identical to the threaded
//!   runtime's `BandwidthRegulator`, minus slicing (no preemption
//!   points are needed when time is virtual).
//! * Tasks form a DAG ([`workload`]): stencil tasks depend on their own
//!   and their neighbours' previous iteration (the halo exchange);
//!   matmul tasks chain per chare and share read-only A/B blocks.
//! * PEs and IO threads are sequential servers ([`sim`]); fetches,
//!   compute charges and evictions reserve pipe time exactly where the
//!   threaded implementation issues them (fetch on the IO thread or
//!   worker, compute and eviction on the worker).
//! * Events are handled in `(time, push order)`. Pushing or popping an
//!   event for the current time costs O(1), and each task completion
//!   pushes one wake-up event whatever the PE or IO-thread count.
//! * A fetch admits a task only when *all* its missing dependences fit
//!   in HBM at once (the threaded code fetches greedily and backs out;
//!   the all-or-nothing rule is equivalent up to transient occupancy).

pub mod model;
pub mod pipe;
mod queue;
pub mod report;
pub mod sim;
pub mod workload;

pub use model::{NodeModel, SimBlock, SimConfig, SimStrategy, SimTask, TaskCharge, Workload};
pub use pipe::ReservationPipe;
pub use report::SimReport;
pub use sim::Simulator;
pub use workload::{matmul_workload, stencil_workload, MatmulSpec, StencilSpec};
