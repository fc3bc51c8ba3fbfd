//! What the stencil and matmul drivers share: building the runtime,
//! restoring a checkpoint into it, and cutting a run into segments
//! whose ends are the checkpoint stops.
//!
//! A segment sends one message per chare and waits until every chare
//! has counted the segment's latch down and the runtime is quiescent.
//! Between segments nothing is in flight, so the block contents plus
//! the iteration counter are the whole state of the run: that is what
//! a checkpoint saves and what a resumed run starts from.

use converse::CompletionLatch;
use hetmem::{FaultInjector, MemError, Memory, Topology};
use hetrt_core::{OocConfig, OocRuntime, StrategyKind};
use std::path::Path;
use std::sync::Arc;

/// How long a driver waits for one segment's tasks, ms.
const SEGMENT_TIMEOUT_MS: u64 = 600_000;

/// A fresh runtime over `topology`, with the optional fault injector.
pub(crate) fn build_runtime(
    topology: &Topology,
    faults: Option<&Arc<dyn FaultInjector>>,
    pes: usize,
    strategy: StrategyKind,
    config: OocConfig,
) -> OocRuntime {
    let mem = match faults {
        Some(f) => Memory::with_faults(topology.clone(), Arc::clone(f)),
        None => Memory::new(topology.clone()),
    };
    OocRuntime::new(mem, pes, strategy, config)
}

/// Restore `path` into the fresh runtime `ooc`, refusing a checkpoint
/// that holds other than `blocks` blocks or was taken after iteration
/// `last`: it belongs to a different configuration.
pub(crate) fn restore(
    ooc: &OocRuntime,
    path: &Path,
    blocks: usize,
    last: usize,
) -> Result<(), MemError> {
    let saved = ooc.restore(path)?;
    let found = ooc.memory().registry().len();
    if found != blocks {
        return Err(MemError::CheckpointFailed {
            detail: format!("checkpoint holds {found} blocks, the configuration has {blocks}"),
        });
    }
    if saved > last as u64 {
        return Err(MemError::CheckpointFailed {
            detail: format!(
                "checkpoint was taken at iteration {saved}, after the configuration's last \
                 iteration {last}"
            ),
        });
    }
    Ok(())
}

/// One segment: `send(chare, latch)` for each of `chares` chares, wait
/// for the latch and for quiescence, then record `until` as the
/// runtime's iteration. Returns the ns from just before the first send
/// until the latch fired.
pub(crate) fn segment(
    ooc: &OocRuntime,
    chares: usize,
    until: usize,
    mut send: impl FnMut(usize, Arc<CompletionLatch>),
) -> u64 {
    let latch = Arc::new(CompletionLatch::new(chares));
    let clock = ooc.memory().clock();
    let t0 = clock.now();
    for i in 0..chares {
        send(i, Arc::clone(&latch));
    }
    assert!(
        latch.wait_timeout_ms(SEGMENT_TIMEOUT_MS),
        "segment ending at iteration {until} did not complete"
    );
    let ns = clock.now().saturating_sub(t0);
    assert!(ooc.wait_quiescence_ms(60_000), "runtime not quiescent");
    ooc.set_iteration(until as u64);
    ns
}

/// Run `segment(until)` from the runtime's iteration to `last`.
/// Without a checkpoint path, or with
/// [`OocConfig::checkpoint_every`] = 0, that is a single segment. With
/// both, each segment ends at the next multiple of `checkpoint_every`
/// (the last one at `last`) and writes a checkpoint there when the
/// periodic policy fires. Returns the segments' summed ns.
pub(crate) fn run(
    ooc: &OocRuntime,
    last: usize,
    checkpoint: Option<&Path>,
    mut segment: impl FnMut(usize) -> u64,
) -> Result<u64, MemError> {
    let every = checkpoint.map_or(0, |_| ooc.config().checkpoint_every);
    let last = last as u64;
    let mut ns = 0;
    while ooc.iteration() < last {
        let until = (ooc.iteration() + 1)
            .checked_next_multiple_of(every)
            .map_or(last, |stop| stop.min(last));
        ns += segment(until as usize);
        if let Some(path) = checkpoint {
            if ooc.should_checkpoint(until) {
                ooc.checkpoint(path)?;
            }
        }
    }
    Ok(ns)
}

/// A per-process checkpoint path in the temp directory, for tests.
#[cfg(test)]
pub(crate) fn temp_checkpoint(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("kernels-checkpoint-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.ckpt", std::process::id()))
}
