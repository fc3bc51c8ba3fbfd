//! Typed block handles — the paper's `CkIOHandle<T>`.
//!
//! ```text
//! class Compute : public CBase_Compute {
//!   public:
//!     CkIOHandle<double> A;
//!     CkIOHandle<double> B;
//! };
//! ```
//!
//! An [`IoHandle<T>`] owns the identity of one tracked block holding
//! `len` elements of `T`. It is `Copy`-cheap to clone, declares itself
//! as a dependence ([`IoHandle::dep`]), and gives checked typed access
//! to the payload wherever it currently resides.

use crate::placement::Placement;
use converse::Dep;
use hetmem::{AccessMode, BlockId, MemError, Memory, NodeId, Pod};
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed handle to a runtime-tracked data block.
pub struct IoHandle<T: Pod> {
    mem: Arc<Memory>,
    block: BlockId,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> Clone for IoHandle<T> {
    fn clone(&self) -> Self {
        Self {
            mem: Arc::clone(&self.mem),
            block: self.block,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: Pod> IoHandle<T> {
    /// Allocate a zeroed block of `len` elements using `placement` and
    /// register it with the runtime.
    pub fn new(
        mem: &Arc<Memory>,
        len: usize,
        placement: Placement,
        label: impl Into<String>,
    ) -> Result<Self, MemError> {
        let bytes = len * std::mem::size_of::<T>();
        let buf = placement.alloc(mem, bytes)?;
        let block = mem.registry().register(buf, label);
        Ok(Self {
            mem: Arc::clone(mem),
            block,
            len,
            _marker: PhantomData,
        })
    }

    /// Wrap an already-registered block — how drivers reattach their
    /// handles to blocks that a checkpoint restore re-registered. Fails
    /// with [`MemError::CheckpointFailed`] if the block does not exist
    /// or its byte size disagrees with `len * size_of::<T>()`.
    pub fn attach(mem: &Arc<Memory>, block: BlockId, len: usize) -> Result<Self, MemError> {
        let expected = len * std::mem::size_of::<T>();
        if block.index() >= mem.registry().len() {
            return Err(MemError::CheckpointFailed {
                detail: format!("cannot attach handle: block {block:?} is not registered"),
            });
        }
        let actual = mem.registry().size_of(block);
        if actual != expected {
            return Err(MemError::CheckpointFailed {
                detail: format!(
                    "cannot attach handle to block {block:?}: registered size is \
                     {actual} B but the handle expects {expected} B"
                ),
            });
        }
        Ok(Self {
            mem: Arc::clone(mem),
            block,
            len,
            _marker: PhantomData,
        })
    }

    /// The underlying tracked block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Number of `T` elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the block holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }

    /// The node the block currently lives on (`None` mid-migration).
    pub fn node(&self) -> Option<NodeId> {
        self.mem.registry().node_of(self.block)
    }

    /// Declare this handle as a dependence with `mode` — the `.ci`
    /// annotation `[readwrite: A]` etc.
    pub fn dep(&self, mode: AccessMode) -> Dep {
        Dep {
            block: self.block,
            mode,
        }
    }

    /// Checked access for a kernel. The returned guard pins residency
    /// and enforces reader/writer discipline; use
    /// [`hetmem::AccessGuard::as_slice`] / `as_mut_slice` for the data.
    pub fn access(&self, mode: AccessMode) -> hetmem::block::AccessGuard {
        self.mem.registry().access(self.block, mode)
    }

    /// Convenience: run `f` over the elements read-only, charging
    /// nothing (charging is the kernel's job — see `kernels`).
    pub fn read<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        let guard = self.access(AccessMode::ReadOnly);
        f(guard.as_slice::<T>())
    }

    /// Convenience: run `f` over the elements with exclusive access.
    pub fn write<R>(&self, f: impl FnOnce(&mut [T]) -> R) -> R {
        let mut guard = self.access(AccessMode::ReadWrite);
        f(guard.as_mut_slice::<T>())
    }
}

impl<T: Pod> std::fmt::Debug for IoHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoHandle")
            .field("block", &self.block)
            .field("len", &self.len)
            .field("node", &self.node())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem::{Topology, DDR4, HBM};

    fn mem() -> Arc<Memory> {
        Memory::new(Topology::knl_flat_scaled())
    }

    #[test]
    fn handle_allocates_and_types() {
        let m = mem();
        let h: IoHandle<f64> = IoHandle::new(&m, 256, Placement::DdrOnly, "A").unwrap();
        assert_eq!(h.len(), 256);
        assert_eq!(h.size_bytes(), 2048);
        assert_eq!(h.node(), Some(DDR4));
        h.write(|xs| {
            xs[0] = 1.5;
            xs[255] = -2.0;
        });
        assert_eq!(h.read(|xs| (xs[0], xs[255])), (1.5, -2.0));
    }

    #[test]
    fn dep_carries_block_and_mode() {
        let m = mem();
        let h: IoHandle<f32> = IoHandle::new(&m, 8, Placement::DdrOnly, "B").unwrap();
        let d = h.dep(AccessMode::WriteOnly);
        assert_eq!(d.block, h.block());
        assert_eq!(d.mode, AccessMode::WriteOnly);
    }

    #[test]
    fn clone_shares_block() {
        let m = mem();
        let h: IoHandle<u32> = IoHandle::new(&m, 4, Placement::HbmOnly, "C").unwrap();
        let h2 = h.clone();
        h.write(|xs| xs[3] = 99);
        assert_eq!(h2.read(|xs| xs[3]), 99);
        assert_eq!(h2.node(), Some(HBM));
    }
}
