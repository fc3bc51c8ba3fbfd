//! Integration tests for the hetcheck dependence-conformance sanitizer
//! riding on a real `OocRuntime`: deliberately mis-declared tasks must
//! be caught with the right violation kind, and conformant runs must
//! stay silent even under the panicking action.
//!
//! The checkers here use [`ViolationAction::Count`]: a panic would land
//! on a PE worker thread (killing it and timing out the latch) instead
//! of failing the test with a useful message. The `Panic` action itself
//! is unit-tested in the hetcheck crate with `catch_unwind`.

use converse::{Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx};
use hetcheck::{Checker, ViolationAction, ViolationKind};
use hetmem::{AccessMode, Memory, Topology};
use hetrt_core::{IoHandle, OocConfig, OocRuntime, Placement, StrategyKind};
use std::sync::Arc;

const EP: EntryId = EntryId(0);

fn runtime_with_checker(
    pes: usize,
    action: ViolationAction,
) -> (OocRuntime, Arc<Checker>, Arc<Memory>) {
    let mem = Memory::new(Topology::knl_flat_scaled());
    let checker = Arc::new(Checker::new(action));
    let ooc = OocRuntime::try_new_with_checker(
        Arc::clone(&mem),
        pes,
        StrategyKind::SyncFetch,
        OocConfig::default(),
        Some(Arc::clone(&checker)),
    )
    .expect("build runtime");
    (ooc, checker, mem)
}

fn handle(mem: &Arc<Memory>, label: &str) -> IoHandle<f64> {
    IoHandle::new(mem, 64, Placement::DdrOnly, label).expect("alloc handle")
}

/// Declares its block `ReadOnly` but writes it.
struct Escalator {
    data: IoHandle<f64>,
    latch: Arc<CompletionLatch>,
}

impl Chare for Escalator {
    type Msg = ();
    fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
        self.data.write(|xs| xs[0] = 1.0);
        self.latch.count_down();
    }
    fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
        vec![self.data.dep(AccessMode::ReadOnly)]
    }
}

#[test]
fn write_through_readonly_dep_is_caught() {
    let (ooc, checker, mem) = runtime_with_checker(1, ViolationAction::Count);
    let rt = ooc.runtime();
    let data = handle(&mem, "ro");
    let latch = Arc::new(CompletionLatch::new(1));
    let (d2, l2) = (data.clone(), Arc::clone(&latch));
    let array = rt
        .array_builder::<Escalator>()
        .entry(EP, EntryOptions::prefetch())
        .build(1, move |_| Escalator {
            data: d2.clone(),
            latch: Arc::clone(&l2),
        });
    rt.send(array, 0, EP, ());
    assert!(latch.wait_timeout_ms(30_000), "task never completed");
    assert!(rt.wait_quiescence_ms(10_000));

    let violations = checker.violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind(), ViolationKind::ModeEscalation);
    assert!(
        violations[0].to_string().contains("ReadOnly"),
        "{}",
        violations[0]
    );
    assert_eq!(ooc.stats().violations, 1);
    ooc.shutdown();
}

/// Declares block `a` but also touches undeclared block `b`.
struct Wanderer {
    a: IoHandle<f64>,
    b: IoHandle<f64>,
    latch: Arc<CompletionLatch>,
}

impl Chare for Wanderer {
    type Msg = ();
    fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
        let _ = self.a.read(|xs| xs[0]);
        let _ = self.b.read(|xs| xs[0]); // not declared!
        self.latch.count_down();
    }
    fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
        vec![self.a.dep(AccessMode::ReadOnly)]
    }
}

#[test]
fn undeclared_access_is_caught() {
    let (ooc, checker, mem) = runtime_with_checker(1, ViolationAction::Count);
    let rt = ooc.runtime();
    let a = handle(&mem, "a");
    let b = handle(&mem, "b");
    let undeclared = b.block();
    let latch = Arc::new(CompletionLatch::new(1));
    let (a2, b2, l2) = (a.clone(), b.clone(), Arc::clone(&latch));
    let array = rt
        .array_builder::<Wanderer>()
        .entry(EP, EntryOptions::prefetch())
        .build(1, move |_| Wanderer {
            a: a2.clone(),
            b: b2.clone(),
            latch: Arc::clone(&l2),
        });
    rt.send(array, 0, EP, ());
    assert!(latch.wait_timeout_ms(30_000), "task never completed");
    assert!(rt.wait_quiescence_ms(10_000));

    let violations = checker.violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
    match &violations[0] {
        hetcheck::Violation::UndeclaredAccess { block, .. } => assert_eq!(*block, undeclared),
        other => panic!("expected UndeclaredAccess, got {other:?}"),
    }
    ooc.shutdown();
}

/// Declares its block `WriteOnly` but reads it.
struct PrematureReader {
    data: IoHandle<f64>,
    latch: Arc<CompletionLatch>,
}

impl Chare for PrematureReader {
    type Msg = ();
    fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
        let _ = self.data.read(|xs| xs[0]);
        self.latch.count_down();
    }
    fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
        vec![self.data.dep(AccessMode::WriteOnly)]
    }
}

#[test]
fn read_of_writeonly_dep_is_caught() {
    let (ooc, checker, mem) = runtime_with_checker(1, ViolationAction::Count);
    let rt = ooc.runtime();
    let data = handle(&mem, "wo");
    let latch = Arc::new(CompletionLatch::new(1));
    let (d2, l2) = (data.clone(), Arc::clone(&latch));
    let array = rt
        .array_builder::<PrematureReader>()
        .entry(EP, EntryOptions::prefetch())
        .build(1, move |_| PrematureReader {
            data: d2.clone(),
            latch: Arc::clone(&l2),
        });
    rt.send(array, 0, EP, ());
    assert!(latch.wait_timeout_ms(30_000), "task never completed");
    assert!(rt.wait_quiescence_ms(10_000));

    let violations = checker.violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind(), ViolationKind::UninitializedRead);
    ooc.shutdown();
}

/// Conformant: declares exactly what it touches, in sufficient modes.
struct Conformant {
    data: IoHandle<f64>,
    scratch: IoHandle<f64>,
    latch: Arc<CompletionLatch>,
}

impl Chare for Conformant {
    type Msg = ();
    fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
        let s: f64 = self.data.read(|xs| xs.iter().sum());
        self.scratch.write(|xs| xs[0] = s);
        self.latch.count_down();
    }
    fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
        vec![
            self.data.dep(AccessMode::ReadOnly),
            self.scratch.dep(AccessMode::ReadWrite),
        ]
    }
}

#[test]
fn conformant_tasks_are_silent_under_panic_action() {
    // Panic action: any violation would kill a worker and hang the
    // latch, so mere completion plus a zero count proves silence.
    let (ooc, checker, mem) = runtime_with_checker(2, ViolationAction::Panic);
    let rt = ooc.runtime();
    let n = 6;
    let latch = Arc::new(CompletionLatch::new(n));
    let handles: Vec<(IoHandle<f64>, IoHandle<f64>)> = (0..n)
        .map(|i| {
            let d = handle(&mem, format!("d{i}").as_str());
            d.write(|xs| xs.iter_mut().for_each(|x| *x = 1.0));
            (d, handle(&mem, format!("s{i}").as_str()))
        })
        .collect();
    let (hs, l2) = (handles.clone(), Arc::clone(&latch));
    let array = rt
        .array_builder::<Conformant>()
        .entry(EP, EntryOptions::prefetch())
        .build(n, move |i| Conformant {
            data: hs[i].0.clone(),
            scratch: hs[i].1.clone(),
            latch: Arc::clone(&l2),
        });
    for i in 0..n {
        rt.send(array, i, EP, ());
    }
    assert!(latch.wait_timeout_ms(30_000), "tasks never completed");
    assert!(rt.wait_quiescence_ms(10_000));
    for (_, s) in &handles {
        assert_eq!(s.read(|xs| xs[0]), 64.0);
    }
    assert_eq!(checker.violation_count(), 0);
    assert_eq!(ooc.stats().violations, 0);
    ooc.shutdown();
}
