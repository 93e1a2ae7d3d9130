//! The stack's Ebb face: how code running on a machine finds its
//! [`NetIf`].

use std::rc::{Rc, Weak};
use std::sync::Arc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{not_installed, EbbId, EbbManager, EbbRef, MulticoreEbb, NoRoot, SystemEbb};
use ebbrt_core::runtime;

use crate::netif::NetIf;

/// The per-core representative of the machine's **network manager
/// Ebb** ([`SystemEbb::NetStats`]): every core's rep shares the
/// machine's [`NetIf`], so application code resolves the stack — and
/// its [`NetStats`](crate::stats::NetStats) — through one copyable [`EbbRef`] instead of
/// threading `Rc<NetIf>` handles into every spawn closure.
/// [`NetIf::attach`] installs a rep on every core.
///
/// Reps hold the stack weakly: the `Rc` returned by `attach` stays the
/// owner (dropping it detaches the stack), and the translation table
/// cannot keep a dead interface alive through the machine⇄stack cycle.
pub struct NetIfEbb {
    pub(crate) netif: Weak<NetIf>,
}

impl NetIfEbb {
    /// The machine's network stack.
    ///
    /// # Panics
    ///
    /// Panics if the stack has been dropped (the `attach` caller let
    /// its owning `Rc` go).
    pub fn netif(&self) -> Rc<NetIf> {
        self.netif.upgrade().expect("NetIf dropped under its Ebb")
    }
}

impl MulticoreEbb for NetIfEbb {
    type Root = NoRoot;

    fn create_rep(root: &Arc<NoRoot>, _: CoreId) -> Self {
        match **root {}
    }

    fn handle_fault(_: &EbbManager, id: EbbId, core: CoreId) -> Self {
        not_installed(id, core, "NetIf::attach")
    }
}

/// The well-known [`EbbRef`] of the current machine's network manager.
pub fn netif_ref() -> EbbRef<NetIfEbb> {
    EbbRef::well_known(SystemEbb::NetStats)
}

/// Resolves the current machine's [`NetIf`] through the translation
/// table — the way application wiring code (running in an event on any
/// core of the machine) reaches the stack.
///
/// # Panics
///
/// Panics if no [`NetIf`] is attached to the current machine, or if
/// the calling thread has not entered a runtime.
pub fn local_netif() -> Rc<NetIf> {
    netif_ref().with(|rep| rep.netif())
}

/// As [`local_netif`], returning `None` when the calling thread has
/// not entered a runtime or the current machine has no attached
/// stack — the form for code that degrades gracefully without a
/// network (direct-drive tests, harness threads).
pub fn try_local_netif() -> Option<Rc<NetIf>> {
    if !runtime::is_entered() {
        return None;
    }
    runtime::with_current_on(|rt, core| {
        if rt.ebbs().has_rep(SystemEbb::NetStats.id(), core) {
            rt.ebbs()
                .with_rep_on::<NetIfEbb, _>(core, SystemEbb::NetStats.id(), |rep| {
                    rep.netif.upgrade()
                })
        } else {
            None
        }
    })
}
