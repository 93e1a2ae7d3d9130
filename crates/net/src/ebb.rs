//! The stack's Ebb face: how code running on a machine finds its
//! [`NetIf`].

use std::rc::Rc;

use ebbrt_core::ebb::{EbbRef, Installed, InstalledRep, SystemEbb};
use ebbrt_core::runtime;

use crate::netif::NetIf;

/// The per-core representative of the machine's **network manager
/// Ebb** ([`SystemEbb::NetStats`]): every core's rep shares the
/// machine's [`NetIf`] — and its [`NetStats`](crate::stats::NetStats).
/// [`NetIf::attach`] installs a rep on every core.
pub type NetIfEbb = InstalledRep<NetIf>;

impl Installed for NetIf {
    const INSTALLER: &'static str = "NetIf::attach";
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
    netif_ref().with(NetIfEbb::get)
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
                .with_rep_on(core, SystemEbb::NetStats.id(), NetIfEbb::upgrade)
        } else {
            None
        }
    })
}
