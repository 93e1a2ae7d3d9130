//! The empty-method target and the hosted-style dispatcher Table 1
//! measures — shared by the `ebb_dispatch` gate and `repro_table1`.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{EbbId, MulticoreEbb};

/// The empty-method target object.
#[derive(Default)]
pub struct Obj {
    calls: Cell<u64>,
}

impl Obj {
    #[inline(always)]
    pub fn call_inline(&self) {
        self.calls.set(self.calls.get().wrapping_add(1));
    }

    #[inline(never)]
    pub fn call_no_inline(&self) {
        self.calls.set(self.calls.get().wrapping_add(1));
    }
}

pub trait Callable {
    fn call_virtual(&self);
}

impl Callable for Obj {
    fn call_virtual(&self) {
        self.calls.set(self.calls.get().wrapping_add(1));
    }
}

impl MulticoreEbb for Obj {
    type Root = ();
    fn create_rep(_: &Arc<()>, _: CoreId) -> Self {
        Obj::default()
    }
}

/// The hosted-environment dispatch mechanism the paper measures at
/// ~19× native Ebb cost: a hash-map lookup plus a dynamic downcast per
/// call (Linux userspace lacks per-core virtual memory regions). The
/// system no longer ships it — native translation-array dispatch
/// serves every environment — but Table 1 needs the row.
#[derive(Default)]
pub struct HashTableDispatch {
    map: HashMap<u32, Rc<dyn Any>>,
}

impl HashTableDispatch {
    pub fn install<T: 'static>(&mut self, id: EbbId, rep: T) {
        self.map.insert(id.0, Rc::new(rep));
    }

    #[inline]
    pub fn with_rep<T: 'static, R>(&self, id: EbbId, f: impl FnOnce(&T) -> R) -> R {
        let any = self.map.get(&id.0).expect("no hosted rep");
        let rep = any.downcast_ref::<T>().expect("hosted rep type mismatch");
        f(rep)
    }
}
