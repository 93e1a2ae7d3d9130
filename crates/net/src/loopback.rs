//! A loopback device pair: two [`Nic`]s joined back to back, so the
//! stack runs on bare [`Runtime`]s with no simulator behind it. What
//! one end transmits is the other end's arrival: it waits in that
//! end's one [`RxQueue`] and raises its line while the interrupt is
//! enabled. The device charges nothing; whoever owns the runtimes
//! drives their event managers.

use std::cell::OnceCell;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use ebbrt_core::event::InterruptLine;
use ebbrt_core::iobuf::{Chain, IoBuf};
use ebbrt_core::runtime::Runtime;

use crate::nic::{Mac, Nic, RxQueue};
use crate::wire;

/// One end of a loopback pair: a single receive queue, on core 0.
pub struct LoopNic {
    rt: Arc<Runtime>,
    mac: Mac,
    rx: RxQueue,
    /// The other end; a frame sent after it is dropped is lost.
    peer: OnceCell<Weak<LoopNic>>,
}

impl LoopNic {
    /// Two ends joined back to back, on `a` and `b` (which may be the
    /// same runtime), with MACs `02:00:00:00:00:01` and `…:02`.
    pub fn pair(a: &Arc<Runtime>, b: &Arc<Runtime>) -> (Rc<LoopNic>, Rc<LoopNic>) {
        let end = |rt: &Arc<Runtime>, last| {
            Rc::new(LoopNic {
                rt: Arc::clone(rt),
                mac: [0x02, 0, 0, 0, 0, last],
                rx: RxQueue::default(),
                peer: OnceCell::new(),
            })
        };
        let (x, y) = (end(a, 1), end(b, 2));
        let _ = x.peer.set(Rc::downgrade(&y));
        let _ = y.peer.set(Rc::downgrade(&x));
        (x, y)
    }
}

impl Nic for LoopNic {
    fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    fn mac(&self) -> Mac {
        self.mac
    }

    fn mtu(&self) -> usize {
        wire::MTU
    }

    fn mark_stack_attached(&self) {}

    fn nqueues(&self) -> usize {
        1
    }

    fn set_irq(&self, _queue: usize, line: InterruptLine) {
        self.rx.set_irq(line);
    }

    fn set_irq_enabled(&self, _queue: usize, enabled: bool) {
        self.rx.set_irq_enabled(enabled);
    }

    fn rx_len(&self, _queue: usize) -> usize {
        self.rx.queued()
    }

    fn rx_burst(
        &self,
        _queue: usize,
        _from_interrupt: bool,
        max_frames: usize,
        max_bytes: usize,
        out: &mut Vec<Chain<IoBuf>>,
    ) -> usize {
        self.rx.take(max_frames, max_bytes, out)
    }

    fn transmit(&self, frame: Chain<IoBuf>) {
        if let Some(peer) = self.peer.get().and_then(Weak::upgrade) {
            peer.rx.deliver(frame);
        }
    }
}
