//! Elastic Building Blocks (§3.3 of the paper).
//!
//! An *Ebb* is a distributed, multi-core fragmented object: a single
//! [`EbbId`] names the object system-wide, while each core that invokes
//! it holds its own *representative* (rep). Invocation resolves the id
//! through a per-core translation table:
//!
//! * **Fast path** — one table load and one null check more than a plain
//!   method call (Table 1 of the paper measures this at ~0.4 cycles per
//!   call over an inlined C++ call). Reps are found via
//!   `translation[core][id]`; the call is statically dispatched on the
//!   rep type, so the compiler can inline through it.
//! * **Miss path** — a type-specific fault handler constructs the rep on
//!   demand from the Ebb's registered *root* (shared state), installs it
//!   in the calling core's slot, and retries. Short-lived Ebbs touched on
//!   one core therefore never pay for representatives elsewhere.
//!
//! The paper backs the per-core table with distinct per-core physical
//! pages mapped at one virtual address; in this reproduction the table is
//! an explicit two-dimensional array indexed by the current core (from
//! [`crate::cpu`]), which preserves both the cost profile (indexed load)
//! and the semantics.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Arc;

use crate::cpu::{self, CoreId};
use crate::spinlock::SpinLock;

/// System-wide unique identifier of an Ebb instance (32 bits, as in the
/// paper's implementation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EbbId(pub u32);

impl fmt::Debug for EbbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EbbId({})", self.0)
    }
}

/// First id handed out by the dynamic allocator; ids below this are
/// reserved for well-known system Ebbs ([`SystemEbb`]), mirroring
/// EbbRT's static id range.
pub const FIRST_DYNAMIC_ID: u32 = 64;

/// The static well-known-id table: system objects every machine owns,
/// named by fixed [`EbbId`]s below [`FIRST_DYNAMIC_ID`] — EbbRT's
/// "well-known Ebbs" (memory allocator, event manager, network
/// manager, …). A `SystemEbb` id resolves per *machine*: the same ref
/// names the local instance on whichever runtime the caller has
/// entered, which is what lets application code hold one copyable ref
/// instead of threading `Rc` handles between machines by hand.
///
/// Ids 2 and 3 double as the *wire* ids the messenger routes by (the
/// FileSystem and GlobalIdMap Ebbs of §4.3/§2.2), so they are part of
/// the cross-machine protocol, not just the local table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u32)]
pub enum SystemEbb {
    /// The per-core buffer pool + IOBuf statistics
    /// (`iobuf::pool::PoolEbb`). Lazily registered: its root is
    /// `Default`, so no setup call is needed.
    BufferPool = 1,
    /// The FileSystem offload Ebb (`ebbrt-hosted`'s `fs`); also its
    /// messenger wire id.
    Fs = 2,
    /// The GlobalIdMap naming service; also its messenger wire id.
    GlobalMap = 3,
    /// The network manager: per-core reps share the machine's `NetIf`
    /// and expose its `NetStats`. Installed by `NetIf::attach`.
    NetStats = 4,
    /// The event system: reps resolve to the calling core's
    /// `EventManager`. Registered by `Runtime::new`.
    EventManager = 5,
    /// The inter-machine messenger. Installed by `Messenger::start`.
    Messenger = 6,
    /// The remote-Ebb transport ([`RemoteTransportEbb`]): what a
    /// [`DistributedEbb`] proxy function-ships through. Installed by
    /// the hosted layer's `remote` module.
    Remote = 7,
    /// The batched-call unwrapper: one messenger frame carrying several
    /// function-shipped calls for the same owner, executed and answered
    /// as one batched reply. Also a messenger wire id. Installed by the
    /// hosted layer's `remote` module alongside [`SystemEbb::Remote`].
    RemoteBatch = 8,
    /// The named per-core counter registry
    /// (`qos::CounterRegistryEbb`). Lazily registered: its root is
    /// `Default`, so the first `qos::register`/`qos::add` on a machine
    /// faults everything in.
    Counters = 9,
    /// The per-core transmit scheduler reps of the QoS subsystem
    /// (per-class fair scheduling on the tx path). Installed by
    /// `NetIf::install_qos` — machine-local, never a wire id.
    Qos = 10,
}

impl SystemEbb {
    /// The well-known [`EbbId`] of this system object.
    pub const fn id(self) -> EbbId {
        EbbId(self as u32)
    }

    /// Whether `id` is a well-known id that is also part of the
    /// messenger *wire* protocol — a service remote machines may
    /// address by fixed id (the FileSystem and GlobalIdMap Ebbs).
    /// Everything else below [`FIRST_DYNAMIC_ID`] is machine-local
    /// and must never appear as a message destination.
    pub const fn is_wire_id(id: EbbId) -> bool {
        id.0 == SystemEbb::Fs as u32
            || id.0 == SystemEbb::GlobalMap as u32
            || id.0 == SystemEbb::RemoteBatch as u32
    }
}

/// A multi-core Ebb: describes how to build a per-core representative
/// from the instance's shared root state.
///
/// The root is the Ebb's cross-core anchor (configuration, shared tables,
/// cross-rep coordination state); reps typically hold a reference to it.
///
/// # Interior-mutability contract
///
/// Representatives are invoked through `&self` and are **single-core**
/// objects: the runtime guarantees that a rep is only ever touched by
/// the one thread currently executing on behalf of its core, and
/// events are non-preemptive, so no call can interleave with another
/// on the same core. `Cell` and `RefCell` are therefore the idiom for
/// all mutable rep state — they compile to plain loads and stores, no
/// atomics (the paper's "non-atomic operations to access per-core data
/// structures", §3.2). Cross-core state belongs in the **root**, which
/// is shared and must synchronize (`SpinLock`, atomics).
pub trait MulticoreEbb: Sized + 'static {
    /// Shared (cross-core) state of one Ebb instance.
    type Root: Send + Sync + 'static;

    /// Constructs this core's representative. Called at most once per
    /// (instance, core), on the faulting core, from the miss path.
    fn create_rep(root: &Arc<Self::Root>, core: CoreId) -> Self;
}

/// Per-machine Ebb state: the translation tables, id allocator and root
/// registry. One per [`crate::runtime::Runtime`].
pub struct EbbManager {
    ncores: usize,
    capacity: usize,
    /// `ncores * capacity` slots; slot `core * capacity + id` holds the
    /// rep pointer for (core, id), or null.
    slots: Box<[AtomicPtr<()>]>,
    /// Sparse overflow table for ids at or above `capacity` — the
    /// *global* ids minted by the GlobalIdMap live far beyond any dense
    /// table (they start at 1 << 20), yet their reps (owning or proxy)
    /// still resolve through this manager. Keyed by `(core, id)`;
    /// values are rep pointers (stored as `usize`) with the same
    /// write-once publication rule as `slots`: inserted exactly once by
    /// the owning core, never removed until `Drop`.
    ext: SpinLock<HashMap<(u32, u32), usize>>,
    next_id: AtomicU32,
    roots: SpinLock<HashMap<u32, RootEntry>>,
    /// Installed reps, recorded so `Drop` can free them with the correct
    /// type: (rep pointer, dropper).
    installed: SpinLock<Vec<InstalledRep>>,
}

/// A live representative: its raw pointer (as `usize`) plus the typed
/// dropper that frees it.
type InstalledRep = (usize, unsafe fn(*mut ()));

struct RootEntry {
    root: Arc<dyn Any + Send + Sync>,
    type_id: TypeId,
    type_name: &'static str,
}

impl EbbManager {
    /// Creates a manager for `ncores` cores with room for `capacity`
    /// distinct Ebb ids.
    pub fn new(ncores: usize, capacity: usize) -> Self {
        assert!(capacity as u64 >= FIRST_DYNAMIC_ID as u64);
        let slots = (0..ncores * capacity)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EbbManager {
            ncores,
            capacity,
            slots,
            ext: SpinLock::new(HashMap::new()),
            next_id: AtomicU32::new(FIRST_DYNAMIC_ID),
            roots: SpinLock::new(HashMap::new()),
            installed: SpinLock::new(Vec::new()),
        }
    }

    /// Number of cores this manager serves.
    pub fn ncores(&self) -> usize {
        self.ncores
    }

    /// Allocates a fresh machine-local [`EbbId`].
    ///
    /// # Panics
    ///
    /// Panics when the id space (`capacity`) is exhausted.
    pub fn allocate_id(&self) -> EbbId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        assert!(
            (id as usize) < self.capacity,
            "EbbId space exhausted (capacity {})",
            self.capacity
        );
        EbbId(id)
    }

    /// Registers the shared root for Ebb `id` of rep type `T`.
    ///
    /// # Panics
    ///
    /// Panics if a root is already registered for `id`.
    pub fn register_root<T: MulticoreEbb>(&self, id: EbbId, root: T::Root) {
        self.register_root_arc::<T>(id, Arc::new(root));
    }

    /// Like [`Self::register_root`] but accepts an existing `Arc`.
    pub fn register_root_arc<T: MulticoreEbb>(&self, id: EbbId, root: Arc<T::Root>) {
        let mut roots = self.roots.lock();
        let prev = roots.insert(
            id.0,
            RootEntry {
                root,
                type_id: TypeId::of::<T>(),
                type_name: std::any::type_name::<T>(),
            },
        );
        assert!(prev.is_none(), "root already registered for {id:?}");
    }

    /// Returns the registered root for `id`, if any.
    pub fn root<T: MulticoreEbb>(&self, id: EbbId) -> Option<Arc<T::Root>> {
        let roots = self.roots.lock();
        let entry = roots.get(&id.0)?;
        Arc::downcast::<T::Root>(Arc::clone(&entry.root)).ok()
    }

    /// Returns the root for `id`, registering a `Default` one first if
    /// absent — the root half of the [`Self::with_rep_lazy`] path,
    /// exposed so setup code holding only a runtime handle (no entered
    /// core) can reach a lazily registered instance's shared state
    /// (e.g. counter-name registration before any rep exists).
    pub fn root_or_default<T: MulticoreEbb>(&self, id: EbbId) -> Arc<T::Root>
    where
        T::Root: Default,
    {
        let mut roots = self.roots.lock();
        let entry = roots.entry(id.0).or_insert_with(|| RootEntry {
            root: Arc::new(T::Root::default()),
            type_id: TypeId::of::<T>(),
            type_name: std::any::type_name::<T>(),
        });
        Arc::downcast::<T::Root>(Arc::clone(&entry.root))
            .unwrap_or_else(|_| panic!("root type mismatch for {id:?}"))
    }

    /// Loads the rep pointer for (core, id), or null. Dense ids take
    /// the paper's fast path (one indexed load); ids beyond the dense
    /// table — GlobalIdMap-minted global ids — go through the sparse
    /// overflow map (one short lock + hash lookup, still allocation
    /// free in steady state).
    #[inline]
    fn load_rep_ptr(&self, core: CoreId, id: EbbId) -> *mut () {
        if (id.0 as usize) < self.capacity {
            self.slots[core.index() * self.capacity + id.0 as usize].load(Ordering::Acquire)
        } else {
            self.ext
                .lock()
                .get(&(core.0, id.0))
                .map_or(std::ptr::null_mut(), |&p| p as *mut ())
        }
    }

    /// Invokes `f` on the calling core's representative for `id`,
    /// constructing it from the registered root on first use.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is not bound to a core, if no root is
    /// registered on a miss, or (in debug builds) on a rep type mismatch.
    #[inline]
    pub fn with_rep<T: MulticoreEbb, R>(&self, id: EbbId, f: impl FnOnce(&T) -> R) -> R {
        self.with_rep_on(cpu::current(), id, f)
    }

    /// The installed representative for (core, id), if any — the one
    /// place a translation-table entry becomes a `&T`.
    #[inline]
    fn installed_rep<T: MulticoreEbb>(&self, core: CoreId, id: EbbId) -> Option<&T> {
        let p = self.load_rep_ptr(core, id);
        if p.is_null() {
            return None;
        }
        self.debug_check_type::<T>(id);
        // SAFETY: the slot for (core, id) is written exactly once (from
        // its core, in `install_rep`) with a `Box<T>` whose type was
        // checked against the registered root's rep type, and is never
        // cleared while the manager lives; reps are freed only in `Drop`
        // (when no calls can be live), so the reference cannot outlive
        // its rep. A rep's interior state is unsynchronized: `dispatch`
        // hands it only to its owning core, and `for_each_rep` states
        // the quiescence its caller owes.
        Some(unsafe { &*(p as *const T) })
    }

    /// The translation-table fast path every entry point shares: one
    /// rep-pointer load, one null check, then `f` — or `miss`, which
    /// installs a rep and comes back through here.
    #[inline]
    fn dispatch<T: MulticoreEbb, R, F: FnOnce(&T) -> R>(
        &self,
        core: CoreId,
        id: EbbId,
        f: F,
        miss: impl FnOnce(F) -> R,
    ) -> R {
        debug_assert_eq!(cpu::try_current(), Some(core));
        match self.installed_rep::<T>(core, id) {
            Some(rep) => f(rep),
            None => miss(f),
        }
    }

    /// As [`Self::with_rep`] with the core supplied by the caller (the
    /// runtime fast path already knows it).
    #[inline]
    pub fn with_rep_on<T: MulticoreEbb, R>(
        &self,
        core: CoreId,
        id: EbbId,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        self.dispatch(core, id, f, |f| self.miss::<T, R>(id, core, f))
    }

    /// As [`Self::with_rep_on`], but a miss on an id with **no
    /// registered root** registers `T::Root::default()` first — the
    /// lazy-registration path system Ebbs use so they need no setup
    /// call ([`SystemEbb::BufferPool`] is the canonical user). The
    /// fast path is identical to `with_rep_on`: one indexed load and
    /// one null check.
    #[inline]
    pub fn with_rep_lazy<T: MulticoreEbb, R>(
        &self,
        core: CoreId,
        id: EbbId,
        f: impl FnOnce(&T) -> R,
    ) -> R
    where
        T::Root: Default,
    {
        self.dispatch(core, id, f, |f| self.miss_lazy::<T, R>(id, core, f))
    }

    /// Lazy miss path: ensure a root exists (first faulting core wins
    /// the race under the roots lock), then take the ordinary miss.
    #[cold]
    fn miss_lazy<T: MulticoreEbb, R>(&self, id: EbbId, core: CoreId, f: impl FnOnce(&T) -> R) -> R
    where
        T::Root: Default,
    {
        self.root_or_default::<T>(id);
        self.miss::<T, R>(id, core, f)
    }

    /// Visits every installed representative of `id`, in core order —
    /// the read side of cross-core aggregation (summing per-core
    /// statistics, diagnostics).
    ///
    /// # Caller contract
    ///
    /// Reps are single-core objects with unsynchronized interior state;
    /// this walks them from the calling thread regardless. The caller
    /// must guarantee the cores are quiescent with respect to `id` —
    /// true on the simulation backend (one driving thread runs every
    /// core) and on the threaded backend after its core threads join.
    pub fn for_each_rep<T: MulticoreEbb>(&self, id: EbbId, mut f: impl FnMut(CoreId, &T)) {
        for core in (0..self.ncores as u32).map(CoreId) {
            if let Some(rep) = self.installed_rep::<T>(core, id) {
                f(core, rep);
            }
        }
    }

    /// Miss path: build the rep from the root and install it.
    #[cold]
    fn miss<T: MulticoreEbb, R>(&self, id: EbbId, core: CoreId, f: impl FnOnce(&T) -> R) -> R {
        let root = {
            let roots = self.roots.lock();
            let entry = roots
                .get(&id.0)
                .unwrap_or_else(|| panic!("Ebb miss on {id:?}: no root registered"));
            assert_eq!(
                entry.type_id,
                TypeId::of::<T>(),
                "Ebb {id:?} registered as {} but invoked as {}",
                entry.type_name,
                std::any::type_name::<T>()
            );
            Arc::downcast::<T::Root>(Arc::clone(&entry.root))
                .expect("root type mismatch despite rep type match")
        };
        let rep = T::create_rep(&root, core);
        self.install_rep(id, core, rep);
        self.with_rep(id, f)
    }

    /// Installs `rep` as (core, id)'s representative directly, bypassing
    /// the root-based miss path (used for hand-placed reps and tests).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is not bound to `core`, or if the
    /// slot is already occupied.
    pub fn install_rep<T: 'static>(&self, id: EbbId, core: CoreId, rep: T) {
        assert_eq!(
            cpu::try_current(),
            Some(core),
            "reps must be installed from their owning core"
        );
        let p = Box::into_raw(Box::new(rep)) as *mut ();
        let won = if (id.0 as usize) < self.capacity {
            let idx = core.index() * self.capacity + id.0 as usize;
            self.slots[idx]
                .compare_exchange(
                    std::ptr::null_mut(),
                    p,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
        } else {
            match self.ext.lock().entry((core.0, id.0)) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(p as usize);
                    true
                }
                std::collections::hash_map::Entry::Occupied(_) => false,
            }
        };
        if !won {
            // SAFETY: `p` came from `Box::into_raw` above and was not
            // published.
            drop(unsafe { Box::from_raw(p as *mut T) });
            panic!("rep already installed for ({core}, {id:?})");
        }
        /// Reconstructs and drops the `Box<T>` behind an installed rep.
        ///
        /// # Safety
        ///
        /// `p` must be the pointer produced by `Box::into_raw` for a `T`.
        unsafe fn drop_rep<T>(p: *mut ()) {
            // SAFETY: guaranteed by this function's contract; called only
            // from `EbbManager::drop` with the recorded pointer.
            drop(unsafe { Box::from_raw(p as *mut T) });
        }
        self.installed.lock().push((p as usize, drop_rep::<T>));
    }

    /// Returns whether (core, id) currently has an installed rep.
    pub fn has_rep(&self, id: EbbId, core: CoreId) -> bool {
        !self.load_rep_ptr(core, id).is_null()
    }

    /// As [`Self::with_rep_on`] for a [`DistributedEbb`]: a miss on an
    /// id with **no registered root** treats the id as *remote-owned* —
    /// it builds a proxy representative that function-ships calls
    /// through the machine's installed [`RemoteTransport`]
    /// ([`SystemEbb::Remote`]) and installs it like any other rep. On
    /// the owner machine (where the root *is* registered) this is
    /// exactly `with_rep_on`: the real rep faults in from the root and
    /// calls stay local. The fast path is identical either way: one
    /// rep-pointer load and one null check.
    #[inline]
    pub fn with_rep_distributed<T: DistributedEbb, R>(
        &self,
        core: CoreId,
        id: EbbId,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        self.dispatch(core, id, f, |f| self.miss_distributed::<T, R>(id, core, f))
    }

    /// Distributed miss path: locally-rooted ids take the ordinary
    /// miss; everything else gets a function-shipping proxy rep.
    #[cold]
    fn miss_distributed<T: DistributedEbb, R>(
        &self,
        id: EbbId,
        core: CoreId,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        if self.roots.lock().contains_key(&id.0) {
            return self.miss::<T, R>(id, core, f);
        }
        assert!(
            self.has_rep(SystemEbb::Remote.id(), core),
            "distributed Ebb miss on {id:?}: this machine does not own the id and \
             no remote transport is installed on {core} (see hosted `remote::install`)"
        );
        let transport = self.with_rep_on::<RemoteTransportEbb, _>(
            core,
            SystemEbb::Remote.id(),
            RemoteTransportEbb::transport,
        );
        let rep = T::create_proxy(RemoteShipper::new(id, transport), core);
        self.install_rep(id, core, rep);
        self.with_rep_on(core, id, f)
    }

    #[inline]
    fn debug_check_type<T: MulticoreEbb>(&self, id: EbbId) {
        if cfg!(debug_assertions) {
            let roots = self.roots.lock();
            if let Some(entry) = roots.get(&id.0) {
                assert_eq!(
                    entry.type_id,
                    TypeId::of::<T>(),
                    "Ebb {id:?} registered as {} but invoked as {}",
                    entry.type_name,
                    std::any::type_name::<T>()
                );
            }
        }
    }
}

impl Drop for EbbManager {
    fn drop(&mut self) {
        for (p, dropper) in self.installed.get_mut().drain(..) {
            // SAFETY: `installed` records exactly the pointers published
            // by `install_rep` (dense slot or overflow map), each with
            // its matching typed dropper, and nothing can call into the
            // manager during `drop`.
            unsafe { dropper(p as *mut ()) };
        }
    }
}

// --- Distributed (multi-machine) Ebbs -----------------------------------
//
// The paper's Ebbs span machines, not just cores (§2.2, §3.3): the same
// id names the object system-wide, and a machine that does not own the
// id reaches it through a *remote representative* that function-ships
// calls to the owner over the messenger. The core layer stays
// transport-agnostic: it defines the failure vocabulary, the transport
// interface, and the proxy fault path; the hosted layer supplies the
// messenger-backed transport and the GlobalIdMap owner resolution.

/// Why a function-shipped Ebb call failed. Remote calls never hang:
/// every call's continuation runs exactly once, with the response or
/// one of these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RemoteError {
    /// The naming service has no owner record for the id.
    Unresolved,
    /// The owner's connection failed before a response arrived
    /// (teardown, reset, ARP failure).
    Unreachable,
    /// No response within the transport's timeout.
    Timeout,
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Unresolved => write!(f, "no owner record for the Ebb id"),
            RemoteError::Unreachable => write!(f, "owner machine unreachable"),
            RemoteError::Timeout => write!(f, "remote call timed out"),
        }
    }
}

/// Result of a remote Ebb call.
pub type RemoteResult<T> = Result<T, RemoteError>;

/// A function-shipped payload — request or response — as a chain of
/// buffer descriptors. This is the only currency of the shipped path:
/// a proxy marshals into one ([`crate::iobuf::wire::WireWriter`]), the
/// transport frames and sends its segments, the owner reads fields out
/// of the chain it received ([`crate::iobuf::wire::WireReader`]) and
/// answers with another.
pub type Payload = crate::iobuf::Chain<crate::iobuf::IoBuf>;

/// The continuation of one function-shipped call; invoked exactly once
/// with the response payload or a [`RemoteError`].
pub type RemoteReply = Box<dyn FnOnce(RemoteResult<Payload>)>;

/// The machine-local transport [`DistributedEbb`] proxies function-ship
/// through: resolves the owner of an id (via the naming service) and
/// delivers a request/response exchange, with timeout and
/// failure delivery as its contract — a reply must arrive for every
/// shipped call, `Ok` or `Err`, never neither.
///
/// Implementations are machine-confined (`Rc`, not `Send`): each
/// machine installs its own under [`SystemEbb::Remote`].
pub trait RemoteTransport {
    /// Ships `payload` to the owner of `id`; `reply` runs exactly once.
    /// A transport that retries keeps a descriptor clone of `payload`,
    /// not a copy of its bytes.
    fn ship(&self, id: EbbId, payload: Payload, reply: RemoteReply);
}

/// Per-core representative of [`SystemEbb::Remote`]: hands the
/// machine's [`RemoteTransport`] to proxy reps faulting in. Installed
/// on every core by the hosted layer's `remote::install`.
pub struct RemoteTransportEbb {
    transport: std::rc::Rc<dyn RemoteTransport>,
}

impl RemoteTransportEbb {
    /// Wraps a transport handle for installation.
    pub fn new(transport: std::rc::Rc<dyn RemoteTransport>) -> Self {
        RemoteTransportEbb { transport }
    }

    /// The machine's transport.
    pub fn transport(&self) -> std::rc::Rc<dyn RemoteTransport> {
        std::rc::Rc::clone(&self.transport)
    }
}

impl MulticoreEbb for RemoteTransportEbb {
    type Root = ();

    fn create_rep(_: &Arc<()>, core: CoreId) -> Self {
        unreachable!(
            "RemoteTransportEbb reps are installed by remote::install, not faulted ({core})"
        )
    }
}

/// A proxy representative's handle to its owner: ships payloads
/// addressed to the proxy's id through the machine's transport. This is
/// all a [`DistributedEbb`] proxy holds — owner resolution, request
/// correlation, timeouts and failure delivery live in the transport, so
/// a proxy never caches an owner address that could go stale.
pub struct RemoteShipper {
    id: EbbId,
    transport: std::rc::Rc<dyn RemoteTransport>,
}

impl RemoteShipper {
    /// Binds `transport` to `id`.
    pub fn new(id: EbbId, transport: std::rc::Rc<dyn RemoteTransport>) -> Self {
        RemoteShipper { id, transport }
    }

    /// The id calls are addressed to.
    pub fn id(&self) -> EbbId {
        self.id
    }

    /// Function-ships one call; `reply` runs exactly once with the
    /// response payload or the failure.
    pub fn call(&self, payload: Payload, reply: impl FnOnce(RemoteResult<Payload>) + 'static) {
        self.transport.ship(self.id, payload, Box::new(reply));
    }
}

impl fmt::Debug for RemoteShipper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RemoteShipper({:?})", self.id)
    }
}

/// A multi-core Ebb that is also reachable from machines that do not
/// own it. On the owner machine the ordinary [`MulticoreEbb`] half
/// applies (reps fault in from the registered root); on every other
/// machine, a miss installs a *proxy* rep built by
/// [`DistributedEbb::create_proxy`] that function-ships calls to the
/// owner — resolved through the GlobalIdMap by the transport — and the
/// owner answers through [`DistributedEbb::handle_remote`] on its real
/// rep. Same id, same call sites, per-machine rep flavor: the paper's
/// distributed fragmented object.
pub trait DistributedEbb: MulticoreEbb {
    /// Constructs the proxy rep on a non-owner machine. Called at most
    /// once per (machine, core), on the faulting core.
    fn create_proxy(shipper: RemoteShipper, core: CoreId) -> Self;

    /// Owner side: applies one function-shipped request to this (real)
    /// representative and hands the response payload to `respond` —
    /// exactly once, inside the owner machine's messenger-dispatch
    /// event or after it returns (a handler that must itself ship
    /// calls before acknowledging, e.g. replication fan-out, answers
    /// when they resolve). The request is the chain as received; the
    /// response is a chain the transport sends by descriptor, so a
    /// handler that answers with clones of buffers it already holds
    /// (a stored value, a snapshot page) copies nothing.
    fn handle_remote(&self, payload: Payload, respond: impl FnOnce(Payload) + 'static);
}

/// A consistent-hash ring mapping keys to key ranges and ranges to
/// ordered replica sets.
///
/// The ring carries `nranges` ranges, each contributing `vnodes`
/// virtual points hashed onto a `u64` circle. [`HashRing::range_of`]
/// walks clockwise from the key's hash to the first point;
/// [`HashRing::successors`] walks on from a range's first point to
/// collect the distinct ranges that follow it — the canonical replica
/// placement rule (a range's data lives on its own shard plus the next
/// `r - 1` distinct ranges' shards). Purely arithmetic and identical on
/// every machine, so placement needs no coordination: only *ownership*
/// (which machine currently fronts a range) goes through the naming
/// service.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (point hash, range) sorted by hash.
    points: Vec<(u64, u32)>,
    nranges: u32,
    vnodes: u32,
    /// Placement generation. Bumped by every membership change
    /// ([`HashRing::grown`]); machines adopt a new ring only if its
    /// epoch exceeds their current one, so a stale rebroadcast can
    /// never roll placement backwards.
    epoch: u64,
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// FNV's high bits are weak for short inputs, and the ring orders
/// points by the full u64 — run the hash through a finalizer so vnode
/// points and key hashes spread over the whole circle.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl HashRing {
    /// Builds the ring for `nranges` ranges with `vnodes` virtual
    /// points each. Deterministic: same arguments, same ring,
    /// everywhere.
    pub fn new(nranges: u32, vnodes: u32) -> Self {
        Self::with_epoch(nranges, vnodes, 1)
    }

    /// As [`HashRing::new`] with an explicit placement epoch — the form
    /// a machine uses to rebuild a peer's ring from the `(nranges,
    /// vnodes, epoch)` triple carried in a control message. The point
    /// set depends only on `nranges` and `vnodes`; the epoch orders
    /// generations.
    pub fn with_epoch(nranges: u32, vnodes: u32, epoch: u64) -> Self {
        assert!(nranges > 0, "ring needs at least one range");
        assert!(vnodes > 0, "ring needs at least one vnode per range");
        let mut points = Vec::with_capacity((nranges * vnodes) as usize);
        for range in 0..nranges {
            for v in 0..vnodes {
                let h = mix64(fnv64(
                    fnv64(FNV64_OFFSET, &range.to_be_bytes()),
                    &v.to_be_bytes(),
                ));
                points.push((h, range));
            }
        }
        points.sort_unstable();
        // Colliding points would make placement ambiguous; keep the
        // first (lowest range) deterministically.
        points.dedup_by_key(|p| p.0);
        HashRing {
            points,
            nranges,
            vnodes,
            epoch,
        }
    }

    /// The next-generation ring with one more range: the shape a
    /// cluster adopts when a machine joins. Existing ranges keep their
    /// vnode points (the hash depends only on the range index), so the
    /// only keys whose placement changes are those captured by the new
    /// range's points — consistent hashing's minimal-movement
    /// guarantee, proven by the proptests below.
    pub fn grown(&self) -> Self {
        Self::with_epoch(self.nranges + 1, self.vnodes, self.epoch + 1)
    }

    /// Number of ranges on the ring.
    pub fn nranges(&self) -> u32 {
        self.nranges
    }

    /// Virtual points contributed by each range.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Placement generation of this ring.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The range owning `key`: first point clockwise from the key's
    /// hash.
    pub fn range_of(&self, key: &[u8]) -> u32 {
        let h = mix64(fnv64(FNV64_OFFSET, key));
        let i = match self.points.binary_search_by(|p| p.0.cmp(&h)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        };
        self.points[i].1
    }

    /// The ordered replica set for `range`: the range itself, then the
    /// next distinct ranges clockwise from its first point, `count`
    /// entries total (capped at the number of ranges).
    pub fn successors(&self, range: u32, count: usize) -> Vec<u32> {
        assert!(range < self.nranges, "range {range} out of bounds");
        let want = count.clamp(1, self.nranges as usize);
        let start = self
            .points
            .iter()
            .position(|p| p.1 == range)
            .expect("every range contributes at least one point");
        let mut out = vec![range];
        let mut i = start;
        loop {
            i = (i + 1) % self.points.len();
            if i == start || out.len() >= want {
                break;
            }
            let r = self.points[i].1;
            if !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }
}

/// A typed, copyable reference to an Ebb instance — the unit passed
/// around application code. Dereference cost is the translation-table
/// load described in the module docs.
///
/// `EbbRef` resolves through the *current runtime* (see
/// [`crate::runtime`]), so the same ref works on any core of the machine.
pub struct EbbRef<T: MulticoreEbb> {
    id: EbbId,
    _marker: PhantomData<fn() -> T>,
}

impl<T: MulticoreEbb> Clone for EbbRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: MulticoreEbb> Copy for EbbRef<T> {}

impl<T: MulticoreEbb> fmt::Debug for EbbRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EbbRef<{}>({})", std::any::type_name::<T>(), self.id.0)
    }
}

impl<T: MulticoreEbb> EbbRef<T> {
    /// Creates a new Ebb instance in the current runtime: allocates an
    /// id, registers `root`, and returns the reference.
    pub fn create(root: T::Root) -> Self {
        crate::runtime::with_current(|rt| Self::create_in(rt, root))
    }

    /// As [`Self::create`], against an explicit runtime — the form the
    /// simulation's harness thread uses to wire a machine up before
    /// any of its events run.
    pub fn create_in(rt: &crate::runtime::Runtime, root: T::Root) -> Self {
        let id = rt.ebbs().allocate_id();
        // Id hygiene: dynamic ids must never collide with the
        // well-known SystemEbb / messenger-wire range (the allocator
        // starts above it; this guards the invariant if that ever
        // changes).
        assert!(
            id.0 >= FIRST_DYNAMIC_ID,
            "dynamic {id:?} collides with the well-known SystemEbb range"
        );
        rt.ebbs().register_root::<T>(id, root);
        EbbRef {
            id,
            _marker: PhantomData,
        }
    }

    /// Wraps an existing id (for well-known/static Ebbs and for ids
    /// transported between machines).
    pub fn from_id(id: EbbId) -> Self {
        EbbRef {
            id,
            _marker: PhantomData,
        }
    }

    /// The ref for a well-known system Ebb — resolves to the current
    /// machine's instance wherever it is dereferenced.
    pub fn well_known(which: SystemEbb) -> Self {
        Self::from_id(which.id())
    }

    /// The underlying id.
    pub fn id(&self) -> EbbId {
        self.id
    }

    /// Invokes `f` on the calling core's representative, constructing it
    /// on first use (the Ebb call itself). One thread-local read, one
    /// slot load, one null check — the paper's fast path.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        crate::runtime::with_current_on(|rt, core| rt.ebbs().with_rep_on(core, self.id, f))
    }

    /// Returns this Ebb's root.
    ///
    /// # Panics
    ///
    /// Panics if no root is registered (e.g. a hand-installed Ebb).
    pub fn root(&self) -> Arc<T::Root> {
        crate::runtime::with_current(|rt| {
            rt.ebbs()
                .root::<T>(self.id)
                .unwrap_or_else(|| panic!("no root registered for {:?}", self.id))
        })
    }
}

impl<T: DistributedEbb> EbbRef<T> {
    /// As [`Self::with`] for a distributed Ebb: on a machine that does
    /// not own the id (no registered root), the miss installs a
    /// function-shipping *proxy* rep instead of panicking — the
    /// cross-machine Ebb call. On the owner machine this is exactly
    /// [`Self::with`].
    #[inline]
    pub fn with_distributed<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        crate::runtime::with_current_on(|rt, core| rt.ebbs().with_rep_distributed(core, self.id, f))
    }
}

impl<T: MulticoreEbb> EbbRef<T>
where
    T::Root: Default,
{
    /// As [`Self::with`], registering `T::Root::default()` on a miss
    /// with no root — the no-setup path for system Ebbs whose shared
    /// state has a sensible default ([`SystemEbb::BufferPool`]).
    #[inline]
    pub fn with_lazy<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        crate::runtime::with_current_on(|rt, core| rt.ebbs().with_rep_lazy(core, self.id, f))
    }
}

/// An [`EbbRef`] that memoizes the resolved rep pointer **per core**,
/// making steady-state dispatch one indexed load plus a runtime-id
/// compare — measurably indistinguishable from a direct call (the
/// `ebb_dispatch` bench reproduces the paper's Table 1 with it).
///
/// The cache is validated against [`Runtime::uid`]: runtime uids are
/// unique and never reused, so a `CachedEbbRef` carried across
/// runtimes (tests hosting several machines in one process) can never
/// serve a stale pointer — a uid mismatch falls back to the
/// translation table and re-memoizes.
///
/// Like a rep itself, a `CachedEbbRef` is a per-core-discipline object
/// (`Cell` slots, `!Sync`): on the threaded backend each core keeps
/// its own; the simulation's single driving thread may share one
/// across the cores it multiplexes.
///
/// [`Runtime::uid`]: crate::runtime::Runtime::uid
pub struct CachedEbbRef<T: MulticoreEbb> {
    id: EbbId,
    /// Per-core memo: (runtime uid, rep pointer). Uid 0 never matches.
    slots: Box<[std::cell::Cell<(u64, *const ())>]>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: MulticoreEbb> CachedEbbRef<T> {
    /// Wraps `ebb` with a rep-pointer cache sized for the current
    /// dispatch context's core count. Used on a machine with more
    /// cores, out-of-range cores dispatch uncached (still correct).
    pub fn new(ebb: EbbRef<T>) -> Self {
        let ncores = crate::runtime::with_context(|rt, _| rt.ncores());
        CachedEbbRef {
            id: ebb.id(),
            slots: (0..ncores)
                .map(|_| std::cell::Cell::new((0, std::ptr::null())))
                .collect(),
            _marker: PhantomData,
        }
    }

    /// The cached ref for a well-known system Ebb.
    pub fn well_known(which: SystemEbb) -> Self {
        Self::new(EbbRef::well_known(which))
    }

    /// The underlying id.
    pub fn id(&self) -> EbbId {
        self.id
    }

    /// Invokes `f` on the calling core's representative. Steady state:
    /// one thread-local read, one uid compare, one indexed load.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        crate::runtime::with_current_on(|rt, core| {
            let i = core.index();
            if i < self.slots.len() {
                let (uid, p) = self.slots[i].get();
                if uid == rt.uid() {
                    // SAFETY: the uid matches the live, entered runtime
                    // (uids are never reused), so `p` is the pointer its
                    // manager installed for (core, id) under rep type
                    // `T`; reps are freed only when the manager drops,
                    // which the entered runtime's Arc forestalls.
                    let rep = unsafe { &*(p as *const T) };
                    return f(rep);
                }
            }
            rt.ebbs().with_rep_on(core, self.id, |rep: &T| {
                if i < self.slots.len() {
                    self.slots[i].set((rt.uid(), rep as *const T as *const ()));
                }
                f(rep)
            })
        })
    }
}

impl<T: MulticoreEbb> fmt::Debug for CachedEbbRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CachedEbbRef<{}>({})",
            std::any::type_name::<T>(),
            self.id.0
        )
    }
}

#[cfg(test)]
mod tests;
