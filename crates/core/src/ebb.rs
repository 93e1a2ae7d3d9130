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
use std::sync::{Arc, Mutex};

use crate::cpu::{self, CoreId};
use crate::event::OnceFn;

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
    /// `Default`, so the first `qos::Counter` on a machine
    /// faults everything in.
    Counters = 9,
    /// The per-core transmit scheduler reps of the QoS subsystem
    /// (per-class fair scheduling on the tx path). Installed by
    /// `NetIf::install_qos` — machine-local, never a wire id.
    Qos = 10,
    /// The per-core cache of memcached server connections' cold boxes
    /// (`ebbrt-apps`' `memcached::server`): a [`crate::cache::ObjCache`]
    /// per core over the machine's [`crate::cache::Depot`], its root.
    /// Lazily registered: the depot is `Default`.
    ConnCold = 11,
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
/// is shared and must synchronize (`std::sync::Mutex`, atomics).
pub trait MulticoreEbb: Sized + 'static {
    /// Shared (cross-core) state of one Ebb instance.
    type Root: Send + Sync + 'static;

    /// Constructs this core's representative from the instance's root.
    fn create_rep(root: &Arc<Self::Root>, core: CoreId) -> Self;

    /// The type's fault handler (the paper's `HandleFault`, §3.3): builds
    /// the representative a miss on (`core`, `id`) installs. Called at
    /// most once per (instance, core), on the faulting core. The miss
    /// policy is a property of the type, stated here once — every call
    /// site is the same [`EbbRef::with`].
    ///
    /// The provided body is the root-only policy: build from the
    /// registered root, and treat a miss with no root as a wiring error.
    /// Overrides state the other three: register `Root::default()` first
    /// ([`EbbManager::root_or_default`]); build a function-shipping
    /// proxy when this machine holds no root ([`EbbManager::shipper`]);
    /// or, for reps that are installed at attach time and never
    /// faulted, [`not_installed`].
    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        let root = ebbs.root::<Self>(id).unwrap_or_else(|| {
            panic!(
                "Ebb miss on {id:?}: no root registered for {}",
                std::any::type_name::<Self>()
            )
        });
        Self::create_rep(&root, core)
    }
}

/// The root type of an Ebb whose reps are installed at attach time
/// ([`crate::runtime::install_on_all_cores`]) around machine-wide `Rc`
/// state that cannot live in a `Send + Sync` root. Uninhabited: no root
/// of such an Ebb can be registered, so its `create_rep` is statically
/// unreachable and its fault handler is [`not_installed`].
pub enum NoRoot {}

/// The fault policy of an installed-only Ebb: a miss means `installer`
/// never ran on this machine, which is a wiring error.
pub fn not_installed(id: EbbId, core: CoreId, installer: &str) -> ! {
    panic!(
        "Ebb miss on {id:?} ({core}): its reps are installed by {installer}, never faulted — \
         was {installer} called on this machine?"
    )
}

/// A machine-wide `Rc` object reached from every core through an
/// [`InstalledRep`] (the network stack, the messenger).
pub trait Installed: 'static {
    /// What installs the reps, named by a miss ([`not_installed`]).
    const INSTALLER: &'static str;
}

/// The per-core representative of an installed-only Ebb: every core's
/// rep shares the machine's one `T`, so code on any core reaches it
/// through one copyable [`EbbRef`] instead of threading `Rc<T>` handles
/// into every spawn closure. Reps hold `T` weakly: the `Rc` its
/// installer returned stays the owner, and the translation table
/// cannot keep a dead object alive through the machine ⇄ object cycle.
pub struct InstalledRep<T>(std::rc::Weak<T>);

impl<T: Installed> InstalledRep<T> {
    /// Installs a rep of `obj` on every core of `rt` under `id`.
    pub fn install(rt: &Arc<crate::runtime::Runtime>, id: EbbId, obj: &std::rc::Rc<T>) {
        crate::runtime::install_on_all_cores(rt, id, |_| InstalledRep(std::rc::Rc::downgrade(obj)));
    }

    /// The object, unless its owner has dropped it.
    pub fn upgrade(&self) -> Option<std::rc::Rc<T>> {
        self.0.upgrade()
    }

    /// The object.
    ///
    /// # Panics
    ///
    /// Panics if its owner has dropped it.
    pub fn get(&self) -> std::rc::Rc<T> {
        self.upgrade()
            .unwrap_or_else(|| panic!("{} dropped under its Ebb", std::any::type_name::<T>()))
    }
}

impl<T: Installed> MulticoreEbb for InstalledRep<T> {
    type Root = NoRoot;

    fn create_rep(root: &Arc<NoRoot>, _: CoreId) -> Self {
        match **root {}
    }

    fn handle_fault(_: &EbbManager, id: EbbId, core: CoreId) -> Self {
        not_installed(id, core, T::INSTALLER)
    }
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
    ext: Mutex<HashMap<(u32, u32), usize>>,
    next_id: AtomicU32,
    roots: Mutex<HashMap<u32, RootEntry>>,
    /// Installed reps, recorded so `Drop` can free them with the correct
    /// type: (rep pointer, dropper).
    installed: Mutex<Vec<OwnedRep>>,
}

/// A live representative: its raw pointer (as `usize`) plus the typed
/// dropper that frees it.
type OwnedRep = (usize, unsafe fn(*mut ()));

struct RootEntry {
    root: Arc<dyn Any + Send + Sync>,
    type_id: TypeId,
    type_name: &'static str,
}

impl RootEntry {
    fn check_type<T: MulticoreEbb>(&self, id: EbbId) {
        assert_eq!(
            self.type_id,
            TypeId::of::<T>(),
            "Ebb {id:?} registered as {} but invoked as {}",
            self.type_name,
            std::any::type_name::<T>()
        );
    }
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
            ext: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(FIRST_DYNAMIC_ID),
            roots: Mutex::new(HashMap::new()),
            installed: Mutex::new(Vec::new()),
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
        let mut roots = crate::lock(&self.roots);
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
    ///
    /// # Panics
    ///
    /// Panics if the root was registered for a different rep type.
    pub fn root<T: MulticoreEbb>(&self, id: EbbId) -> Option<Arc<T::Root>> {
        let roots = crate::lock(&self.roots);
        let entry = roots.get(&id.0)?;
        entry.check_type::<T>(id);
        Some(
            Arc::downcast::<T::Root>(Arc::clone(&entry.root))
                .expect("root type mismatch despite rep type match"),
        )
    }

    /// Returns the root for `id`, registering a `Default` one first if
    /// absent — what a lazily registered type's fault handler builds
    /// from, and how setup code holding only a runtime handle (no entered
    /// core) can reach a lazily registered instance's shared state
    /// (e.g. counter-name registration before any rep exists).
    pub fn root_or_default<T: MulticoreEbb>(&self, id: EbbId) -> Arc<T::Root>
    where
        T::Root: Default,
    {
        let mut roots = crate::lock(&self.roots);
        let entry = roots.entry(id.0).or_insert_with(|| RootEntry {
            root: Arc::new(T::Root::default()),
            type_id: TypeId::of::<T>(),
            type_name: std::any::type_name::<T>(),
        });
        entry.check_type::<T>(id);
        Arc::downcast::<T::Root>(Arc::clone(&entry.root))
            .expect("root type mismatch despite rep type match")
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
            crate::lock(&self.ext)
                .get(&(core.0, id.0))
                .map_or(std::ptr::null_mut(), |&p| p as *mut ())
        }
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

    /// The Ebb call: invokes `f` on `core`'s representative for `id` —
    /// one rep-pointer load and one null check, then `f`. A miss runs
    /// `T`'s fault handler ([`MulticoreEbb::handle_fault`]), installs
    /// what it built and comes back through here. `core` must be the
    /// calling core (the runtime fast path already knows it).
    ///
    /// # Panics
    ///
    /// Panics as `T`'s fault handler does on a miss, or (in debug
    /// builds) on a rep type mismatch.
    #[inline]
    pub fn with_rep_on<T: MulticoreEbb, R>(
        &self,
        core: CoreId,
        id: EbbId,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        debug_assert_eq!(cpu::try_current(), Some(core));
        match self.installed_rep::<T>(core, id) {
            Some(rep) => f(rep),
            None => self.miss(id, core, f),
        }
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

    /// Miss path: the type's fault handler builds the rep; install it.
    #[cold]
    fn miss<T: MulticoreEbb, R>(&self, id: EbbId, core: CoreId, f: impl FnOnce(&T) -> R) -> R {
        let rep = T::handle_fault(self, id, core);
        self.install_rep(id, core, rep);
        self.with_rep_on(core, id, f)
    }

    /// Installs `rep` as (core, id)'s representative directly, bypassing
    /// the fault handler (hand-placed reps: see [`NoRoot`]).
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
            match crate::lock(&self.ext).entry((core.0, id.0)) {
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
        crate::lock(&self.installed).push((p as usize, drop_rep::<T>));
    }

    /// Returns whether (core, id) currently has an installed rep.
    pub fn has_rep(&self, id: EbbId, core: CoreId) -> bool {
        !self.load_rep_ptr(core, id).is_null()
    }

    /// A shipper for `id` over this machine's installed
    /// [`RemoteTransport`] ([`SystemEbb::Remote`]) — what a
    /// proxy-capable type's fault handler builds its proxy around when
    /// this machine holds no root for `id`.
    ///
    /// # Panics
    ///
    /// Panics (as [`RemoteTransportEbb`]'s fault policy) if no transport
    /// is installed on `core`.
    pub fn shipper(&self, core: CoreId, id: EbbId) -> RemoteShipper {
        let transport =
            self.with_rep_on(core, SystemEbb::Remote.id(), RemoteTransportEbb::transport);
        RemoteShipper { id, transport }
    }

    #[inline]
    fn debug_check_type<T: MulticoreEbb>(&self, id: EbbId) {
        if cfg!(debug_assertions) {
            if let Some(entry) = crate::lock(&self.roots).get(&id.0) {
                entry.check_type::<T>(id);
            }
        }
    }
}

impl Drop for EbbManager {
    fn drop(&mut self) {
        let installed = std::mem::take(&mut *crate::lock(&self.installed));
        for (p, dropper) in installed {
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

/// Words of inline storage a [`RemoteReply`] gets: enough for the
/// continuations the product ships with (a connection, a weak handle
/// and a few fields; a transport's own wrapper around a batch). Replies
/// live only in the transport's in-flight maps, so they may be wider
/// than an event ([`crate::event::EVENT_WORDS`]).
pub const REPLY_WORDS: usize = 5;

/// The continuation of one function-shipped call; invoked exactly once
/// ([`OnceFn::call`]) with the response payload or a [`RemoteError`].
pub type RemoteReply = OnceFn<RemoteResult<Payload>, REPLY_WORDS>;

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
    type Root = NoRoot;

    fn create_rep(root: &Arc<NoRoot>, _: CoreId) -> Self {
        match **root {}
    }

    fn handle_fault(_: &EbbManager, id: EbbId, core: CoreId) -> Self {
        not_installed(id, core, "the hosted layer's MessengerTransport::install")
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
    /// The id calls are addressed to.
    pub fn id(&self) -> EbbId {
        self.id
    }

    /// Function-ships one call; `reply` runs exactly once with the
    /// response payload or the failure.
    pub fn call(&self, payload: Payload, reply: impl FnOnce(RemoteResult<Payload>) + 'static) {
        self.transport
            .ship(self.id, payload, RemoteReply::new(reply));
    }
}

impl fmt::Debug for RemoteShipper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RemoteShipper({:?})", self.id)
    }
}

/// A multi-core Ebb that machines which do not own it can call: the
/// **owner half** of a distributed Ebb. The owner machine registers the
/// root, its reps fault in from it as any [`MulticoreEbb`]'s do, and
/// the hosted layer's `remote::export` routes inbound function-shipped
/// requests to [`DistributedEbb::handle_remote`] on the real rep.
///
/// The **caller half** is the type's fault policy, not a second trait: a
/// type whose reps are reached through one [`EbbRef`] on every machine
/// overrides [`MulticoreEbb::handle_fault`] to build a proxy around
/// [`EbbManager::shipper`] where no root is registered — same id, same
/// call sites, per-machine rep flavor (the paper's distributed
/// fragmented object). A type addressed only through explicit shippers
/// keeps the root-only policy and has no proxy flavor at all.
pub trait DistributedEbb: MulticoreEbb {
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

    /// The Ebb call — the only one: invokes `f` on the calling core's
    /// representative. One thread-local read, one slot load, one null
    /// check (the paper's fast path); a miss runs `T`'s fault handler
    /// ([`MulticoreEbb::handle_fault`]), so what a first call does — build
    /// from the root, register a default root, install a
    /// function-shipping proxy — is decided by the type, never here.
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

#[cfg(test)]
mod tests;
