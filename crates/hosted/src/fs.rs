//! The FileSystem Ebb: function offload from native to hosted (§4.3).
//!
//! "Rather than implement a file system and hard disk driver within the
//! EbbRT library OS, the Ebb offloaded calls to a representative
//! running in a Linux process. Our implementation of the FileSystem Ebb
//! is naïve, sending messages and incurring round trip costs for every
//! access rather than caching data on local representatives."
//!
//! One object, [`SystemEbb::Fs`], two representative flavors chosen by
//! [`FsEbb`]'s fault handler: on the hosted machine —
//! [`FsServer::start`] registered the root there and exported it — a
//! rep serves the in-memory filesystem in place; on a native machine,
//! which holds no root, the first `fs_ref().with(..)` on a core faults
//! in a proxy that function-ships every `read`/`write`/`stat` through
//! the machine's installed transport (one round trip per access, with
//! its timeout and failure delivery: errors surface as `None`/`false`).
//! The call site is the same on both. The owner is found as any
//! distributed Ebb's is: a naming-service record, or
//! [`MessengerTransport::preset_owner`](crate::remote::MessengerTransport::preset_owner)
//! for a native instance booted with the hosted address.
//! [`CachingFsClient`] adds the read cache the paper names as the
//! obvious future optimization, so the benefit can be measured (the
//! offload ablation bench).
//!
//! Files are kept as buffer chains, so a read reply links the file's
//! own descriptors and a written file is a view of the request it
//! arrived in (compacted when that view would pin much more than it
//! holds).
//!
//! Wire format: `op:u8 | path_len:u16 | path | args…`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{
    DistributedEbb, EbbId, EbbManager, EbbRef, MulticoreEbb, RemoteShipper, SystemEbb,
};
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::spinlock::SpinLock;

use crate::messenger::Messenger;
use crate::remote::{self, wire};

/// Well-known Ebb id for the filesystem service (also its messenger
/// wire id — see [`SystemEbb::Fs`]).
pub const FS_EBB_ID: EbbId = SystemEbb::Fs.id();

const OP_READ: u8 = 1;
const OP_WRITE: u8 = 2;
const OP_STAT: u8 = 3;

/// A written file whose bytes are less than this fraction of the
/// buffer regions its view pins is copied into a buffer of its own.
const WRITE_COMPACT_FACTOR: usize = 4;

/// The FileSystem Ebb's root: the hosted machine's in-memory
/// filesystem.
pub struct FsServer {
    files: SpinLock<HashMap<String, Chain<IoBuf>>>,
    requests: AtomicU64,
}

impl FsServer {
    /// Makes `messenger`'s machine the filesystem's owner: registers
    /// the root under [`SystemEbb::Fs`] and exports it, so local calls
    /// are served in place and other machines' proxies are answered
    /// over `messenger`.
    pub fn start(messenger: &Rc<Messenger>) -> Arc<FsServer> {
        let server = Arc::new(FsServer {
            files: SpinLock::new(HashMap::new()),
            requests: AtomicU64::new(0),
        });
        let rt = messenger.netif().machine().runtime();
        rt.ebbs()
            .register_root_arc::<FsEbb>(FS_EBB_ID, Arc::clone(&server));
        remote::export(messenger, fs_ref());
        server
    }

    /// Pre-populates a file (test/setup convenience).
    pub fn put(&self, path: &str, data: Vec<u8>) {
        let data = Chain::single(MutIoBuf::from_vec(data).freeze());
        self.files.lock().insert(path.to_string(), data);
    }

    /// Requests served, local and shipped (diagnostic).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    fn serve(&self, payload: &Chain<IoBuf>) -> Chain<IoBuf> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut r = wire::WireReader::new(payload);
        let (Some(op), Some(path)) = (r.u8(), r.bytes16()) else {
            return refused();
        };
        let path = String::from_utf8_lossy(&path.contiguous()).into_owned();
        let mut resp = wire::WireWriter::op(1);
        match op {
            OP_WRITE => {
                let mut data = r.tail().into_chain();
                data.compact_if_amplified(0, WRITE_COMPACT_FACTOR);
                self.files.lock().insert(path, data);
            }
            OP_READ | OP_STAT => {
                let files = self.files.lock();
                let Some(data) = files.get(&path) else {
                    return refused();
                };
                if op == OP_READ {
                    resp.tail_chain(data);
                } else {
                    resp.u64(data.len() as u64);
                }
            }
            _ => return refused(),
        }
        resp.finish()
    }
}

/// The reply to a request that cannot be served (malformed, unknown
/// op, missing file).
fn refused() -> Chain<IoBuf> {
    wire::WireWriter::op(0).finish()
}

/// The well-known [`EbbRef`] of the filesystem — the same ref, and the
/// same call sites, on the hosted machine and on every native one.
pub fn fs_ref() -> EbbRef<FsEbb> {
    EbbRef::well_known(SystemEbb::Fs)
}

/// A representative of the FileSystem Ebb.
pub enum FsEbb {
    /// On the owner: serves the filesystem in place.
    Hosted(Arc<FsServer>),
    /// Everywhere else: every operation is one function ship.
    Native(RemoteShipper),
}

impl MulticoreEbb for FsEbb {
    type Root = FsServer;

    fn create_rep(root: &Arc<FsServer>, _: CoreId) -> Self {
        FsEbb::Hosted(Arc::clone(root))
    }

    /// Proxy-capable: a machine that holds no root reaches the owner
    /// through its installed transport.
    fn handle_fault(ebbs: &EbbManager, id: EbbId, core: CoreId) -> Self {
        match ebbs.root::<Self>(id) {
            Some(root) => Self::create_rep(&root, core),
            None => FsEbb::Native(ebbs.shipper(core, id)),
        }
    }
}

impl DistributedEbb for FsEbb {
    fn handle_remote(&self, payload: Chain<IoBuf>, respond: impl FnOnce(Chain<IoBuf>) + 'static) {
        match self {
            FsEbb::Hosted(server) => respond(server.serve(&payload)),
            // Only the owner exports the id.
            FsEbb::Native(_) => respond(refused()),
        }
    }
}

impl FsEbb {
    fn call(
        &self,
        op: u8,
        path: &str,
        extra: &[u8],
        reply: impl FnOnce(Option<Chain<IoBuf>>) + 'static,
    ) {
        let mut req = wire::WireWriter::op(op);
        req.bytes16(path.as_bytes()).tail(extra);
        match self {
            FsEbb::Hosted(server) => reply(Some(server.serve(&req.finish()))),
            FsEbb::Native(shipper) => shipper.call(req.finish(), move |r| reply(r.ok())),
        }
    }

    /// Reads a file; `done(None)` on missing files (or a failed ship).
    pub fn read(&self, path: &str, done: impl FnOnce(Option<Vec<u8>>) + 'static) {
        self.call(OP_READ, path, &[], move |resp| {
            done(resp.and_then(|resp| {
                let mut r = wire::WireReader::new(&resp);
                (r.u8() == Some(1)).then(|| r.tail().contiguous().into_owned())
            }))
        });
    }

    /// Writes a file; `done` runs on acknowledgment (`false` on a
    /// failed ship).
    pub fn write(&self, path: &str, data: &[u8], done: impl FnOnce(bool) + 'static) {
        self.call(OP_WRITE, path, data, move |resp| {
            done(resp.is_some_and(|r| r.cursor().read_u8() == Some(1)))
        });
    }

    /// Returns the file size, or `None` if missing.
    pub fn stat(&self, path: &str, done: impl FnOnce(Option<u64>) + 'static) {
        self.call(OP_STAT, path, &[], move |resp| {
            done(resp.and_then(|resp| {
                let mut r = wire::WireReader::new(&resp);
                (r.u8() == Some(1)).then(|| r.u64()).flatten()
            }))
        });
    }
}

/// A read-caching native representative — the optimization the paper's
/// naïve port leaves on the table. Reads hit the local cache after
/// first access; writes invalidate and write through the machine's
/// [`FsEbb`].
#[derive(Default)]
pub struct CachingFsClient {
    cache: RefCell<HashMap<String, Vec<u8>>>,
    /// Cache hits (diagnostic).
    pub hits: Cell<u64>,
}

impl CachingFsClient {
    /// Reads through the cache.
    pub fn read(self: &Rc<Self>, path: &str, done: impl FnOnce(Option<Vec<u8>>) + 'static) {
        if let Some(data) = self.cache.borrow().get(path) {
            self.hits.set(self.hits.get() + 1);
            done(Some(data.clone()));
            return;
        }
        let me = Rc::clone(self);
        let key = path.to_string();
        fs_ref().with(|fs| {
            fs.read(path, move |result| {
                if let Some(data) = &result {
                    me.cache.borrow_mut().insert(key, data.clone());
                }
                done(result);
            })
        });
    }

    /// Write-through with invalidation.
    pub fn write(&self, path: &str, data: &[u8], done: impl FnOnce(bool) + 'static) {
        self.cache.borrow_mut().remove(path);
        fs_ref().with(|fs| fs.write(path, data, done));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_map::GlobalIdMap;
    use crate::remote::MessengerTransport;
    use ebbrt_net::types::Ipv4Addr;
    use ebbrt_net::Lan;
    use ebbrt_sim::{CostProfile, SimMachine, SimWorld, Switch};

    struct Setup {
        w: Rc<SimWorld>,
        sw: Rc<Switch>,
        hosted: Rc<SimMachine>,
        native: Rc<SimMachine>,
        h_msgr: Rc<Messenger>,
        transport: Rc<MessengerTransport>,
        server: Arc<FsServer>,
    }

    /// A hosted machine owning the filesystem and a two-core native
    /// machine booted with its address.
    fn setup() -> Setup {
        let lan = Lan::new();
        let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
        let (hosted, h_if) =
            lan.machine("hosted", 1, CostProfile::linux_vm(), [0x01; 6], hosted_ip);
        let (native, n_if) = lan.machine(
            "native",
            2,
            CostProfile::ebbrt_vm(),
            [0x02; 6],
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let (w, sw) = (lan.world, lan.switch);
        w.run_to_idle();
        let h_msgr = Messenger::start(&h_if);
        let n_msgr = Messenger::start(&n_if);
        let server = FsServer::start(&h_msgr);
        let transport = MessengerTransport::install(&n_msgr, GlobalIdMap::new(&n_msgr, hosted_ip));
        transport.preset_owner(FS_EBB_ID, hosted_ip);
        Setup {
            w,
            sw,
            hosted,
            native,
            h_msgr,
            transport,
            server,
        }
    }

    /// What one write → read → stat → read-missing sequence saw.
    #[derive(Default, Debug, PartialEq)]
    struct Seen {
        wrote: Cell<Option<bool>>,
        read: RefCell<Option<Option<Vec<u8>>>>,
        size: Cell<Option<Option<u64>>>,
        missing: RefCell<Option<Option<Vec<u8>>>>,
    }

    /// The one call site of the contract: identical source on the
    /// hosted machine and on a native one.
    fn exercise(seen: Rc<Seen>) {
        let s = Rc::clone(&seen);
        fs_ref().with(|fs| {
            fs.write("/etc/config", b"key=value", move |ok| {
                s.wrote.set(Some(ok));
                let s2 = Rc::clone(&s);
                fs_ref()
                    .with(|fs| fs.read("/etc/config", move |d| *s2.read.borrow_mut() = Some(d)));
                let s3 = Rc::clone(&s);
                fs_ref().with(|fs| fs.stat("/etc/config", move |n| s3.size.set(Some(n))));
                fs_ref().with(|fs| fs.read("/nope", move |d| *s.missing.borrow_mut() = Some(d)));
            })
        });
    }

    fn assert_served(seen: &Seen) {
        assert_eq!(seen.wrote.get(), Some(true));
        assert_eq!(*seen.read.borrow(), Some(Some(b"key=value".to_vec())));
        assert_eq!(seen.size.get(), Some(Some(9)));
        assert_eq!(*seen.missing.borrow(), Some(None), "a missing file is None");
    }

    #[test]
    fn the_same_call_site_is_answered_in_place_on_the_hosted_machine() {
        let s = setup();
        let seen = Rc::new(Seen::default());
        let dispatched = s.h_msgr.dispatched.get();
        s.hosted.spawn_local(CoreId(0), {
            let seen = Rc::clone(&seen);
            move || exercise(seen)
        });
        s.w.run_to_idle();
        assert_served(&seen);
        assert_eq!(s.server.requests(), 4);
        assert_eq!(
            s.h_msgr.dispatched.get(),
            dispatched,
            "the owner's rep serves in place: nothing crossed the messenger"
        );
        assert_eq!(s.transport.shipped.get(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        // The native flavor: the first call on a core faults a proxy in
        // through the installed transport; every operation after that
        // is one function ship.
        let s = setup();
        let ebbs = s.native.runtime().ebbs();
        assert!(!ebbs.has_rep(FS_EBB_ID, CoreId(0)));
        let seen = Rc::new(Seen::default());
        s.native.spawn_local(CoreId(0), {
            let seen = Rc::clone(&seen);
            move || exercise(seen)
        });
        s.w.run_to_idle();
        assert_served(&seen);
        assert!(ebbs.has_rep(FS_EBB_ID, CoreId(0)), "proxy installed");
        assert!(
            !ebbs.has_rep(FS_EBB_ID, CoreId(1)),
            "per core, on first use"
        );
        assert_eq!(s.transport.shipped.get(), 4, "one RPC per operation");
        assert_eq!(s.server.requests(), 4);
        assert!(
            ebbs.root::<FsEbb>(FS_EBB_ID).is_none(),
            "a native machine holds no filesystem root"
        );
        // The other core faults its own proxy; the first core's stays.
        let again = Rc::new(Seen::default());
        s.native.spawn_local(CoreId(1), {
            let again = Rc::clone(&again);
            move || exercise(again)
        });
        s.w.run_to_idle();
        assert_served(&again);
        assert!(ebbs.has_rep(FS_EBB_ID, CoreId(1)));
        assert_eq!(s.transport.shipped.get(), 8);
    }

    #[test]
    fn stat_and_missing_file() {
        let s = setup();
        s.server.put("/data/blob", vec![7; 1234]);
        let size = Rc::new(Cell::new(None));
        let missing = Rc::new(Cell::new(false));
        let (s2, m2) = (Rc::clone(&size), Rc::clone(&missing));
        s.native.spawn_local(CoreId(0), move || {
            fs_ref().with(|fs| {
                fs.stat("/data/blob", move |s| s2.set(s));
                fs.stat("/nope", move |d| m2.set(d.is_none()));
            })
        });
        s.w.run_to_idle();
        assert_eq!(size.get(), Some(1234));
        assert!(missing.get());
    }

    #[test]
    fn a_dead_owner_resolves_to_none_and_false() {
        // The hosted machine drops off the network: every operation
        // still completes — `None` / `false` once the transport's retry
        // budget is spent — and the preset owner survives, so the
        // filesystem is reachable again when the machine is.
        let s = setup();
        s.server.put("/data/blob", vec![7; 10]);
        s.transport.set_timeout(2_000_000);
        s.sw.isolate(0);
        let seen = Rc::new(Seen::default());
        s.native.spawn_local(CoreId(0), {
            let seen = Rc::clone(&seen);
            move || {
                let s = Rc::clone(&seen);
                fs_ref().with(|fs| {
                    fs.write("/data/blob", b"x", move |ok| s.wrote.set(Some(ok)));
                    let s = Rc::clone(&seen);
                    fs.read("/data/blob", move |d| *s.read.borrow_mut() = Some(d));
                    fs.stat("/data/blob", move |n| seen.size.set(Some(n)));
                })
            }
        });
        s.w.run_to_idle();
        assert_eq!(seen.wrote.get(), Some(false));
        assert_eq!(*seen.read.borrow(), Some(None));
        assert_eq!(seen.size.get(), Some(None));
        assert_eq!(s.server.requests(), 0);
        assert_eq!(
            s.transport.resolved_primary(FS_EBB_ID),
            Some(Ipv4Addr::new(10, 0, 0, 1))
        );

        s.sw.restore(0);
        let size = Rc::new(Cell::new(None));
        let s2 = Rc::clone(&size);
        s.native.spawn_local(CoreId(0), move || {
            fs_ref().with(|fs| fs.stat("/data/blob", move |n| s2.set(n)))
        });
        s.w.run_to_idle();
        assert_eq!(size.get(), Some(10), "the configured owner is retried");
    }

    #[test]
    fn caching_client_avoids_round_trips() {
        let s = setup();
        s.server
            .put("/lib/startup.js", b"console.log('hi')".to_vec());
        let caching = Rc::new(CachingFsClient::default());
        let reads = Rc::new(Cell::new(0));
        let r2 = Rc::clone(&reads);
        let c0 = Rc::clone(&caching);
        s.native.spawn_local(CoreId(0), move || {
            // Three reads of the same path, chained sequentially so the
            // cache is populated before the repeats.
            let c1 = Rc::clone(&c0);
            c0.read("/lib/startup.js", move |d| {
                assert!(d.is_some());
                r2.set(r2.get() + 1);
                let c2 = Rc::clone(&c1);
                c1.read("/lib/startup.js", move |d| {
                    assert!(d.is_some());
                    r2.set(r2.get() + 1);
                    c2.read("/lib/startup.js", move |d| {
                        assert!(d.is_some());
                        r2.set(r2.get() + 1);
                    });
                });
            });
        });
        s.w.run_to_idle();
        assert_eq!(reads.get(), 3);
        assert_eq!(s.server.requests(), 1, "only the first read goes remote");
        assert_eq!(caching.hits.get(), 2);
    }
}
