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
use std::sync::{Arc, Mutex};

use ebbrt_core::cpu::CoreId;
use ebbrt_core::ebb::{
    DistributedEbb, EbbId, EbbManager, EbbRef, MulticoreEbb, RemoteShipper, SystemEbb,
};
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};

use crate::messenger::Messenger;
use crate::remote::{self, wire};

/// Well-known Ebb id for the filesystem service (also its messenger
/// wire id — see [`SystemEbb::Fs`]).
pub const FS_EBB_ID: EbbId = SystemEbb::Fs.id();

const OP_READ: u8 = 1;
const OP_WRITE: u8 = 2;
const OP_STAT: u8 = 3;

/// The FileSystem Ebb's root: the hosted machine's in-memory
/// filesystem.
pub struct FsServer {
    files: Mutex<HashMap<String, Chain<IoBuf>>>,
    requests: AtomicU64,
}

impl FsServer {
    /// Makes `messenger`'s machine the filesystem's owner: registers
    /// the root under [`SystemEbb::Fs`] and exports it, so local calls
    /// are served in place and other machines' proxies are answered
    /// over `messenger`.
    pub fn start(messenger: &Rc<Messenger>) -> Arc<FsServer> {
        let server = Arc::new(FsServer {
            files: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
        });
        let rt = messenger.netif().runtime();
        rt.ebbs()
            .register_root_arc::<FsEbb>(FS_EBB_ID, Arc::clone(&server));
        remote::export(messenger, fs_ref());
        server
    }

    /// Pre-populates a file (test/setup convenience).
    pub fn put(&self, path: &str, data: Vec<u8>) {
        let data = Chain::single(MutIoBuf::from_vec(data).freeze());
        ebbrt_core::lock(&self.files).insert(path.to_string(), data);
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
                data.compact_if_amplified();
                ebbrt_core::lock(&self.files).insert(path, data);
            }
            OP_READ | OP_STAT => {
                let files = ebbrt_core::lock(&self.files);
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
mod tests;
