//! The FileSystem Ebb: function offload from native to hosted (§4.3).
//!
//! "Rather than implement a file system and hard disk driver within the
//! EbbRT library OS, the Ebb offloaded calls to a representative
//! running in a Linux process. Our implementation of the FileSystem Ebb
//! is naïve, sending messages and incurring round trip costs for every
//! access rather than caching data on local representatives."
//!
//! [`FsServer`] is the hosted representative: an in-memory filesystem
//! served over the messenger. [`FsClient`] is the native
//! representative: every `read`/`write`/`stat` is one RPC round trip.
//! [`CachingFsClient`] adds the read cache the paper names as the
//! obvious future optimization, so the benefit can be measured (the
//! offload ablation bench).
//!
//! Since the distributed-Ebb PR this module carries **no RPC plumbing
//! of its own**: the server side is one [`remote::export_raw`]
//! registration, and the client ships requests through a direct
//! [`remote::MessengerTransport`] (owner preset to the configured
//! server — the fixed-server special case of the generic
//! remote-representative layer), inheriting its timeout and
//! failure-delivery semantics. Errors surface as `None`/`false`
//! through the existing callbacks. Files are kept as buffer chains, so
//! a read reply links the file's own descriptors and a written file is
//! a view of the request it arrived in (compacted when that view would
//! pin much more than it holds).
//!
//! Wire format: `op:u8 | path_len:u16 | path | args…`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ebbrt_core::ebb::{EbbId, RemoteTransport};
use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_net::types::Ipv4Addr;

use crate::messenger::Messenger;
use crate::remote::{self, wire, MessengerTransport};

/// Well-known Ebb id for the filesystem service (also its messenger
/// wire id — see [`ebbrt_core::ebb::SystemEbb::Fs`]).
pub const FS_EBB_ID: EbbId = ebbrt_core::ebb::SystemEbb::Fs.id();

const OP_READ: u8 = 1;
const OP_WRITE: u8 = 2;
const OP_STAT: u8 = 3;

/// A written file whose bytes are less than this fraction of the
/// buffer regions its view pins is copied into a buffer of its own.
const WRITE_COMPACT_FACTOR: usize = 4;

/// The hosted-side representative: serves the in-memory filesystem.
pub struct FsServer {
    files: RefCell<HashMap<String, Chain<IoBuf>>>,
    /// Requests served (diagnostic).
    pub requests: Cell<u64>,
}

impl FsServer {
    /// Starts serving over `messenger` — one owner-side registration
    /// through the generic remote layer.
    pub fn start(messenger: &Rc<Messenger>) -> Rc<FsServer> {
        let server = Rc::new(FsServer {
            files: RefCell::new(HashMap::new()),
            requests: Cell::new(0),
        });
        let s = Rc::clone(&server);
        remote::export_raw(messenger, FS_EBB_ID, move |payload| s.handle(payload));
        server
    }

    /// Pre-populates a file (test/setup convenience).
    pub fn put(&self, path: &str, data: Vec<u8>) {
        let data = Chain::single(MutIoBuf::from_vec(data).freeze());
        self.files.borrow_mut().insert(path.to_string(), data);
    }

    fn handle(&self, payload: &Chain<IoBuf>) -> Chain<IoBuf> {
        self.requests.set(self.requests.get() + 1);
        let refused = || wire::WireWriter::op(0).finish();
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
                self.files.borrow_mut().insert(path, data);
            }
            OP_READ | OP_STAT => {
                let files = self.files.borrow();
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

fn encode_request(op: u8, path: &str, extra: &[u8]) -> Chain<IoBuf> {
    let mut w = wire::WireWriter::op(op);
    w.bytes16(path.as_bytes()).tail(extra);
    w.finish()
}

/// The native-side representative: every operation is one function
/// ship through the remote layer's transport (owner preset to the
/// configured server).
pub struct FsClient {
    transport: Rc<MessengerTransport>,
    /// RPCs issued (diagnostic; the caching client issues fewer).
    pub rpcs: Cell<u64>,
}

impl FsClient {
    /// Creates a client forwarding to the server at `server`.
    pub fn new(messenger: &Rc<Messenger>, server: Ipv4Addr) -> Rc<FsClient> {
        let transport = MessengerTransport::direct(messenger);
        transport.preset_owner(FS_EBB_ID, server);
        Rc::new(FsClient {
            transport,
            rpcs: Cell::new(0),
        })
    }

    fn ship(&self, req: Chain<IoBuf>, reply: impl FnOnce(Option<Chain<IoBuf>>) + 'static) {
        self.rpcs.set(self.rpcs.get() + 1);
        self.transport
            .ship(FS_EBB_ID, req, Box::new(move |r| reply(r.ok())));
    }

    /// Reads a file; `done(None)` on missing files (or a failed ship).
    pub fn read(&self, path: &str, done: impl FnOnce(Option<Vec<u8>>) + 'static) {
        self.ship(encode_request(OP_READ, path, &[]), move |resp| {
            done(resp.as_ref().and_then(decode_read))
        });
    }

    /// Writes a file; `done` runs on acknowledgment (`false` on a
    /// failed ship).
    pub fn write(&self, path: &str, data: &[u8], done: impl FnOnce(bool) + 'static) {
        self.ship(encode_request(OP_WRITE, path, data), move |resp| {
            done(resp.is_some_and(|r| r.cursor().read_u8() == Some(1)))
        });
    }

    /// Returns the file size, or `None` if missing.
    pub fn stat(&self, path: &str, done: impl FnOnce(Option<u64>) + 'static) {
        self.ship(encode_request(OP_STAT, path, &[]), move |resp| match resp {
            Some(r) => {
                let mut cur = r.cursor();
                match cur.read_u8() {
                    Some(1) => done(cur.read_u64_be()),
                    _ => done(None),
                }
            }
            None => done(None),
        });
    }
}

fn decode_read(resp: &Chain<IoBuf>) -> Option<Vec<u8>> {
    let mut r = wire::WireReader::new(resp);
    (r.u8() == Some(1)).then(|| r.tail().contiguous().into_owned())
}

/// A read-caching native representative — the optimization the paper's
/// naïve port leaves on the table. Reads hit the local cache after
/// first access; writes invalidate and write through.
pub struct CachingFsClient {
    inner: Rc<FsClient>,
    cache: RefCell<HashMap<String, Vec<u8>>>,
    /// Cache hits (diagnostic).
    pub hits: Cell<u64>,
}

impl CachingFsClient {
    /// Wraps a plain client.
    pub fn new(inner: Rc<FsClient>) -> Rc<CachingFsClient> {
        Rc::new(CachingFsClient {
            inner,
            cache: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
        })
    }

    /// Reads through the cache.
    pub fn read(self: &Rc<Self>, path: &str, done: impl FnOnce(Option<Vec<u8>>) + 'static) {
        if let Some(data) = self.cache.borrow().get(path) {
            self.hits.set(self.hits.get() + 1);
            done(Some(data.clone()));
            return;
        }
        let me = Rc::clone(self);
        let key = path.to_string();
        self.inner.read(path, move |result| {
            if let Some(data) = &result {
                me.cache.borrow_mut().insert(key, data.clone());
            }
            done(result);
        });
    }

    /// Write-through with invalidation.
    pub fn write(self: &Rc<Self>, path: &str, data: &[u8], done: impl FnOnce(bool) + 'static) {
        self.cache.borrow_mut().remove(path);
        self.inner.write(path, data, done);
    }

    /// RPCs issued by the underlying client.
    pub fn rpcs(&self) -> u64 {
        self.inner.rpcs.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbrt_net::Lan;
    use ebbrt_sim::{CostProfile, SimMachine, SimWorld, Switch};

    use crate::on_core0;
    type Setup = (
        Rc<SimWorld>,
        Rc<Switch>,
        Rc<SimMachine>,
        Rc<FsServer>,
        Rc<FsClient>,
    );

    fn setup() -> Setup {
        let lan = Lan::new();
        let vm = CostProfile::ebbrt_vm;
        let linux = CostProfile::linux_vm;
        let hosted_ip = Ipv4Addr::new(10, 0, 0, 1);
        let (_hosted, h_if) = lan.machine("hosted", 1, linux(), [0x01; 6], hosted_ip);
        let (native, n_if) = lan.machine("native", 1, vm(), [0x02; 6], Ipv4Addr::new(10, 0, 0, 2));
        let (w, sw) = (lan.world, lan.switch);
        w.run_to_idle();
        let h_msgr = Messenger::start(&h_if);
        let n_msgr = Messenger::start(&n_if);
        let server = FsServer::start(&h_msgr);
        let client = FsClient::new(&n_msgr, hosted_ip);
        (w, sw, native, server, client)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (w, _sw, native, server, client) = setup();
        let got = Rc::new(RefCell::new(None));
        let g2 = Rc::clone(&got);
        on_core0(&native, client, move |client| {
            let c2 = Rc::clone(&client);
            client.write("/etc/config", b"key=value", move |ok| {
                assert!(ok);
                c2.read("/etc/config", move |data| {
                    *g2.borrow_mut() = data;
                });
            });
        });
        w.run_to_idle();
        assert_eq!(got.borrow().as_deref(), Some(b"key=value".as_slice()));
        assert_eq!(server.requests.get(), 2, "one write + one read RPC");
    }

    #[test]
    fn stat_and_missing_file() {
        let (w, _sw, native, server, client) = setup();
        server.put("/data/blob", vec![7; 1234]);
        let size = Rc::new(Cell::new(None));
        let missing = Rc::new(Cell::new(false));
        let (s2, m2) = (Rc::clone(&size), Rc::clone(&missing));
        on_core0(&native, client, move |client| {
            let c2 = Rc::clone(&client);
            client.stat("/data/blob", move |s| s2.set(s));
            c2.read("/nope", move |d| m2.set(d.is_none()));
        });
        w.run_to_idle();
        assert_eq!(size.get(), Some(1234));
        assert!(missing.get());
    }

    #[test]
    fn caching_client_avoids_round_trips() {
        let (w, _sw, native, server, client) = setup();
        server.put("/lib/startup.js", b"console.log('hi')".to_vec());
        let caching = CachingFsClient::new(client);
        let reads = Rc::new(Cell::new(0));
        let r2 = Rc::clone(&reads);
        on_core0(&native, Rc::clone(&caching), move |caching| {
            // Three reads of the same path, chained sequentially so the
            // cache is populated before the repeats.
            let c1 = Rc::clone(&caching);
            let r1 = Rc::clone(&r2);
            caching.read("/lib/startup.js", move |d| {
                assert!(d.is_some());
                r1.set(r1.get() + 1);
                let c2 = Rc::clone(&c1);
                let r2 = Rc::clone(&r1);
                c1.read("/lib/startup.js", move |d| {
                    assert!(d.is_some());
                    r2.set(r2.get() + 1);
                    let r3 = Rc::clone(&r2);
                    c2.read("/lib/startup.js", move |d| {
                        assert!(d.is_some());
                        r3.set(r3.get() + 1);
                    });
                });
            });
        });
        w.run_to_idle();
        assert_eq!(reads.get(), 3);
        assert_eq!(server.requests.get(), 1, "only the first read goes remote");
        assert_eq!(caching.hits.get(), 2);
    }
}
