//! The vectorized dataplane, measured: per-burst vs per-packet
//! receive processing over the same pipelined memcached workload.
//!
//! The driver's burst size is forced per machine via
//! [`CostProfile::rx_burst_frames`]: `1` routes every frame
//! through the vector path one at a time (the per-packet baseline —
//! same code, no amortization), larger values let the driver hand the
//! stack whole bursts, which the stack turns into per-PCB runs: one
//! PCB borrow, one coalesced `on_receive`, and one ACK decision per
//! connection per pass instead of per segment.
//!
//! The workload keeps a deep pipeline of GETs outstanding so the
//! server's NIC queue actually accumulates frames between drains —
//! burst processing with no queue depth is just per-packet with extra
//! steps. Reported `pps` is requests per *virtual* second (the
//! simulation's deterministic cost model), so the CI gate cannot flake
//! on a noisy runner; wall-clock time is reported alongside as the
//! host-side cost of executing the same pass structure.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use ebbrt_apps::memcached::{self, Client};
use ebbrt_core::cpu::CoreId;
use ebbrt_core::iobuf::IoBuf;
use ebbrt_net::netif::BURST_BUCKET_LO;
use ebbrt_net::types::Ipv4Addr;
use ebbrt_sim::{CostProfile, Lan};

use crate::script::GetLoop;

/// Bytes in the benched value.
const VALUE_LEN: usize = 512;
/// Outstanding requests kept in flight (pipeline depth). Deep enough
/// that the server sees real queue depth at every drain.
const PIPELINE: u32 = 32;
/// Responses consumed before measurement starts.
const WARMUP_GETS: u32 = 128;
/// Measured responses.
const STEADY_GETS: u32 = 2048;

/// One mode's results.
pub struct BurstReport {
    /// Driver burst size the run was forced to.
    pub burst_frames: usize,
    /// Measured requests.
    pub requests: u32,
    /// Virtual time the measured phase took.
    pub virtual_ns: u64,
    /// Requests per virtual second — the deterministic figure of merit.
    pub pps: f64,
    /// Host wall-clock for the measured phase (indicative, noisy).
    pub wall_ns: u64,
    /// Server-side receive bursts over the whole run.
    pub rx_bursts: u64,
    /// Server-side frames received over the whole run.
    pub rx_frames: u64,
    /// Largest burst-size bucket the server actually saw.
    pub max_burst_seen: usize,
    /// `on_receive` deliveries (both sides) that coalesced 2+ segments.
    pub coalesced_callbacks: u64,
}

/// Mean frames per server-side burst — the amortization the traffic
/// offered.
impl BurstReport {
    pub fn frames_per_burst(&self) -> f64 {
        self.rx_frames as f64 / self.rx_bursts.max(1) as f64
    }
}

/// Runs the pipelined GET workload with the driver forced to
/// `burst_frames` per receive burst.
pub fn run(burst_frames: usize) -> BurstReport {
    let lan = Lan::new();
    let w = &lan.world;
    let vm = || CostProfile {
        rx_burst_frames: burst_frames,
        ..CostProfile::ebbrt_vm()
    };
    let server_ip = Ipv4Addr::new(10, 0, 0, 1);
    let (server, s_if) = lan.machine("server", 1, vm(), [0xAA; 6], server_ip);
    let (client, c_if) = lan.machine("client", 1, vm(), [0xBB; 6], Ipv4Addr::new(10, 0, 0, 2));
    w.run_to_idle();

    let store = memcached::serve_on(&server);
    store.insert_raw(b"bench_key".to_vec(), IoBuf::copy_from(&[0xAB; VALUE_LEN]));
    w.run_to_idle();

    // Wall clock across the measured phase: started at its first edge,
    // read at its second.
    let wall = Rc::new(Cell::new((Instant::now(), 0u64)));
    let wall2 = Rc::clone(&wall);
    let pipe = GetLoop::new(
        b"bench_key",
        PIPELINE,
        WARMUP_GETS,
        STEADY_GETS,
        move |start| {
            let started = wall2.get().0;
            wall2.set(match start {
                true => (Instant::now(), 0),
                false => (started, started.elapsed().as_nanos() as u64),
            });
        },
    );
    let conn = Client::spawn(&client, CoreId(0), server_ip, pipe);
    w.run_to_idle();
    let handler = &conn.workload;
    assert_eq!(handler.remaining.get(), 0, "workload did not complete");

    let virtual_ns = handler.steady_ns[1].get() - handler.steady_ns[0].get();
    let max_burst_seen = s_if
        .frames_per_burst()
        .iter()
        .enumerate()
        .rev()
        .find(|(_, c)| **c > 0)
        .map_or(0, |(i, _)| BURST_BUCKET_LO[i]);
    BurstReport {
        burst_frames,
        requests: STEADY_GETS,
        virtual_ns,
        pps: STEADY_GETS as f64 / (virtual_ns as f64 / 1e9),
        wall_ns: wall.get().1,
        rx_bursts: s_if.rx_bursts(),
        rx_frames: s_if.stats.rx_frames.get(),
        max_burst_seen,
        coalesced_callbacks: s_if.coalesced_callbacks() + c_if.coalesced_callbacks(),
    }
}

/// One table row. Every column but the last is virtual time or a
/// count, deterministic for the build; `wall ms` is host wall-clock.
pub fn format_report(r: &BurstReport) -> String {
    format!(
        "{:>6} {:>12.0} {:>12.1} {:>10} {:>11.1} {:>10} {:>12.1}",
        r.burst_frames,
        r.pps,
        r.virtual_ns as f64 / r.requests as f64 / 1000.0,
        r.max_burst_seen,
        r.frames_per_burst(),
        r.coalesced_callbacks,
        r.wall_ns as f64 / 1_000_000.0,
    )
}

/// Header matching [`format_report`].
pub fn table_header() -> String {
    format!(
        "{:>6} {:>12} {:>12} {:>10} {:>11} {:>10} {:>12}",
        "burst", "pps(virt)", "us/req", "max seen", "frames/brst", "coalesced", "wall ms"
    )
}

/// The CI gate: vector processing must beat per-packet throughput and
/// must actually have amortized (real bursts, coalesced deliveries).
pub fn assert_beats_per_packet(per_packet: &BurstReport, per_burst: &BurstReport) {
    assert!(per_burst.burst_frames >= 8, "gate is for burst sizes >= 8");
    assert!(
        per_burst.pps > per_packet.pps,
        "per-burst ({} frames) must beat per-packet pps: {:.0} vs {:.0}",
        per_burst.burst_frames,
        per_burst.pps,
        per_packet.pps,
    );
    assert!(
        per_burst.max_burst_seen >= 8,
        "traffic never formed a real burst (max seen {}): the bench is not \
         exercising the vector path",
        per_burst.max_burst_seen,
    );
    assert!(
        per_burst.coalesced_callbacks > 0,
        "burst mode must coalesce multi-segment deliveries"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebbrt_net::driver::RX_BURST;

    /// The acceptance gate, in-tree: per-burst receive processing
    /// beats per-packet on the same pipelined workload at burst sizes
    /// 8 and the full ring.
    #[test]
    fn per_burst_beats_per_packet_at_8_and_full_ring() {
        let per_packet = run(1);
        println!("{}", table_header());
        println!("{}", format_report(&per_packet));
        for burst in [8, RX_BURST] {
            let r = run(burst);
            println!("{}", format_report(&r));
            assert_beats_per_packet(&per_packet, &r);
        }
    }
}
