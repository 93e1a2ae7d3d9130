//! # ebbrt-bench — the benchmark harness
//!
//! One `repro_*` binary per table/figure of the paper plus Criterion
//! microbenchmarks. The library hosts the workload harnesses and
//! shared output helpers; each harness has one runner that gates it in
//! CI, listed in docs/ARCHITECTURE.md. The single-server harnesses
//! drive [`ebbrt_apps::memcached::ClosedLoop`] and own its phases (kick,
//! run to idle, read); [`script`] holds the cluster harness's scripted
//! client.

#![forbid(unsafe_code)]

pub mod burst_path;
pub mod chaos;
pub mod conn_scale;
pub mod dispatch;
pub mod dist_memcached;
pub mod fig3;
pub mod overload;
pub mod rss_sweep;
pub mod script;

/// Writes a CSV under `target/repro/`, creating the directory.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target/repro");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut contents = String::from(header);
    contents.push('\n');
    for r in rows {
        contents.push_str(r);
        contents.push('\n');
    }
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// The latency-vs-throughput sweep behind Figures 5 and 6: every
/// system at every offered load (stopping a system's sweep once its
/// curve has gone vertical), printed as a table and written to
/// `target/repro/<fig>.csv`.
pub fn load_sweep(
    fig: &str,
    systems: &[(&str, ebbrt_sim::CostProfile)],
    loads: &[u64],
    config: impl Fn(&ebbrt_sim::CostProfile, u64) -> ebbrt_apps::mutilate::ExperimentConfig,
) {
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>10}",
        "system", "offered", "achieved", "mean_us", "p99_us"
    );
    let mut rows = Vec::new();
    for (name, profile) in systems {
        for &load in loads {
            let s = ebbrt_apps::mutilate::run(&config(profile, load));
            println!(
                "{:<12} {:>10} {:>12.0} {:>10.1} {:>10.1}",
                name, load, s.achieved_rps, s.mean_us, s.p99_us
            );
            rows.push(format!(
                "{},{},{:.0},{:.1},{:.1}",
                name, load, s.achieved_rps, s.mean_us, s.p99_us
            ));
            if s.p99_us > 1500.0 {
                break;
            }
        }
    }
    let header = "system,offered_rps,achieved_rps,mean_us,p99_us";
    let path = write_csv(&format!("{fig}.csv"), header, &rows).expect("write csv");
    println!("wrote {}", path.display());
}
