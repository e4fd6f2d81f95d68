//! The fixed platform model every run uses, and the full stack built on it:
//! emulated PM device → NOVA → DeNova (daemon live) → `svc::Server` on
//! `127.0.0.1:0`, all in this process.

use crate::gen::{fill_page, FileModel, Model, Spec, PAGE};
use denova::{DedupMode, Denova};
use denova_nova::NovaOptions;
use denova_pmem::{LatencyProfile, PmemBuilder, PmemDevice};
use denova_svc::{Client, Server, SvcConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Printed in every report: what is modelled, as opposed to measured.
pub const PLATFORM_MODEL: &str = "LatencyProfile::optane() spin mode, FpThrottle paper target \
     (11.78 us/4 KiB), DedupMode::Immediate, dedup_workers 1, SvcConfig{shards 2, event_loops 1}, \
     mkfs and preload with latency off, TCP over 127.0.0.1";

fn nova_options(spec: &Spec) -> NovaOptions {
    NovaOptions {
        num_inodes: (spec.files as u64 + 64).next_power_of_two(),
        cpus: 2,
        dedup_workers: 1,
        ..Default::default()
    }
}

fn svc_config() -> SvcConfig {
    SvcConfig {
        shards: 2,
        event_loops: 1,
        ..Default::default()
    }
}

/// A formatted, mounted, preloaded and drained file system.
pub fn build_fs(spec: &Spec, seed: u64, mode: DedupMode) -> (Arc<Denova>, Model) {
    // Built with the Optane profile so the device publishes its spin
    // calibration, then switched off for mkfs and preload: neither is part
    // of any measurement except `setup_s`, which is about software.
    let dev = Arc::new(
        PmemBuilder::new(spec.device_bytes)
            .latency(LatencyProfile::optane())
            .build(),
    );
    dev.set_latency(LatencyProfile::none());
    let fs = Denova::mkfs(dev.clone(), nova_options(spec), mode).expect("mkfs");
    fs.fact().fp().set_paper_target();
    let mut model = Model { files: Vec::new() };
    let mut buf = Vec::new();
    for (i, content) in spec.preload(seed).into_iter().enumerate() {
        let name = format!("f{i:03}");
        let ino = fs.create(&name).expect("create");
        buf.resize(content.len() * PAGE, 0);
        let pages = content
            .iter()
            .zip(buf.chunks_exact_mut(PAGE))
            .map(|(&id, page)| fill_page(seed, id, page))
            .collect();
        if !buf.is_empty() {
            fs.write(ino, 0, &buf).expect("preload write");
        }
        model.files.push(FileModel { name, ino, pages });
    }
    fs.drain();
    dev.set_latency(LatencyProfile::optane());
    (Arc::new(fs), model)
}

/// The `calibrate_spin()` result the device published, for the report.
pub fn spin_calibration_note(fs: &Denova) -> String {
    let gauge = "pmem.spin_calibration.spins_per_us";
    match fs.nova().device().metrics().snapshot().gauge(gauge) {
        Some(v) => format!("spin calibration: {v} spins/us"),
        None => format!("spin calibration: unavailable (gauge {gauge} is not registered)"),
    }
}

/// Remount options for the recovery measurements (same shape as mkfs).
pub fn mount_crash_image(dev: PmemDevice, spec: &Spec, mode: DedupMode) -> Denova {
    Denova::mount(Arc::new(dev), nova_options(spec), mode).expect("mount of crash image")
}

/// The served stack.
pub struct Stack {
    pub fs: Arc<Denova>,
    pub server: Arc<Server>,
    pub addr: String,
    serve: JoinHandle<std::io::Result<()>>,
}

impl Stack {
    pub fn start(fs: Arc<Denova>) -> Stack {
        let server = Arc::new(Server::new(fs.clone(), svc_config()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind 127.0.0.1:0");
        let addr = listener.local_addr().expect("local addr").to_string();
        let serve = {
            let server = server.clone();
            std::thread::Builder::new()
                .name("e2e-serve".into())
                .spawn(move || server.serve(listener))
                .expect("spawn serve thread")
        };
        Stack {
            fs,
            server,
            addr,
            serve,
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect to the in-process server")
    }

    /// Stop the server, join every thread it started and unmount.
    pub fn stop(self) {
        self.server.request_shutdown();
        self.serve
            .join()
            .expect("serve thread panicked")
            .expect("serve returned an error");
        let server = Arc::try_unwrap(self.server)
            .unwrap_or_else(|_| panic!("server still referenced at teardown"));
        drop(server.shutdown());
        if let Ok(fs) = Arc::try_unwrap(self.fs) {
            fs.unmount();
        }
    }
}
