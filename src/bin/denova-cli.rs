//! `denova-cli` — operate a DeNova file system stored in a device-image
//! file.
//!
//! The emulated PM device persists across invocations as a host file
//! (`PmemDevice::save_image`/`load_image`), so the CLI behaves like a real
//! disk tool:
//!
//! ```text
//! denova-cli fs.img mkfs --size 64M
//! denova-cli fs.img put  report.pdf /tmp/report.pdf
//! denova-cli fs.img put  copy.pdf   /tmp/report.pdf     # deduplicated
//! denova-cli fs.img ls
//! denova-cli fs.img df                                  # space + dedup stats
//! denova-cli fs.img get  report.pdf /tmp/back.pdf
//! denova-cli fs.img mv   copy.pdf archive.pdf
//! denova-cli fs.img rm   archive.pdf
//! denova-cli fs.img fsck
//! denova-cli fs.img stats                               # telemetry snapshot
//! ```
//!
//! The same image can be **served** to remote clients over TCP, with every
//! other command able to run against the server instead of a local image:
//!
//! ```text
//! denova-cli fs.img serve --listen 127.0.0.1:7070 &     # prints "listening on ..."
//! denova-cli --remote 127.0.0.1:7070 put report.pdf /tmp/report.pdf
//! denova-cli --remote 127.0.0.1:7070 ls
//! denova-cli --remote 127.0.0.1:7070 stats --json       # server-side telemetry
//! denova-cli --remote 127.0.0.1:7070 shutdown           # drain + save image
//! ```
//!
//! Setting `DENOVA_TELEMETRY=1` turns span/event collection on for any
//! command and dumps a telemetry snapshot to stderr when it finishes
//! (counters are always collected; the variable only adds latency
//! histograms and the event ring).

use denova_repro::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: denova-cli <image> <command> [args]\n\
         \x20      denova-cli --remote <host:port> <command> [args]\n\
         commands:\n\
         \x20 mkfs --size <N[K|M|G]>        format a new image (local only)\n\
         \x20 put <name> <hostfile>         copy a host file in\n\
         \x20 get <name> <hostfile>         copy a file out\n\
         \x20 cat <name>                    print a file to stdout\n\
         \x20 ls                            list files\n\
         \x20 rm <name>                     remove a file\n\
         \x20 ln <existing> <new>           hard-link under a new name\n\
         \x20 mv <from> <to>                rename (clobbers target)\n\
         \x20 stat <name>                   file metadata\n\
         \x20 df                            space + dedup statistics\n\
         \x20 fsck                          consistency check (local only)\n\
         \x20 scrub                         reconcile FACT reference counts (local only)\n\
         \x20 stats [--json]                telemetry snapshot (probe locally,\n\
         \x20                               fetch live metrics when --remote)\n\
         \x20 serve [--listen <host:port>] [--shards <n>] [--loops <n>]\n\
         \x20                               serve the image over TCP (local only).\n\
         \x20                               Connections ride the epoll event loops\n\
         \x20                               (--loops, default one per core).\n\
         \x20 shutdown                      drain and stop a served image (remote only)\n\
         options (any local command, including serve):\n\
         \x20 --dedup-workers <n>           dedup worker threads for the mount (default 1)\n\
         options (any remote command):\n\
         \x20 --tenant <name>               account + fair-schedule this client's\n\
         \x20                               requests under the named tenant\n\
         env:\n\
         \x20 DENOVA_TELEMETRY=1            collect spans/events in any command\n\
         \x20                               and dump a snapshot to stderr"
    );
    std::process::exit(2);
}

fn parse_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

/// Whether `DENOVA_TELEMETRY` asks for span/event collection (any value but
/// empty or `0`).
fn telemetry_env_on() -> bool {
    std::env::var("DENOVA_TELEMETRY")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

fn open_fs(image: &Path, dedup_workers: usize) -> Result<Denova, String> {
    let dev = PmemDevice::load_image(image, LatencyProfile::none())
        .map_err(|e| format!("cannot read image {}: {e}", image.display()))?;
    let opts = NovaOptions {
        dedup_workers,
        ..Default::default()
    };
    mount_reporting(Arc::new(dev), opts)
        .map_err(|e| format!("mount failed: {e} (is {} formatted?)", image.display()))
}

/// Mount `dev`, with span/event collection on *before* the mount when
/// `DENOVA_TELEMETRY` asks for it (so recovery's phases are recorded), and
/// say on stderr what dedup recovery did if this was a crash mount.
fn mount_reporting(dev: Arc<PmemDevice>, opts: NovaOptions) -> denova_nova::Result<Denova> {
    if telemetry_env_on() {
        dev.metrics().set_enabled(true);
    }
    let fs = Denova::mount(dev, opts, DedupMode::Immediate)?;
    if let Some(report) = fs.last_recovery() {
        eprint!("crash mount: {report}");
    }
    Ok(fs)
}

fn close_fs(fs: Denova, image: &Path) -> Result<(), String> {
    fs.drain();
    let dev = fs.nova().device().clone();
    fs.unmount();
    if telemetry_env_on() {
        // Stderr, so piped stdout (`cat`, `get`) stays clean.
        eprintln!("{}", dev.metrics().snapshot().to_text());
    }
    dev.save_image(image)
        .map_err(|e| format!("cannot write image: {e}"))
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--dedup-workers <n>` may appear anywhere; it configures the local
    // mount (and thus `serve`) and is stripped before command dispatch.
    let mut dedup_workers = 1usize;
    if let Some(i) = args.iter().position(|a| a == "--dedup-workers") {
        let n = args.get(i + 1).cloned().unwrap_or_default();
        dedup_workers = n
            .parse()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("bad --dedup-workers '{n}'"))?;
        args.drain(i..i + 2);
    }
    // `--tenant <name>` tags every remote connection via the wire hello,
    // so the server accounts and fair-schedules this client's requests
    // under that tenant.
    let mut tenant: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--tenant") {
        tenant = Some(
            args.get(i + 1)
                .cloned()
                .filter(|t| !t.is_empty())
                .ok_or("--tenant needs a name")?,
        );
        args.drain(i..i + 2);
    }
    if args.len() < 2 {
        usage();
    }
    if args[0] == "--remote" {
        if args.len() < 3 {
            usage();
        }
        return run_remote(&args[1], args[2].as_str(), &args[3..], tenant.as_deref());
    }
    let image = PathBuf::from(&args[0]);
    let cmd = args[1].as_str();
    let rest = &args[2..];

    match (cmd, rest) {
        ("mkfs", _) => {
            let size = match rest {
                [flag, sz] if flag == "--size" => {
                    parse_size(sz).ok_or_else(|| format!("bad size '{sz}'"))?
                }
                [] => 64 * 1024 * 1024,
                _ => usage(),
            };
            let dev = Arc::new(PmemDevice::new(size));
            let opts = NovaOptions {
                dedup_workers,
                ..Default::default()
            };
            let fs = Denova::mkfs(dev, opts, DedupMode::Immediate)
                .map_err(|e| format!("mkfs failed: {e}"))?;
            if telemetry_env_on() {
                fs.nova().device().metrics().set_enabled(true);
            }
            println!(
                "formatted {} ({} MB, FACT {} entries, n = {})",
                image.display(),
                size / (1 << 20),
                fs.fact().entries(),
                fs.fact().prefix_bits()
            );
            close_fs(fs, &image)
        }
        ("put", [name, host]) => {
            let data = std::fs::read(host).map_err(|e| format!("read {host}: {e}"))?;
            let fs = open_fs(&image, dedup_workers)?;
            let ino = match fs.open(name) {
                Ok(ino) => ino,
                Err(_) => fs.create(name).map_err(|e| e.to_string())?,
            };
            // Overwrite in place, then commit the new size: a shorter upload
            // over a longer file must not leave stale tail bytes, and writing
            // before truncating means a crash mid-put can never expose a
            // zero-length file where the old content used to be.
            fs.write(ino, 0, &data).map_err(|e| e.to_string())?;
            fs.truncate(ino, data.len() as u64)
                .map_err(|e| e.to_string())?;
            fs.drain();
            println!(
                "{name}: {} bytes ({} saved by dedup so far)",
                data.len(),
                fs.bytes_saved()
            );
            close_fs(fs, &image)
        }
        ("get", [name, host]) => {
            let fs = open_fs(&image, dedup_workers)?;
            let ino = fs.open(name).map_err(|e| e.to_string())?;
            let size = fs.file_size(ino).map_err(|e| e.to_string())?;
            let data = fs.read(ino, 0, size as usize).map_err(|e| e.to_string())?;
            std::fs::write(host, &data).map_err(|e| format!("write {host}: {e}"))?;
            println!("{name}: {} bytes -> {host}", data.len());
            close_fs(fs, &image)
        }
        ("cat", [name]) => {
            let fs = open_fs(&image, dedup_workers)?;
            let ino = fs.open(name).map_err(|e| e.to_string())?;
            let size = fs.file_size(ino).map_err(|e| e.to_string())?;
            let data = fs.read(ino, 0, size as usize).map_err(|e| e.to_string())?;
            use std::io::Write;
            std::io::stdout()
                .write_all(&data)
                .map_err(|e| e.to_string())?;
            close_fs(fs, &image)
        }
        ("ls", []) => {
            let fs = open_fs(&image, dedup_workers)?;
            let mut names = fs.nova().list();
            names.sort();
            for name in names {
                let ino = fs.open(&name).map_err(|e| e.to_string())?;
                let st = fs.nova().stat(ino).map_err(|e| e.to_string())?;
                println!("{:>12}  {}", st.size, name);
            }
            close_fs(fs, &image)
        }
        ("rm", [name]) => {
            let fs = open_fs(&image, dedup_workers)?;
            fs.unlink(name).map_err(|e| e.to_string())?;
            println!("removed {name}");
            close_fs(fs, &image)
        }
        ("ln", [existing, new]) => {
            let fs = open_fs(&image, dedup_workers)?;
            let ino = fs.nova().link(existing, new).map_err(|e| e.to_string())?;
            println!("{new} => ino {ino} (also {existing})");
            close_fs(fs, &image)
        }
        ("mv", [from, to]) => {
            let fs = open_fs(&image, dedup_workers)?;
            fs.nova().rename(from, to).map_err(|e| e.to_string())?;
            println!("{from} -> {to}");
            close_fs(fs, &image)
        }
        ("stat", [name]) => {
            let fs = open_fs(&image, dedup_workers)?;
            let ino = fs.open(name).map_err(|e| e.to_string())?;
            let st = fs.nova().stat(ino).map_err(|e| e.to_string())?;
            println!(
                "{name}: ino {} size {} B, {} data pages, {} log pages, {} live entries",
                st.ino, st.size, st.blocks, st.log_pages, st.log_entries_live
            );
            close_fs(fs, &image)
        }
        ("df", []) => {
            let fs = open_fs(&image, dedup_workers)?;
            let layout = *fs.nova().layout();
            let free = fs.nova().free_blocks();
            let total = layout.data_blocks();
            println!(
                "device: {} MB, data area {} blocks, {} free ({:.1}% used)",
                layout.device_size / (1 << 20),
                total,
                free,
                100.0 * (total - free) as f64 / total as f64
            );
            println!(
                "dedup:  {} FACT entries, {} B saved, FACT overhead {:.2}%, dedup-index DRAM {} B, {} worker(s)",
                fs.fact().occupied_count(),
                fs.persistent_bytes_saved(),
                layout.fact_overhead() * 100.0,
                fs.dedup_index_dram_bytes(),
                fs.dedup_workers()
            );
            close_fs(fs, &image)
        }
        ("fsck", []) => {
            let fs = open_fs(&image, dedup_workers)?;
            let report = denova_repro::nova::fsck(fs.nova(), true).map_err(|e| e.to_string())?;
            println!(
                "fsck: {} referenced blocks, {} shared, {} log pages",
                report.referenced_blocks, report.shared_blocks, report.log_pages
            );
            let fact_report = denova_repro::denova::fsck::fsck_fact(fs.nova(), fs.fact())
                .map_err(|e| e.to_string())?;
            println!("fact:  {} records", fact_report.records);
            let clean = report.is_clean() && fact_report.is_clean();
            for err in &report.errors {
                println!("  ERROR: {err:?}");
            }
            for err in &fact_report.errors {
                println!("  ERROR: {err:?}");
            }
            close_fs(fs, &image)?;
            if clean {
                println!("clean");
                Ok(())
            } else {
                Err("file system has errors".into())
            }
        }
        ("scrub", []) => {
            let fs = open_fs(&image, dedup_workers)?;
            let fixed = fs.scrub().map_err(|e| e.to_string())?;
            println!("scrub: {fixed} FACT entries reconciled");
            close_fs(fs, &image)
        }
        ("serve", rest) => {
            let mut listen = "127.0.0.1:0".to_string();
            let mut config = SvcConfig::default();
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--listen" => listen = it.next().cloned().unwrap_or_else(|| usage()),
                    "--shards" => {
                        let n = it.next().cloned().unwrap_or_else(|| usage());
                        config.shards = n.parse().map_err(|_| format!("bad --shards '{n}'"))?;
                    }
                    "--loops" => {
                        let n = it.next().cloned().unwrap_or_else(|| usage());
                        config.event_loops = n.parse().map_err(|_| format!("bad --loops '{n}'"))?;
                    }
                    _ => usage(),
                }
            }
            let listener = std::net::TcpListener::bind(&listen)
                .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let fs = open_fs(&image, dedup_workers)?;
            // Scraped by scripts driving ephemeral ports — keep the format.
            println!("listening on {addr}");
            let server = Server::new(Arc::new(fs), config);
            server.serve(listener).map_err(|e| format!("serve: {e}"))?;
            // A client sent `shutdown`: drain in-flight work and the dedup
            // pipeline, then persist the image like any other command.
            let fs = server.shutdown();
            let fs = Arc::try_unwrap(fs)
                .map_err(|_| "connections still hold the file system".to_string())?;
            println!("shutting down");
            close_fs(fs, &image)
        }
        ("stats", rest) => {
            let json = match rest {
                [] => false,
                [flag] if flag == "--json" => true,
                _ => usage(),
            };
            let fs = open_fs(&image, dedup_workers)?;
            let metrics = fs.nova().device().metrics().clone();
            metrics.set_enabled(true);
            // Quickstart-style probe: a handful of duplicate files written,
            // deduplicated, and read back through an in-process server on a
            // loopback connection, so every layer — the server's dispatch
            // included — records activity. The image is deliberately NOT
            // saved afterwards — the probe lives only in this process's
            // memory and the host file is left exactly as it was.
            let server = Server::new(Arc::new(fs), SvcConfig::default());
            let mut client = Client::from_stream(Box::new(server.connect_loopback()));
            let e = |e: SvcError| e.to_string();
            let payload: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
            let mut inos = Vec::new();
            for i in 0..8 {
                let ino = client
                    .create(&format!(".denova-stats-probe-{i}"))
                    .map_err(e)?;
                client.write_at(ino, 0, &payload).map_err(e)?;
                inos.push(ino);
            }
            // Fsync settles the dedup pipeline.
            client.fsync(inos[0]).map_err(e)?;
            for &ino in &inos {
                client.read_at(ino, 0, BLOCK_SIZE).map_err(e)?;
            }
            drop(client);
            let fs = Arc::try_unwrap(server.shutdown())
                .map_err(|_| "the probe server still holds the file system".to_string())?;
            let snap = metrics.snapshot();
            let recovery = fs.last_recovery().copied();
            fs.unmount();
            if json {
                println!("{}", snap.to_json_string());
            } else {
                let c = |name: &str| snap.counter(name).unwrap_or(0);
                println!("telemetry after an 8-file duplicate write/read probe (image unchanged):");
                println!("  pmem flushes:       {}", c("pmem.flushes"));
                println!(
                    "  nova writes:        {} calls, {} log entries appended",
                    c("nova.writes"),
                    c("nova.log.entries_appended")
                );
                println!(
                    "  FACT hit/miss:      {}/{}",
                    c("fact.hits"),
                    c("fact.misses")
                );
                println!(
                    "  dedup errors:       {} (entries the daemon gave up on; `dedup.error` events name them)",
                    c("denova.dedup.errors")
                );
                println!("{}", dispatch_split(c("svc.inline"), c("svc.pool.jobs")));
                println!(
                    "  mount read:         {} inode-table blocks, {} log pages",
                    c("nova.recovery.inode_blocks_read"),
                    c("nova.recovery.log_pages_read")
                );
                match recovery {
                    Some(report) => print!("  {report}"),
                    None => println!("  recovery:           none (clean unmount)"),
                }
                println!("{}", snap.to_text());
            }
            Ok(())
        }
        _ => usage(),
    }
}

/// Where the server ran its requests: on the event loop (short requests
/// whose shard was idle) or through the worker pool.
fn dispatch_split(inline: u64, pooled: u64) -> String {
    let share = inline as f64 / (inline + pooled).max(1) as f64;
    format!(
        "  svc dispatch:       {inline} on the event loop (svc.inline), {pooled} via the pool (svc.pool.jobs), inline share {:.1}%",
        100.0 * share
    )
}

/// A counter's value from a text telemetry snapshot ("  <name>  <value>").
fn text_counter(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(name))
            .then(|| fields.next()?.parse().ok())
            .flatten()
    })
}

/// Dispatch one command against a served file system over TCP. The command
/// surface mirrors the local one; `mkfs`/`fsck`/`scrub`/`serve` stay local
/// because they operate on the image itself.
fn run_remote(addr: &str, cmd: &str, rest: &[String], tenant: Option<&str>) -> Result<(), String> {
    let mut client =
        Client::connect_tcp(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let e = |e: SvcError| e.to_string();
    if let Some(t) = tenant {
        // Weight 0 = keep the tenant's current weight (1 if new).
        client.hello(t, 0).map_err(e)?;
    }
    match (cmd, rest) {
        ("put", [name, host]) => {
            let data = std::fs::read(host).map_err(|err| format!("read {host}: {err}"))?;
            client.put(name, &data).map_err(e)?;
            let stats = client.dedup_stats().map_err(e)?;
            println!(
                "{name}: {} bytes ({} saved by dedup so far)",
                data.len(),
                stats.bytes_saved
            );
            Ok(())
        }
        ("get", [name, host]) => {
            let data = client.get(name).map_err(e)?;
            std::fs::write(host, &data).map_err(|err| format!("write {host}: {err}"))?;
            println!("{name}: {} bytes -> {host}", data.len());
            Ok(())
        }
        ("cat", [name]) => {
            let data = client.get(name).map_err(e)?;
            use std::io::Write;
            std::io::stdout()
                .write_all(&data)
                .map_err(|err| err.to_string())
        }
        ("ls", []) => {
            let mut names = client.list().map_err(e)?;
            names.sort();
            for name in names {
                let ino = client.open(&name).map_err(e)?;
                let st = client.stat(ino).map_err(e)?;
                println!("{:>12}  {}", st.size, name);
            }
            Ok(())
        }
        ("rm", [name]) => {
            client.unlink(name).map_err(e)?;
            println!("removed {name}");
            Ok(())
        }
        ("ln", [existing, new]) => {
            let ino = client.link(existing, new).map_err(e)?;
            println!("{new} => ino {ino} (also {existing})");
            Ok(())
        }
        ("mv", [from, to]) => {
            client.rename(from, to).map_err(e)?;
            println!("{from} -> {to}");
            Ok(())
        }
        ("stat", [name]) => {
            let ino = client.open(name).map_err(e)?;
            let st = client.stat(ino).map_err(e)?;
            println!(
                "{name}: ino {} size {} B, {} data pages, {} log pages, {} live entries",
                st.ino, st.size, st.blocks, st.log_pages, st.log_entries_live
            );
            Ok(())
        }
        ("df", []) => {
            let s = client.dedup_stats().map_err(e)?;
            println!(
                "device: {} MB, data area {} blocks, {} free ({:.1}% used)",
                s.device_bytes / (1 << 20),
                s.data_blocks,
                s.free_blocks,
                100.0 * (s.data_blocks - s.free_blocks) as f64 / s.data_blocks.max(1) as f64
            );
            println!(
                "dedup:  {} FACT entries, {} B saved, dedup-index DRAM {} B, {} worker(s)",
                s.fact_occupied,
                s.persistent_bytes_saved,
                s.dedup_index_dram_bytes,
                s.dedup_workers
            );
            Ok(())
        }
        ("stats", rest) => {
            let json = match rest {
                [] => false,
                [flag] if flag == "--json" => true,
                _ => usage(),
            };
            // Unlike the local probe, this fetches the server's *live*
            // registry: real request counts and per-op latencies, rendered
            // server-side.
            let text = client.telemetry(json).map_err(e)?;
            if !json {
                let c = |name: &str| text_counter(&text, name).unwrap_or(0);
                println!("{}", dispatch_split(c("svc.inline"), c("svc.pool.jobs")));
            }
            println!("{text}");
            Ok(())
        }
        ("shutdown", []) => {
            client.shutdown_server().map_err(e)?;
            println!("server at {addr} is shutting down");
            Ok(())
        }
        _ => usage(),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("denova-cli: {e}");
            ExitCode::FAILURE
        }
    }
}
