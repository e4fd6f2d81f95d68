//! Server-backed stress: many client threads driving one served DeNova mount
//! through the wire protocol, then the same fsck + FACT-exactness audit the
//! in-process stress test applies.
//!
//! Two shapes:
//! * a deterministic loopback run with *mixed* operations (create, write,
//!   read, stat, link, rename, unlink, fsync, list) from 8 concurrent
//!   clients under `DedupMode::Immediate`;
//! * the acceptance run — a 16-thread remote write workload over real TCP
//!   that must finish with **zero** failed requests.

use denova_repro::prelude::*;
use denova_repro::svc::{Body, Request, Server, SvcConfig};
use denova_workload::run_remote_write_job_tcp;
use std::sync::Arc;

fn serve_fresh(size: usize, inodes: u64, config: SvcConfig) -> Server {
    let dev = Arc::new(PmemDevice::new(size));
    let fs = Denova::mkfs(
        dev,
        NovaOptions {
            num_inodes: inodes,
            cpus: 4,
            ..Default::default()
        },
        DedupMode::Immediate,
    )
    .unwrap();
    Server::new(Arc::new(fs), config)
}

/// Quiesce the served stack and audit it: fsck must be clean and every FACT
/// entry's RFC must equal the true cross-file reference count with no UC
/// residue (the scrub-exactness invariant).
fn audit(fs: &Denova) {
    fs.drain();
    fs.scrub().unwrap();
    let report = denova_repro::nova::fsck(fs.nova(), true).unwrap();
    assert!(report.is_clean(), "fsck: {:?}", report.errors);
    let counts = fs.nova().block_reference_counts();
    fs.fact().for_each_occupied(|idx, e| {
        let (rfc, uc) = fs.fact().counters(idx);
        assert_eq!(uc, 0, "UC residue at {idx}");
        assert_eq!(
            rfc,
            counts.get(&e.block).copied().unwrap_or(0),
            "RFC mismatch at {idx}"
        );
    });
}

#[test]
fn loopback_mixed_ops_stress_stays_consistent() {
    let srv = serve_fresh(128 * 1024 * 1024, 2048, SvcConfig::default());
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let client_end = srv.connect_loopback();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::from_stream(Box::new(client_end));
            // Each thread owns its name band, so every operation on an owned
            // name must succeed — failures are bugs, not races. Cross-band
            // reads may race an unlink and are allowed to miss.
            for i in 0..60u64 {
                let name = format!("t{t}-f{}", i % 10);
                let ino = match client.open(&name) {
                    Ok(ino) => ino,
                    Err(e) if e.is_not_found() => client.create(&name).unwrap(),
                    Err(e) => panic!("open {name}: {e}"),
                };
                // Uniform pages (torn writes detectable); even iterations
                // share content across all threads so dedup fires.
                let val = if i % 2 == 0 {
                    (i % 5) as u8 + 1
                } else {
                    50 + (t * 13 + i % 11) as u8
                };
                let pages = 1 + (i % 3) as usize;
                client
                    .write_at(ino, 0, &vec![val; pages * 4096])
                    .unwrap_or_else(|e| panic!("write {name}: {e}"));
                match i % 6 {
                    0 => {
                        let st = client.stat(ino).unwrap();
                        assert!(st.size >= 4096, "{name} shrank to {}", st.size);
                    }
                    1 => {
                        // Cross-band read: may miss, must never tear.
                        let other = format!("t{}-f{}", (t + 1) % 8, i % 10);
                        if let Ok(oino) = client.open(&other) {
                            if let Ok(data) = client.read_at(oino, 0, 3 * 4096) {
                                for (pg, page) in data.chunks(4096).enumerate() {
                                    assert!(
                                        page.iter().all(|&b| b == page[0]),
                                        "torn page {pg} in {other}"
                                    );
                                }
                            }
                        }
                    }
                    2 => {
                        let alias = format!("t{t}-link-{}", i % 10);
                        match client.link(&name, &alias) {
                            Ok(_) => client.unlink(&alias).unwrap(),
                            Err(e) => assert!(
                                e.to_nova() == Some(NovaError::AlreadyExists),
                                "link {alias}: {e}"
                            ),
                        }
                    }
                    3 => {
                        let moved = format!("t{t}-moved-{}", i % 10);
                        client.rename(&name, &moved).unwrap();
                        client.rename(&moved, &name).unwrap();
                    }
                    4 => {
                        if i % 12 == 4 {
                            client.unlink(&name).unwrap();
                        }
                    }
                    _ => {
                        client.fsync(ino).unwrap();
                        assert!(!client.list().unwrap().is_empty());
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = {
        let mut c = Client::from_stream(Box::new(srv.connect_loopback()));
        c.dedup_stats().unwrap()
    };
    assert!(stats.bytes_saved > 0, "dedup never fired under stress");
    let snap = srv.service().metrics().snapshot();
    assert_eq!(
        snap.counter("svc.pool.panics"),
        Some(0),
        "service panicked under stress"
    );
    let fs = srv.shutdown();
    audit(&fs);
}

#[test]
fn sixteen_thread_tcp_workload_has_zero_failures() {
    let srv = Arc::new(serve_fresh(128 * 1024 * 1024, 2048, SvcConfig::default()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let srv2 = srv.clone();
    let accept = std::thread::spawn(move || srv2.serve(listener).unwrap());

    let spec = JobSpec::small_files(128, 0.5).with_threads(16);
    let report = run_remote_write_job_tcp(&addr, &spec);
    assert_eq!(
        report.failures, 0,
        "remote workload dropped or failed requests"
    );
    assert_eq!(report.files, 128);
    assert_eq!(report.bytes, 128 * 4096);
    assert_eq!(report.latency_summary().count, 128);

    // Stop the server over the wire, like a real client would.
    let mut c = Client::connect_tcp(&addr).unwrap();
    c.fsync(0).unwrap();
    let stats = c.dedup_stats().unwrap();
    assert_eq!(stats.file_count, 128);
    assert!(stats.bytes_saved > 0, "duplicate ratio never deduplicated");
    c.shutdown_server().unwrap();
    drop(c);
    accept.join().unwrap();

    let srv = Arc::try_unwrap(srv).unwrap_or_else(|_| panic!("server still referenced"));
    let fs = srv.shutdown();
    audit(&fs);
    // Every byte that crossed the wire landed intact: regenerate each
    // thread's deterministic data stream and compare files exactly.
    for t in 0..16u64 {
        let mut gen = DataGenerator::new(spec.seed ^ t << 32, spec.dup_ratio);
        for i in 0..8 {
            let expected = gen.next_file(spec.file_size);
            let ino = fs.open(&format!("{}-{t}-{i}", spec.name)).unwrap();
            let data = fs.read(ino, 0, spec.file_size).unwrap();
            assert_eq!(data, expected, "corrupt content in {}-{t}-{i}", spec.name);
        }
    }
}

/// Pipelined requests from one connection interleave with other clients
/// without reordering within an inode: the reply order and final content
/// match what a serial execution would produce.
#[test]
fn pipelined_writes_serialize_per_inode() {
    let srv = serve_fresh(64 * 1024 * 1024, 256, SvcConfig::default());
    let mut setup = Client::from_stream(Box::new(srv.connect_loopback()));
    let ino = setup.create("f").unwrap();

    // Raw pipelining: 40 writes to the same 4 KB page, replies read later.
    use denova_repro::svc::codec::{read_frame, write_frame, FrameRead};
    let mut end = srv.connect_loopback();
    for i in 0..40u64 {
        let req = Request::Write {
            ino,
            offset: 0,
            data: vec![i as u8 + 1; 4096],
        };
        write_frame(&mut end, &req.encode(i)).unwrap();
    }
    let mut seen = 0u64;
    while seen < 40 {
        match read_frame(&mut end).unwrap() {
            FrameRead::Frame(f) => {
                let (id, reply) = denova_repro::svc::proto::decode_reply(&f).unwrap();
                assert_eq!(id, seen, "replies reordered");
                assert_eq!(reply.unwrap(), Body::Written(4096));
                seen += 1;
            }
            FrameRead::Idle => {}
            FrameRead::Eof => panic!("server closed mid-pipeline"),
        }
    }
    // Last write wins: the page holds value 40.
    let data = setup.read_at(ino, 0, 4096).unwrap();
    assert!(data.iter().all(|&b| b == 40), "lost or reordered write");
    drop(setup);
    drop(end);
    let fs = srv.shutdown();
    audit(&fs);
}

/// Send `bytes` down a fresh loopback connection, half-close it so the
/// server sees them end, and collect what comes back until the server
/// closes. Panics if the server neither replies nor closes, or if anything
/// it sends is not a well-formed reply frame.
fn replies_to(srv: &Server, bytes: &[u8]) -> Vec<(u64, denova_repro::svc::Reply)> {
    use denova_repro::svc::codec::{read_frame, FrameRead};
    use std::io::Write;
    let mut end = srv.connect_loopback();
    end.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // The server may close under our feet (an oversized announcement is
    // refused at its fourth byte): a failed write is a closed connection.
    let _ = end.write_all(bytes);
    let _ = end.shutdown(std::net::Shutdown::Write);
    let mut replies = Vec::new();
    loop {
        match read_frame(&mut end) {
            Ok(FrameRead::Frame(f)) => replies.push(
                denova_repro::svc::proto::decode_reply(&f)
                    .unwrap_or_else(|e| panic!("malformed reply to {bytes:02x?}: {e}")),
            ),
            Ok(FrameRead::Eof) | Err(_) => return replies,
            Ok(FrameRead::Idle) => panic!("no reply and no close for {bytes:02x?}"),
        }
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    denova_repro::svc::codec::write_frame(&mut wire, payload).unwrap();
    wire
}

/// Hostile bytes at the wire edge: whatever a peer sends, the server answers
/// with a structured error or closes that connection — and keeps serving
/// everyone else, with the file system intact.
#[test]
fn hostile_bytes_get_an_error_reply_or_a_closed_connection() {
    use denova_repro::svc::codec::MAX_FRAME;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let srv = serve_fresh(64 * 1024 * 1024, 256, SvcConfig::default());
    let victim_data = vec![0x5Au8; 8192];
    let (victim, target) = {
        let mut c = Client::from_stream(Box::new(srv.connect_loopback()));
        let ino = c.create("victim").unwrap();
        c.write_at(ino, 0, &victim_data).unwrap();
        (ino, c.create("target").unwrap())
    };

    // Arbitrary bytes, raw (the first four are whatever length they spell)
    // and behind a valid length prefix (so they reach the request decoder).
    let mut rng = StdRng::seed_from_u64(0xBAD_B17E5);
    for round in 0..64usize {
        let mut blob = vec![0u8; rng.gen_range(0..600)];
        rng.fill(&mut blob);
        for reply in replies_to(&srv, &blob) {
            assert!(reply.1.is_err(), "raw blob {round} was obeyed: {reply:?}");
        }
        let replies = replies_to(&srv, &framed(&blob));
        assert_eq!(replies.len(), 1, "framed blob {round}: {replies:?}");
    }

    // A frame announced over the cap: refused, nothing read, no reply.
    let mut oversized = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0u8; 64]);
    assert!(replies_to(&srv, &oversized).is_empty());

    // A valid frame cut short at every length: the peer went away mid-frame.
    let small = Request::Write {
        ino: target,
        offset: 4096,
        data: vec![0xC3; 16],
    }
    .encode(7);
    let wire = framed(&small);
    for cut in 0..wire.len() {
        assert!(replies_to(&srv, &wire[..cut]).is_empty(), "cut at {cut}");
    }

    // Every single-byte mutation of a valid frame. A mutated length prefix
    // breaks the framing, so each of those gets a connection of its own...
    for at in 0..4 {
        for bit in 1..=255u8 {
            let mut hostile = wire.clone();
            hostile[at] ^= bit;
            for reply in replies_to(&srv, &hostile) {
                assert!(reply.1.is_err(), "prefix byte {at}^{bit}: {reply:?}");
            }
        }
    }
    // ...while a mutated payload is one well-framed request: all of them go
    // down one connection, and each gets exactly one well-formed reply. Both
    // write decoders are covered: the small write above (staged), and the
    // header of a block-aligned one (zero-copy). A mutation that spells a
    // valid Shutdown is a valid request, not a hostile one.
    let aligned = Request::Write {
        ino: target,
        offset: 4096,
        data: vec![0xC3; 4096],
    }
    .encode(7);
    for (frame, upto) in [(&small, small.len()), (&aligned, 32)] {
        let mut hostile = Vec::new();
        let mut sent = 0;
        for at in 0..upto {
            for bit in 1..=255u8 {
                let mut m = frame.clone();
                m[at] ^= bit;
                if !matches!(Request::decode(&m), Ok((_, Request::Shutdown))) {
                    hostile.extend_from_slice(&framed(&m));
                    sent += 1;
                }
            }
            // A window's worth at a time, so neither side's socket buffer
            // has to hold the whole campaign.
            if hostile.len() > 64 << 10 || at + 1 == upto {
                assert_eq!(replies_to(&srv, &hostile).len(), sent, "byte {at}");
                hostile.clear();
                sent = 0;
            }
        }
    }

    // The same server serves a fresh connection. One mutated byte can
    // re-address a write to the victim's inode or to offset 0, never both:
    // the victim's first page is out of reach.
    let mut c = Client::from_stream(Box::new(srv.connect_loopback()));
    c.ping().unwrap();
    assert_eq!(c.read_at(victim, 0, 4096).unwrap(), victim_data[..4096]);
    drop(c);
    let snap = srv.service().metrics().snapshot();
    assert!(snap.counter("svc.bad_requests").unwrap_or(0) > 0);
    assert_eq!(snap.counter("svc.pool.panics"), Some(0));
    let fs = srv.shutdown();
    audit(&fs);
}

/// Exhaustion at the wire edge: a full device is wire code 1 (`NoSpace`),
/// not a panic or a dead connection, and space given back is usable.
#[test]
fn a_full_device_is_no_space_on_the_wire_and_rm_recovers() {
    let srv = serve_fresh(8 * 1024 * 1024, 64, SvcConfig::default());
    let mut c = Client::from_stream(Box::new(srv.connect_loopback()));
    // Unique pages, so dedup cannot make room.
    let chunk = |file: u64, i: u64| -> Vec<u8> {
        let mut data = vec![0u8; 64 << 10];
        for (p, page) in data.chunks_mut(4096).enumerate() {
            page[..8].copy_from_slice(&file.to_le_bytes());
            page[8..16].copy_from_slice(&i.to_le_bytes());
            page[16..24].copy_from_slice(&(p as u64).to_le_bytes());
        }
        data
    };
    let mut names = Vec::new();
    let full = 'fill: {
        for file in 0..32u64 {
            let name = format!("fill{file}");
            let ino = match c.create(&name) {
                Ok(ino) => ino,
                Err(e) => break 'fill e,
            };
            names.push(name);
            for i in 0..8u64 {
                if let Err(e) = c.write_at(ino, i * (64 << 10), &chunk(file, i)) {
                    break 'fill e;
                }
            }
        }
        panic!("16 MiB of unique data fit in an 8 MiB device");
    };
    assert_eq!(full.code, NovaError::NoSpace.code(), "{full}");
    assert_eq!(full.to_nova(), Some(NovaError::NoSpace));
    assert!(names.len() >= 2, "filled after {} files", names.len());

    // The connection survives, and so does what was written before.
    c.ping().unwrap();
    let first = c.open(&names[0]).unwrap();
    assert_eq!(c.read_at(first, 0, 64 << 10).unwrap(), chunk(0, 0));

    // rm frees space; a following write succeeds.
    c.unlink(&names[0]).unwrap();
    let ino = c.create("after").unwrap();
    let data = chunk(99, 0);
    assert_eq!(c.write_at(ino, 0, &data).unwrap(), data.len() as u64);
    assert_eq!(c.read_at(ino, 0, data.len() as u64).unwrap(), data);
    drop(c);
    let snap = srv.service().metrics().snapshot();
    assert_eq!(snap.counter("svc.pool.panics"), Some(0));
    let fs = srv.shutdown();
    audit(&fs);
}
