//! Crash images of a served stack under load recover clean.
//!
//! Loopback clients drive a served DeNova stack (Immediate mode, two dedup
//! workers) with duplicate-heavy creates, overwrites and unlinks. When the
//! count of acknowledged operations reaches each of a fixed list of points,
//! the client that reached it takes a `crash_clone` image of the device
//! while the others wait at their next operation and the dedup pool is
//! quiesced, with the dedup queue still holding work. Every image must then
//! mount through crash recovery with a clean NOVA fsck and FACT audit, and
//! serve every file whose last write was acknowledged before the image was
//! taken. The images are planned by operation count, so how many are taken
//! does not depend on how fast the host is.

use denova_repro::denova::fsck::fsck_fact;
use denova_repro::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

const DEV_SIZE: usize = 64 * 1024 * 1024;
const CLIENTS: usize = 3;
const OPS_PER_CLIENT: u64 = 60;
/// Acknowledged-operation counts at which an image is taken.
const IMAGE_AT: [u64; 4] = [25, 70, 115, 160];

fn opts() -> NovaOptions {
    NovaOptions {
        num_inodes: 512,
        dedup_workers: 2,
        ..Default::default()
    }
}

/// One crash image: the planned count that triggered it, the count of
/// operations acknowledged when it was taken, and the expected content of
/// every live file at that instant.
struct Image {
    planned: u64,
    acked: u64,
    device: PmemDevice,
    files: HashMap<String, Vec<u8>>,
}

/// What the clients have had acknowledged, and the images taken so far.
#[derive(Default)]
struct Ledger {
    files: HashMap<String, Vec<u8>>,
    acked: u64,
    images: Vec<Image>,
}

/// Shared by the clients: each operation runs under a read guard of `gate`,
/// so an image taken under its write guard sees no request in flight.
#[derive(Default)]
struct Run {
    gate: RwLock<()>,
    ledger: Mutex<Ledger>,
}

impl Run {
    /// Run one operation (`send` returns once it is acknowledged) and
    /// record its effect. Returns the planned count this acknowledgement
    /// reached, if any.
    fn op(
        &self,
        send: impl FnOnce(),
        apply: impl FnOnce(&mut HashMap<String, Vec<u8>>),
    ) -> Option<u64> {
        let _op = self.gate.read().unwrap();
        send();
        let mut l = self.ledger.lock().unwrap();
        apply(&mut l.files);
        l.acked += 1;
        IMAGE_AT.contains(&l.acked).then_some(l.acked)
    }

    /// Take the image `planned` calls for. The dedup pool is parked first
    /// and one more file is written, so its entry is still queued for dedup
    /// in the image and recovery has work to put back on the queue.
    fn take_image(&self, planned: u64, fs: &Denova, client: &mut Client, name: String) {
        fs.quiesce(|| {
            let data = vec![planned as u8; 4096];
            self.op(
                || {
                    let ino = client.create(&name).unwrap();
                    assert_eq!(client.write_at(ino, 0, &data).unwrap(), 4096);
                },
                |files| {
                    files.insert(name.clone(), data.clone());
                },
            );
            let _all = self.gate.write().unwrap();
            let mut l = self.ledger.lock().unwrap();
            let device = fs.nova().device().crash_clone(CrashMode::Strict);
            let (acked, files) = (l.acked, l.files.clone());
            l.images.push(Image {
                planned,
                acked,
                device,
                files,
            });
        });
    }
}

fn client_run(c: usize, server: &Server, run: &Run) {
    let fs = server.service().fs();
    let mut client = Client::from_stream(Box::new(server.connect_loopback()));
    let mut gen = DataGenerator::new(0xC0FFEE + c as u64, 0.6);
    let mut live: Vec<(String, u64)> = Vec::new();
    for i in 0..OPS_PER_CLIENT {
        let reached = match i % 6 {
            // Overwrite the oldest live file's first pages in place.
            3 if !live.is_empty() => {
                let (name, ino) = live[0].clone();
                let data = gen.next_file(2 * 4096);
                run.op(
                    || assert_eq!(client.write_at(ino, 0, &data).unwrap(), 2 * 4096),
                    |files| files.get_mut(&name).unwrap()[..data.len()].copy_from_slice(&data),
                )
            }
            // Unlink the oldest live file.
            5 if live.len() > 2 => {
                let (name, _) = live.remove(0);
                run.op(
                    || client.unlink(&name).unwrap(),
                    |files| {
                        files.remove(&name);
                    },
                )
            }
            _ => {
                let name = format!("c{c}-{i}");
                let data = gen.next_file(4 * 4096);
                let mut ino = 0;
                let reached = run.op(
                    || {
                        ino = client.create(&name).unwrap();
                        assert_eq!(client.write_at(ino, 0, &data).unwrap(), 4 * 4096);
                    },
                    |files| {
                        files.insert(name.clone(), data.clone());
                    },
                );
                live.push((name, ino));
                reached
            }
        };
        if let Some(planned) = reached {
            run.take_image(planned, fs, &mut client, format!("c{c}-{i}-image"));
        }
    }
}

/// Mount one image through crash recovery and audit it. Returns the write
/// entries recovery put back on the dedup queue.
fn verify_image(image: Image) -> u64 {
    let at = image.acked;
    let fs = Denova::mount(Arc::new(image.device), opts(), DedupMode::Immediate)
        .unwrap_or_else(|e| panic!("image at {at} ops: mount failed: {e}"));
    let requeued = fs
        .last_recovery()
        .unwrap_or_else(|| panic!("image at {at} ops: no crash recovery"))
        .requeued;
    fs.drain();
    assert_eq!(
        fs.nova().file_count(),
        image.files.len(),
        "image at {at} ops"
    );
    for (name, content) in &image.files {
        let ino = fs
            .open(name)
            .unwrap_or_else(|e| panic!("image at {at} ops: {name}: {e}"));
        assert_eq!(fs.file_size(ino).unwrap() as usize, content.len());
        let got = fs.read(ino, 0, content.len()).unwrap();
        assert!(got == *content, "image at {at} ops: {name} content");
    }
    let report = fsck(fs.nova(), true).unwrap();
    assert!(report.is_clean(), "image at {at} ops: {:?}", report.errors);
    let audit = fsck_fact(fs.nova(), fs.fact()).unwrap();
    assert!(audit.is_clean(), "image at {at} ops: {:?}", audit.errors);
    assert_eq!(fs.scrub().unwrap(), 0, "image at {at} ops: scrub repaired");
    fs.unmount();
    requeued
}

#[test]
fn crash_midrun_images_recover_clean() {
    let dev = Arc::new(PmemDevice::new(DEV_SIZE));
    let fs = Denova::mkfs(dev, opts(), DedupMode::Immediate).unwrap();
    let server = Server::new(Arc::new(fs), SvcConfig::default());
    let run = Run::default();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (server, run) = (&server, &run);
            s.spawn(move || client_run(c, server, run));
        }
    });
    let fs = server.shutdown();
    fs.drain();
    assert!(fs.fact().stats().duplicate_pages() > 0, "no dedup happened");
    let ledger = run.ledger.into_inner().unwrap();
    // Each image adds the one write it takes with the pool parked.
    let ops = CLIENTS as u64 * OPS_PER_CLIENT + IMAGE_AT.len() as u64;
    assert_eq!(ledger.acked, ops);
    let planned: Vec<u64> = ledger.images.iter().map(|i| i.planned).collect();
    assert_eq!(planned, IMAGE_AT, "images taken");
    for image in ledger.images {
        assert!(image.acked > image.planned);
        let at = image.acked;
        assert!(
            verify_image(image) > 0,
            "image at {at} ops: nothing requeued"
        );
    }
}
