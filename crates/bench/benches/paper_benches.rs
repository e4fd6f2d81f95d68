//! Criterion microbenchmarks, one group per paper table/figure.
//!
//! These give statistically-sound per-operation numbers for the primitives
//! each figure is built from; the `figures` binary produces the full
//! workload-level tables. Sample counts are kept small so `cargo bench`
//! finishes in minutes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use denova::{dedup_entry, DedupMode};
use denova_bench::{mount, raw_device};
use denova_fingerprint::{sha1, weak_fingerprint};
use denova_nova::Layout;
use denova_pmem::{calibrate_spin, LatencyProfile, PmemBuilder, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    g
}

/// Table I: single-line access latency per device profile.
fn bench_table1_device_latency(c: &mut Criterion) {
    calibrate_spin();
    let mut g = quick(c, "table1_device_latency");
    for profile in LatencyProfile::table1() {
        let dev = PmemBuilder::new(1024 * 1024).latency(profile).build();
        let line = [0u8; 64];
        g.bench_function(format!("{}_write_line", profile.name), |b| {
            let mut i = 0u64;
            b.iter(|| {
                let off = (i % 8192) * 64;
                i += 1;
                dev.write(off, &line);
                dev.persist(off, 64);
            });
        });
        let mut buf = [0u8; 64];
        g.bench_function(format!("{}_read_line", profile.name), |b| {
            let mut i = 0u64;
            b.iter(|| {
                let off = (i % 8192) * 64;
                i += 1;
                dev.read_into(off, &mut buf);
            });
        });
    }
    g.finish();
}

/// Fig. 2 / Section III model: T_w vs T_f vs T_fw on 4 KB chunks.
fn bench_fig2_model_terms(c: &mut Criterion) {
    let mut g = quick(c, "fig2_model_terms");
    let dev = raw_device(16 * 1024 * 1024);
    let layout = Layout::compute(dev.size() as u64, 64, 2);
    let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 249) as u8).collect();
    let base = layout.data_start * PAGE_SIZE as u64;
    g.bench_function("tw_4k_write_persist", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let off = base + (i % 1024) * PAGE_SIZE as u64;
            i += 1;
            dev.write(off, &page);
            dev.persist(off, PAGE_SIZE);
        });
    });
    g.bench_function("tf_4k_sha1_raw_host", |b| {
        b.iter(|| std::hint::black_box(sha1(std::hint::black_box(&page))));
    });
    g.bench_function("tfw_4k_weak_fp", |b| {
        b.iter(|| std::hint::black_box(weak_fingerprint(std::hint::black_box(&page))));
    });
    g.finish();
}

/// Table IV / Fig. 8 primitive: one 4 KB file write per variant.
fn bench_fig8_write_per_mode(c: &mut Criterion) {
    let mut g = quick(c, "fig8_write_4k_file");
    for mode in [
        DedupMode::Baseline,
        DedupMode::Inline,
        DedupMode::InlineAdaptive,
        DedupMode::Immediate,
    ] {
        let fs = mount(mode, 512 * 1024 * 1024, 40_000);
        let counter = AtomicU64::new(0);
        let data = vec![0x42u8; 4096];
        g.bench_function(format!("{mode}"), |b| {
            b.iter(|| {
                // Rotate over a bounded window so unlimited Criterion
                // iterations cannot exhaust the device (first lap creates,
                // later laps take the CoW-overwrite path).
                let i = counter.fetch_add(1, Ordering::Relaxed) % 20_000;
                let name = format!("f{i}");
                let ino = fs.open(&name).unwrap_or_else(|_| fs.create(&name).unwrap());
                fs.write(ino, 0, &data).unwrap();
            });
        });
        fs.drain();
    }
    g.finish();
}

/// Fig. 11 primitive: overwrite of a deduplicated page (the FACT reclaim
/// cost) vs baseline overwrite.
fn bench_fig11_overwrite(c: &mut Criterion) {
    let mut g = quick(c, "fig11_overwrite_4k");
    for mode in [DedupMode::Baseline, DedupMode::Immediate] {
        let fs = mount(mode, 256 * 1024 * 1024, 64);
        let ino = fs.create("target").unwrap();
        fs.write(ino, 0, &vec![1u8; 4096]).unwrap();
        fs.drain();
        let counter = AtomicU64::new(0);
        g.bench_function(format!("{mode}"), |b| {
            b.iter(|| {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                fs.write(ino, 0, &vec![(i % 251) as u8; 4096]).unwrap();
            });
        });
        fs.drain();
    }
    g.finish();
}

/// Fig. 12 primitive: 64 KB read from a deduplicated (shared) file vs a
/// unique file.
fn bench_fig12_read(c: &mut Criterion) {
    let mut g = quick(c, "fig12_read_64k");
    for mode in [DedupMode::Baseline, DedupMode::Immediate] {
        let fs = mount(mode, 256 * 1024 * 1024, 64);
        let content: Vec<u8> = (0..1024 * 1024).map(|i| (i % 253) as u8).collect();
        for name in ["A", "B"] {
            let ino = fs.create(name).unwrap();
            fs.write(ino, 0, &content).unwrap();
        }
        fs.drain();
        let ino = fs.open("B").unwrap();
        let counter = AtomicU64::new(0);
        g.bench_function(format!("{mode}"), |b| {
            b.iter(|| {
                let off = (counter.fetch_add(1, Ordering::Relaxed) % 16) * 65536;
                std::hint::black_box(fs.read(ino, off, 65536).unwrap());
            });
        });
    }
    g.finish();
}

/// SHA-1 page-fingerprint throughput, copied-buffer vs zero-copy: the
/// daemon's stage-1 fingerprinting reads pages straight from the device's
/// mapped slice (`PmemDevice::with_slice`), so the old copy into a stack
/// `page_buf` is pure overhead. This group quantifies what the zero-copy
/// path saves per 4 KB page.
fn bench_fingerprint_page(c: &mut Criterion) {
    use denova_fingerprint::Fingerprint;
    calibrate_spin();
    let mut g = quick(c, "fingerprint_page_4k");
    // Latency off: this measures the SHA-1 + copy cost, not the device
    // model's injected read latency.
    let dev = PmemBuilder::new(16 * 1024 * 1024)
        .latency(LatencyProfile::none())
        .build();
    for off in (0..dev.size() as u64).step_by(PAGE_SIZE) {
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i as u64 ^ off) as u8).collect();
        dev.write(off, &page);
    }
    let pages = (dev.size() / PAGE_SIZE) as u64;
    g.bench_function("copy_then_sha1", |b| {
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            let off = (i % pages) * PAGE_SIZE as u64;
            i += 1;
            dev.read_into(off, &mut buf);
            std::hint::black_box(Fingerprint::of(&buf));
        });
    });
    g.bench_function("zero_copy_sha1", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let off = (i % pages) * PAGE_SIZE as u64;
            i += 1;
            std::hint::black_box(dev.with_slice(off, PAGE_SIZE, Fingerprint::of));
        });
    });
    g.finish();
}

/// FACT microbenchmarks: DAA lookup, delete-pointer resolve, insert.
fn bench_fact_ops(c: &mut Criterion) {
    use denova::{DedupStats, Fact};
    use denova_fingerprint::Fingerprint;
    let mut g = quick(c, "fact_ops");
    let dev = raw_device(32 * 1024 * 1024);
    let layout = Layout::compute(dev.size() as u64, 64, 2);
    let fact = Fact::new(dev, layout, Arc::new(DedupStats::default()));
    // Pre-populate.
    let fps: Vec<Fingerprint> = (0..512u64)
        .map(|i| {
            let fp = Fingerprint::of(&i.to_le_bytes());
            let (idx, e) = fact.reserve_or_insert(&fp, layout.data_start + i).unwrap();
            fact.commit_uc_to_rfc(idx, &e);
            fp
        })
        .collect();
    g.bench_function("lookup_hit_daa", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            std::hint::black_box(fact.lookup(&fps[i % fps.len()]));
        });
    });
    g.bench_function("lookup_miss", |b| {
        let miss = Fingerprint::of(b"never inserted");
        b.iter(|| std::hint::black_box(fact.lookup(&miss)));
    });
    g.bench_function("resolve_block_delete_ptr", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(fact.resolve_block(layout.data_start + (i % 512)));
        });
    });
    g.bench_function("reserve_commit_roundtrip", |b| {
        let fp = Fingerprint::of(b"counter");
        b.iter(|| {
            let (idx, e) = fact.reserve_or_insert(&fp, 99).unwrap();
            fact.commit_uc_to_rfc(idx, &e);
        });
    });
    g.finish();
}

/// The full dedup transaction (Algorithm 1) for a 1-page duplicate.
fn bench_dedup_transaction(c: &mut Criterion) {
    let mut g = quick(c, "dedup_transaction");
    let fs = mount(
        DedupMode::Delayed {
            interval_ms: 600_000,
            batch: 1,
        },
        512 * 1024 * 1024,
        40_000,
    );
    let data = vec![0x7Eu8; 4096];
    let seed = fs.create("seed").unwrap();
    fs.write(seed, 0, &data).unwrap();
    let node = fs.dwq().pop_batch(1)[0];
    dedup_entry(fs.nova(), fs.fact(), &node).unwrap();
    let counter = AtomicU64::new(0);
    g.bench_function("duplicate_page", |b| {
        b.iter_batched(
            || {
                let i = counter.fetch_add(1, Ordering::Relaxed) % 20_000;
                let name = format!("d{i}");
                let ino = fs.open(&name).unwrap_or_else(|_| fs.create(&name).unwrap());
                fs.write(ino, 0, &data).unwrap();
                fs.dwq().pop_batch(1)[0]
            },
            |node| {
                dedup_entry(fs.nova(), fs.fact(), &node).unwrap();
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table1_device_latency,
    bench_fig2_model_terms,
    bench_fig8_write_per_mode,
    bench_fig11_overwrite,
    bench_fig12_read,
    bench_fingerprint_page,
    bench_fact_ops,
    bench_dedup_transaction,
);
criterion_main!(benches);
