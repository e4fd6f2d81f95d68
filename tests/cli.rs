//! End-to-end tests of the `denova-cli` binary against a device image file,
//! including the served (`serve` / `--remote`) mode.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "denova-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cli(image: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_denova-cli"))
        .arg(image)
        .args(args)
        .output()
        .expect("spawn denova-cli")
}

fn ok(image: &PathBuf, args: &[&str]) -> String {
    let out = cli(image, args);
    assert!(
        out.status.success(),
        "denova-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// Run `denova-cli --remote <addr> <args...>`, asserting success.
fn remote_ok(addr: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_denova-cli"))
        .args(["--remote", addr])
        .args(args)
        .output()
        .expect("spawn denova-cli");
    assert!(
        out.status.success(),
        "denova-cli --remote {addr} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn full_cli_session() {
    let dir = tmpdir();
    let image = dir.join("fs.img");
    let host_in = dir.join("input.bin");
    let host_out = dir.join("output.bin");
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    std::fs::write(&host_in, &payload).unwrap();

    // mkfs → put → ls → stat → get roundtrip.
    let out = ok(&image, &["mkfs", "--size", "32M"]);
    assert!(out.contains("formatted"));
    ok(&image, &["put", "a.bin", host_in.to_str().unwrap()]);
    let ls = ok(&image, &["ls"]);
    assert!(ls.contains("a.bin"));
    assert!(ls.contains("50000"));
    let st = ok(&image, &["stat", "a.bin"]);
    assert!(st.contains("size 50000"));
    ok(&image, &["get", "a.bin", host_out.to_str().unwrap()]);
    assert_eq!(std::fs::read(&host_out).unwrap(), payload);

    // A second copy deduplicates; df reports the savings.
    ok(&image, &["put", "b.bin", host_in.to_str().unwrap()]);
    let df = ok(&image, &["df"]);
    assert!(df.contains("saved"), "{df}");
    let saved: u64 = df
        .split(" B saved")
        .next()
        .unwrap()
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert!(saved >= 12 * 4096, "saved only {saved} bytes");

    // Hard link: both names serve the same bytes; removing one keeps it.
    ok(&image, &["ln", "a.bin", "hard.bin"]);
    ok(&image, &["get", "hard.bin", host_out.to_str().unwrap()]);
    assert_eq!(std::fs::read(&host_out).unwrap(), payload);
    ok(&image, &["rm", "hard.bin"]);
    ok(&image, &["get", "a.bin", host_out.to_str().unwrap()]);
    assert_eq!(std::fs::read(&host_out).unwrap(), payload);

    // mv + rm + fsck.
    ok(&image, &["mv", "b.bin", "c.bin"]);
    let ls = ok(&image, &["ls"]);
    assert!(ls.contains("c.bin") && !ls.contains("b.bin"));
    ok(&image, &["rm", "c.bin"]);
    ok(&image, &["scrub"]);
    let fsck = ok(&image, &["fsck"]);
    assert!(fsck.contains("clean"), "{fsck}");

    // Content survives all of the above (each command is a separate
    // process: the image file is the only shared state).
    ok(&image, &["get", "a.bin", host_out.to_str().unwrap()]);
    assert_eq!(std::fs::read(&host_out).unwrap(), payload);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_errors_are_clean() {
    let dir = tmpdir();
    let image = dir.join("fs.img");
    // Operating on a missing image fails without panicking.
    let out = cli(&image, &["ls"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("denova-cli:"));
    // Unformatted image fails to mount.
    std::fs::write(&image, vec![0u8; 1024 * 1024]).unwrap();
    let out = cli(&image, &["ls"]);
    assert!(!out.status.success());
    // Missing file errors.
    ok(&image, &["mkfs", "--size", "16M"]);
    let out = cli(&image, &["get", "ghost", "/tmp/x"]);
    assert!(!out.status.success());
    let out = cli(&image, &["rm", "ghost"]);
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: `put` over an existing *larger* file must leave the file at
/// exactly the new size — no stale tail bytes from the earlier content, and
/// the committed inode size (what `ls`/`stat` report) must shrink too.
#[test]
fn put_over_larger_file_leaves_no_stale_tail() {
    let dir = tmpdir();
    let image = dir.join("fs.img");
    let big = dir.join("big.bin");
    let small = dir.join("small.bin");
    let out = dir.join("out.bin");
    // Non-uniform payloads so any resurrected tail byte is detectable, and
    // a small size that is NOT page-aligned so the tail of the last page is
    // exercised as well.
    let big_payload: Vec<u8> = (0..50_000u32).map(|i| (i % 249) as u8).collect();
    let small_payload: Vec<u8> = (0..3_000u32).map(|i| 255 - (i % 241) as u8).collect();
    std::fs::write(&big, &big_payload).unwrap();
    std::fs::write(&small, &small_payload).unwrap();

    ok(&image, &["mkfs", "--size", "32M"]);
    ok(&image, &["put", "f.bin", big.to_str().unwrap()]);
    ok(&image, &["put", "f.bin", small.to_str().unwrap()]);

    let st = ok(&image, &["stat", "f.bin"]);
    assert!(st.contains("size 3000"), "stale size survived: {st}");
    ok(&image, &["get", "f.bin", out.to_str().unwrap()]);
    assert_eq!(
        std::fs::read(&out).unwrap(),
        small_payload,
        "stale tail bytes survived the shrinking put"
    );
    // Growing it again still works (no truncation state left behind).
    ok(&image, &["put", "f.bin", big.to_str().unwrap()]);
    ok(&image, &["get", "f.bin", out.to_str().unwrap()]);
    assert_eq!(std::fs::read(&out).unwrap(), big_payload);
    let fsck = ok(&image, &["fsck"]);
    assert!(fsck.contains("clean"), "{fsck}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve` + `--remote`: a served image handles put/get/stat/rm over TCP,
/// `stats --remote` returns live server telemetry, and `shutdown` drains and
/// persists the image so a local fsck afterwards is clean.
#[test]
fn serve_and_remote_round_trip() {
    let dir = tmpdir();
    let image = dir.join("fs.img");
    let host_in = dir.join("in.bin");
    let host_out = dir.join("out.bin");
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 253) as u8).collect();
    std::fs::write(&host_in, &payload).unwrap();
    ok(&image, &["mkfs", "--size", "32M"]);

    let mut server = Command::new(env!("CARGO_BIN_EXE_denova-cli"))
        .arg(&image)
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut lines = std::io::BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().expect("server exited early").unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    remote_ok(&addr, &["put", "a.bin", host_in.to_str().unwrap()]);
    let st = remote_ok(&addr, &["stat", "a.bin"]);
    assert!(st.contains("size 20000"), "{st}");
    remote_ok(&addr, &["get", "a.bin", host_out.to_str().unwrap()]);
    assert_eq!(std::fs::read(&host_out).unwrap(), payload);
    let ls = remote_ok(&addr, &["ls"]);
    assert!(ls.contains("a.bin"));
    let stats = remote_ok(&addr, &["stats"]);
    assert!(stats.contains("svc.requests"), "{stats}");
    assert!(stats.contains("svc dispatch:"), "{stats}");
    let json = remote_ok(&addr, &["stats", "--json"]);
    assert!(json.trim_start().starts_with('{'), "{json}");
    remote_ok(&addr, &["rm", "a.bin"]);
    remote_ok(&addr, &["shutdown"]);

    let status = server.wait().expect("wait serve");
    assert!(status.success(), "serve exited nonzero");
    // The image was persisted on shutdown and is consistent.
    let fsck = ok(&image, &["fsck"]);
    assert!(fsck.contains("clean"), "{fsck}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cat_streams_file_contents() {
    let dir = tmpdir();
    let image = dir.join("fs.img");
    let host_in = dir.join("in.txt");
    std::fs::write(&host_in, b"hello from denova\n").unwrap();
    ok(&image, &["mkfs", "--size", "16M"]);
    ok(&image, &["put", "hello.txt", host_in.to_str().unwrap()]);
    let out = ok(&image, &["cat", "hello.txt"]);
    assert_eq!(out, "hello from denova\n");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses the free-block count out of `df` output
/// ("device: N MB, data area N blocks, N free (x% used)").
fn df_free_blocks(df: &str) -> u64 {
    df.split(" free")
        .next()
        .unwrap()
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap()
}

/// Regression: an all-zero file must consume no data pages at all — every
/// page is elided into a hole at write time — while still reading back as
/// zeros. Only the inode's log pages may come out of the data area.
#[test]
fn all_zero_put_consumes_no_data_pages() {
    let dir = tmpdir();
    let image = dir.join("fs.img");
    let host_in = dir.join("zeros.bin");
    let host_out = dir.join("zeros.out");
    let zeros = vec![0u8; 1 << 20]; // 1 MiB = 256 pages of zeros
    std::fs::write(&host_in, &zeros).unwrap();

    ok(&image, &["mkfs", "--size", "32M"]);
    let free_before = df_free_blocks(&ok(&image, &["df"]));

    ok(&image, &["put", "z.bin", host_in.to_str().unwrap()]);

    // The file owns zero data pages: all 256 pages became holes.
    let st = ok(&image, &["stat", "z.bin"]);
    assert!(st.contains("B, 0 data pages"), "{st}");

    // The device-wide cost is log metadata only, nowhere near 256 pages.
    let free_after = df_free_blocks(&ok(&image, &["df"]));
    let consumed = free_before - free_after;
    assert!(
        consumed <= 8,
        "all-zero put consumed {consumed} data blocks"
    );

    // Holes read back as zeros, byte for byte.
    ok(&image, &["get", "z.bin", host_out.to_str().unwrap()]);
    assert_eq!(std::fs::read(&host_out).unwrap(), zeros);

    let fsck = ok(&image, &["fsck"]);
    assert!(fsck.contains("clean"), "{fsck}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The extent-dedup counter (zero-block holes), the daemon's health numbers
/// (entries it gave up on, how long stage 2 held the inode write lock) and
/// the server's dispatch split are exported through `stats --json`; the
/// text form prints the split with its inline share.
#[test]
fn stats_json_exports_extent_counters() {
    let dir = tmpdir();
    let image = dir.join("fs.img");
    ok(&image, &["mkfs", "--size", "16M"]);
    let json = ok(&image, &["stats", "--json"]);
    for name in [
        "denova.extent.zero_holes",
        "denova.dedup.errors",
        "denova.dedup.write_lock_hold",
        "svc.inline",
        "svc.pool.jobs",
    ] {
        assert!(json.contains(name), "stats --json missing {name}: {json}");
    }
    let text = ok(&image, &["stats"]);
    let split = text
        .lines()
        .find(|l| l.contains("svc dispatch:"))
        .unwrap_or_else(|| panic!("no dispatch line: {text}"));
    // The probe's creates are pooled; its 4 KiB writes and reads are short.
    assert!(!split.contains(" 0 on the event loop"), "{split}");
    assert!(!split.contains(" 0 via the pool"), "{split}");
    let _ = std::fs::remove_dir_all(&dir);
}
