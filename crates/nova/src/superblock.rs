//! Persistent superblock (block 0).

use crate::error::{NovaError, Result};
use crate::layout::Layout;
use denova_pmem::PmemDevice;

const MAGIC: u64 = 0x4445_4E4F_5641_4653; // "DENOVAFS"
/// 2: log-entry checksums read the dedupe flag as zero. A version-1 image
/// checksummed the flag, so it is refused rather than misread.
const VERSION: u64 = 2;

// Field offsets within block 0.
const OFF_MAGIC: u64 = 0;
const OFF_VERSION: u64 = 8;
const OFF_DEVICE_SIZE: u64 = 16;
const OFF_TOTAL_BLOCKS: u64 = 24;
const OFF_INODE_TABLE_START: u64 = 32;
const OFF_NUM_INODES: u64 = 40;
const OFF_FACT_START: u64 = 48;
const OFF_FACT_BLOCKS: u64 = 56;
const OFF_FACT_PREFIX_BITS: u64 = 64;
const OFF_DWQ_START: u64 = 72;
const OFF_DWQ_BLOCKS: u64 = 80;
const OFF_DATA_START: u64 = 88;
const OFF_CLEAN_UNMOUNT: u64 = 96;
/// Count of DWQ nodes saved at the last clean unmount.
const OFF_DWQ_SAVED: u64 = 104;

/// Write a fresh superblock describing `layout`.
pub fn write_superblock(dev: &PmemDevice, layout: &Layout) {
    dev.write_u64(OFF_VERSION, VERSION);
    dev.write_u64(OFF_DEVICE_SIZE, layout.device_size);
    dev.write_u64(OFF_TOTAL_BLOCKS, layout.total_blocks);
    dev.write_u64(OFF_INODE_TABLE_START, layout.inode_table_start);
    dev.write_u64(OFF_NUM_INODES, layout.num_inodes);
    dev.write_u64(OFF_FACT_START, layout.fact_start);
    dev.write_u64(OFF_FACT_BLOCKS, layout.fact_blocks);
    dev.write_u64(OFF_FACT_PREFIX_BITS, layout.fact_prefix_bits as u64);
    dev.write_u64(OFF_DWQ_START, layout.dwq_start);
    dev.write_u64(OFF_DWQ_BLOCKS, layout.dwq_blocks);
    dev.write_u64(OFF_DATA_START, layout.data_start);
    dev.write_u64(OFF_CLEAN_UNMOUNT, 0);
    dev.write_u64(OFF_DWQ_SAVED, 0);
    dev.persist(0, 128);
    // The magic goes last: a crash during mkfs leaves no valid file system.
    dev.write_u64(OFF_MAGIC, MAGIC);
    dev.persist(OFF_MAGIC, 8);
}

/// Read and validate the superblock, returning the layout it describes.
pub fn read_superblock(dev: &PmemDevice) -> Result<Layout> {
    if dev.read_u64(OFF_MAGIC) != MAGIC {
        return Err(NovaError::NotFormatted);
    }
    if dev.read_u64(OFF_VERSION) != VERSION {
        return Err(NovaError::Corrupt("unsupported version"));
    }
    let layout = Layout {
        device_size: dev.read_u64(OFF_DEVICE_SIZE),
        total_blocks: dev.read_u64(OFF_TOTAL_BLOCKS),
        inode_table_start: dev.read_u64(OFF_INODE_TABLE_START),
        num_inodes: dev.read_u64(OFF_NUM_INODES),
        fact_start: dev.read_u64(OFF_FACT_START),
        fact_blocks: dev.read_u64(OFF_FACT_BLOCKS),
        fact_prefix_bits: dev.read_u64(OFF_FACT_PREFIX_BITS) as u32,
        dwq_start: dev.read_u64(OFF_DWQ_START),
        dwq_blocks: dev.read_u64(OFF_DWQ_BLOCKS),
        data_start: dev.read_u64(OFF_DATA_START),
    };
    if layout.device_size != dev.size() as u64 {
        return Err(NovaError::Corrupt("device size mismatch"));
    }
    if layout.data_start >= layout.total_blocks {
        return Err(NovaError::Corrupt("data area out of range"));
    }
    Ok(layout)
}

/// Whether the last unmount was clean.
pub fn was_clean_unmount(dev: &PmemDevice) -> bool {
    dev.read_u64(OFF_CLEAN_UNMOUNT) == 1
}

/// Record a clean unmount (set) or an active mount (clear).
pub fn set_clean_unmount(dev: &PmemDevice, clean: bool) {
    dev.write_u64(OFF_CLEAN_UNMOUNT, clean as u64);
    dev.persist(OFF_CLEAN_UNMOUNT, 8);
}

/// Number of DWQ nodes saved in the DWQ area at the last clean unmount.
pub fn dwq_saved_count(dev: &PmemDevice) -> u64 {
    dev.read_u64(OFF_DWQ_SAVED)
}

/// Persist the count of DWQ nodes saved at clean unmount.
pub fn set_dwq_saved_count(dev: &PmemDevice, count: u64) {
    dev.write_u64(OFF_DWQ_SAVED, count);
    dev.persist(OFF_DWQ_SAVED, 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_layout(dev: &PmemDevice) -> Layout {
        Layout::compute(dev.size() as u64, 64, 2)
    }

    #[test]
    fn superblock_roundtrip() {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        let layout = test_layout(&dev);
        write_superblock(&dev, &layout);
        assert_eq!(read_superblock(&dev).unwrap(), layout);
    }

    #[test]
    fn a_version_1_image_is_refused() {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        write_superblock(&dev, &test_layout(&dev));
        dev.write_u64(OFF_VERSION, 1);
        assert_eq!(
            read_superblock(&dev),
            Err(NovaError::Corrupt("unsupported version"))
        );
    }

    #[test]
    fn unformatted_device_rejected() {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        assert_eq!(read_superblock(&dev), Err(NovaError::NotFormatted));
    }

    #[test]
    fn clean_unmount_flag_roundtrip() {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        write_superblock(&dev, &test_layout(&dev));
        assert!(!was_clean_unmount(&dev));
        set_clean_unmount(&dev, true);
        assert!(was_clean_unmount(&dev));
        set_clean_unmount(&dev, false);
        assert!(!was_clean_unmount(&dev));
    }

    #[test]
    fn superblock_survives_crash_after_mkfs() {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        let layout = test_layout(&dev);
        write_superblock(&dev, &layout);
        let after = dev.crash_clone(denova_pmem::CrashMode::Strict);
        assert_eq!(read_superblock(&after).unwrap(), layout);
    }

    #[test]
    fn crash_mid_mkfs_leaves_no_valid_fs() {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        let layout = test_layout(&dev);
        // Simulate the prefix of write_superblock before the magic persist:
        dev.write_u64(16, layout.device_size);
        dev.persist(16, 8);
        dev.write_u64(0, MAGIC); // written but never flushed
        let after = dev.crash_clone(denova_pmem::CrashMode::Strict);
        assert_eq!(read_superblock(&after), Err(NovaError::NotFormatted));
    }

    #[test]
    fn dwq_saved_count_roundtrip() {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        write_superblock(&dev, &test_layout(&dev));
        assert_eq!(dwq_saved_count(&dev), 0);
        set_dwq_saved_count(&dev, 1234);
        assert_eq!(dwq_saved_count(&dev), 1234);
    }
}
