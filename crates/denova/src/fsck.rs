//! FACT-side consistency checks, layered over [`denova_nova::fsck`].
//!
//! The NOVA checker audits the namespace, logs, indexes, holes, and space
//! accounting; this one audits the dedup metadata against the live files:
//! every FACT record's reference count must equal the exact number of
//! owning write-entry extents — for an extent-run record, *per covered
//! block* — the delete-pointer reverse index must resolve every covered block
//! back to its record, every block shared between extents must be tracked
//! by FACT (sharing only ever comes from dedup), and a run anchor's
//! fingerprint must resolve to a run anchor (`fact.rs`, "Anchor first").
//!
//! Like [`crate::recovery::scrub`], this compares two scans that are not
//! mutually atomic: callers must be quiescent (daemon drained).

use crate::fact::Fact;
use denova_nova::{Nova, Result};

/// One inconsistency found by [`fsck_fact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactFsckError {
    /// A per-page record's RFC disagrees with the number of write-entry
    /// extents referencing its block.
    RfcMismatch {
        /// Canonical block of the record.
        block: u64,
        /// RFC the record claims.
        claimed: u32,
        /// Extents actually referencing the block.
        actual: u32,
    },
    /// An extent-run record's single RFC claims every covered block has
    /// the same owner count, but one block's census disagrees.
    RunOwnershipMismatch {
        /// First block of the run.
        anchor_block: u64,
        /// Pages the run covers.
        pages: u32,
        /// RFC the run claims (owners per covered block).
        claimed: u32,
        /// The covered block whose census diverged.
        block: u64,
        /// Extents actually referencing that block.
        actual: u32,
    },
    /// The delete-pointer reverse index does not resolve a covered block
    /// back to the record that owns it.
    ReverseIndexBroken {
        /// The unresolvable block.
        block: u64,
    },
    /// An update count survived into a quiescent state — a transaction
    /// neither committed nor discarded.
    UcResidue {
        /// Canonical block of the record.
        block: u64,
        /// The leftover UC.
        uc: u32,
    },
    /// A lookup of a run anchor's fingerprint stops at a per-page record
    /// ahead of it in the chain, hiding the run from sharing.
    AnchorShadowed {
        /// First block of the shadowed run.
        anchor_block: u64,
    },
    /// A block referenced by more than one extent has no FACT record —
    /// sharing only ever comes from dedup, so its count is untracked.
    UntrackedSharedBlock {
        /// The shared block.
        block: u64,
        /// Extents referencing it.
        refs: u32,
    },
}

/// A FACT consistency report.
#[derive(Debug, Default)]
pub struct FactFsckReport {
    /// Inconsistencies found.
    pub errors: Vec<FactFsckError>,
    /// Per-page records audited.
    pub per_page_records: u64,
    /// Extent-run records audited.
    pub run_records: u64,
    /// Total pages covered by extent-run records.
    pub run_pages: u64,
}

impl FactFsckReport {
    /// Whether no inconsistency was found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Audit FACT against the live file system (see module docs).
pub fn fsck_fact(nova: &Nova, fact: &Fact) -> Result<FactFsckReport> {
    let counts = nova.block_reference_counts();
    let mut report = FactFsckReport::default();
    // One streaming pass; the reverse index is checked against its
    // delete-pointer column in DRAM.
    let survey = fact.survey();
    for &(idx, e) in survey.occupied() {
        if e.uc != 0 {
            report.errors.push(FactFsckError::UcResidue {
                block: e.block,
                uc: e.uc,
            });
        }
        let n = e.run_pages.max(1) as u64;
        if n > 1 {
            report.run_records += 1;
            report.run_pages += n;
            // Anchor first: the first record a walk meets with the anchor's
            // fingerprint is an anchor (`chain` is the uncounted walk, so the
            // audit leaves the lookup statistics alone).
            let mut chain = fact.chain(e.fp.prefix(fact.prefix_bits())).into_iter();
            if chain
                .find(|(_, c)| c.fp == e.fp)
                .is_none_or(|(_, first)| first.run_pages == 1)
            {
                report.errors.push(FactFsckError::AnchorShadowed {
                    anchor_block: e.block,
                });
            }
        } else {
            report.per_page_records += 1;
        }
        for k in 0..n {
            let block = e.block + k;
            let actual = counts.get(&block).copied().unwrap_or(0);
            if actual != e.rfc {
                report.errors.push(if n > 1 {
                    FactFsckError::RunOwnershipMismatch {
                        anchor_block: e.block,
                        pages: e.run_pages,
                        claimed: e.rfc,
                        block,
                        actual,
                    }
                } else {
                    FactFsckError::RfcMismatch {
                        block,
                        claimed: e.rfc,
                        actual,
                    }
                });
            }
            if survey.resolve(block).map(|(i, _)| i) != Some(idx) {
                report
                    .errors
                    .push(FactFsckError::ReverseIndexBroken { block });
            }
        }
    }
    // Every dedup-shared block must be FACT-tracked.
    for (&block, &refs) in &counts {
        if refs > 1 && survey.resolve(block).is_none() {
            report
                .errors
                .push(FactFsckError::UntrackedSharedBlock { block, refs });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::dedup_entry;
    use crate::dwq::Dwq;
    use crate::reclaim::DenovaHooks;
    use crate::stats::DedupStats;
    use denova_nova::NovaOptions;
    use std::sync::Arc;

    fn setup() -> (Arc<Nova>, Arc<Fact>, Arc<Dwq>) {
        let dev = Arc::new(denova_pmem::PmemDevice::new(32 * 1024 * 1024));
        let nova = Arc::new(
            Nova::mkfs(
                dev.clone(),
                NovaOptions {
                    num_inodes: 128,
                    dedup_enabled: true,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let stats = Arc::new(DedupStats::default());
        let fact = Arc::new(Fact::new(dev, *nova.layout(), stats.clone()));
        let dwq = Arc::new(Dwq::new(stats));
        nova.set_hooks(Arc::new(DenovaHooks::new(fact.clone(), dwq.clone(), true)));
        (nova, fact, dwq)
    }

    fn drain(nova: &Nova, fact: &Fact, dwq: &Dwq) {
        while let Some(node) = dwq.pop_batch(1).first().copied() {
            dedup_entry(nova, fact, &node).unwrap();
        }
    }

    fn run_data() -> Vec<u8> {
        let mut data = vec![0u8; 8 * 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i / 4096 + 1) as u8;
        }
        data
    }

    #[test]
    fn clean_after_extent_promotion() {
        let (nova, fact, dwq) = setup();
        fact.set_extent_threshold_pages(4);
        let data = run_data();
        for name in ["a", "b", "c"] {
            let ino = nova.create(name).unwrap();
            nova.write(ino, 0, &data).unwrap();
        }
        drain(&nova, &fact, &dwq);
        let report = fsck_fact(&nova, &fact).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.run_records, 1);
        assert_eq!(report.run_pages, 8);
        assert_eq!(report.per_page_records, 0);
    }

    #[test]
    fn detects_run_rfc_divergence() {
        let (nova, fact, dwq) = setup();
        fact.set_extent_threshold_pages(4);
        let data = run_data();
        for name in ["a", "b"] {
            let ino = nova.create(name).unwrap();
            nova.write(ino, 0, &data).unwrap();
        }
        drain(&nova, &fact, &dwq);
        let (idx, _) = fact
            .lookup(&denova_fingerprint::Fingerprint::of(&data[..4096]))
            .unwrap();
        fact.set_rfc(idx, 5); // forge: run claims 5 owners, files hold 2
        let report = fsck_fact(&nova, &fact).unwrap();
        assert_eq!(
            report
                .errors
                .iter()
                .filter(|e| matches!(e, FactFsckError::RunOwnershipMismatch { .. }))
                .count(),
            8
        );
    }

    #[test]
    fn detects_a_shadowed_anchor() {
        let (nova, fact, dwq) = setup();
        let data = run_data();
        let ino = nova.create("a").unwrap();
        nova.write(ino, 0, &data[..4096]).unwrap();
        drain(&nova, &fact, &dwq);
        assert!(fsck_fact(&nova, &fact).unwrap().is_clean());
        // Forge what the anchor-first rule forbids: a second record with the
        // page's fingerprint, behind the first in its chain, claiming a run.
        let fp = denova_fingerprint::Fingerprint::of(&data[..4096]);
        let behind = fact.insert_with_rfc(&fp, 900, 1).unwrap();
        let off = nova.layout().fact_entry_off(behind) + 60;
        fact.device().write(off, &2u32.to_le_bytes());
        let report = fsck_fact(&nova, &fact).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FactFsckError::AnchorShadowed { .. })));
    }

    #[test]
    fn detects_per_page_rfc_divergence_and_uc_residue() {
        let (nova, fact, dwq) = setup();
        let data = vec![0x42u8; 4096];
        for name in ["a", "b"] {
            let ino = nova.create(name).unwrap();
            nova.write(ino, 0, &data).unwrap();
        }
        drain(&nova, &fact, &dwq);
        let (idx, _) = fact
            .lookup(&denova_fingerprint::Fingerprint::of(&data))
            .unwrap();
        assert!(fsck_fact(&nova, &fact).unwrap().is_clean());
        fact.inc_uc(idx);
        let report = fsck_fact(&nova, &fact).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, FactFsckError::UcResidue { uc: 1, .. })));
        fact.abort_uc(idx);
        fact.set_rfc(idx, 7);
        let report = fsck_fact(&nova, &fact).unwrap();
        assert!(report.errors.iter().any(|e| matches!(
            e,
            FactFsckError::RfcMismatch {
                claimed: 7,
                actual: 2,
                ..
            }
        )));
    }
}
