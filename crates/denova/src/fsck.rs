//! FACT-side consistency checks, layered over [`denova_nova::fsck`].
//!
//! The NOVA checker audits the namespace, logs, indexes, holes, and space
//! accounting; this one audits the dedup metadata against the live files:
//! every FACT record's reference count must equal the exact number of
//! owning write-entry extents, the delete-pointer reverse index must resolve
//! every record's block back to it, no update count may be left behind, and
//! every block shared between extents must be tracked by FACT (sharing only
//! ever comes from dedup).
//!
//! Like [`crate::recovery::scrub`], this compares two scans that are not
//! mutually atomic: callers must be quiescent (daemon drained).

use crate::fact::Fact;
use denova_nova::{Nova, Result};

/// One inconsistency found by [`fsck_fact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactFsckError {
    /// A record's RFC disagrees with the number of write-entry extents
    /// referencing its block.
    RfcMismatch {
        /// Canonical block of the record.
        block: u64,
        /// RFC the record claims.
        claimed: u32,
        /// Extents actually referencing the block.
        actual: u32,
    },
    /// The delete-pointer reverse index does not resolve a record's block
    /// back to the record.
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
    /// Records audited.
    pub records: u64,
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
        report.records += 1;
        if e.uc != 0 {
            report.errors.push(FactFsckError::UcResidue {
                block: e.block,
                uc: e.uc,
            });
        }
        let actual = counts.get(&e.block).copied().unwrap_or(0);
        if actual != e.rfc {
            report.errors.push(FactFsckError::RfcMismatch {
                block: e.block,
                claimed: e.rfc,
                actual,
            });
        }
        if survey.resolve(e.block).map(|(i, _)| i) != Some(idx) {
            report
                .errors
                .push(FactFsckError::ReverseIndexBroken { block: e.block });
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

    #[test]
    fn detects_rfc_divergence_and_uc_residue() {
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
