//! Deterministic chaos scenario engine with SLO gates.
//!
//! This crate composes the fault injectors the workspace already has —
//! pmem latency profiles, fingerprint-cost throttling, dedup-daemon
//! quiescing, crash-consistent device clones, and replication-stream
//! stalls — into seeded, journaled, multi-tenant scenarios run against a
//! live `denova-svc` server:
//!
//! 1. [`faults`]: the fault vocabulary and the seeded planner. A plan is
//!    a pure function of `(seed, scenario shape)`.
//! 2. [`journal`]: the text record. Its deterministic section (name,
//!    seed, plan) is byte-identical across runs; execution lines (what
//!    fired when, audits, SLO measurements) follow it.
//! 3. [`engine`]: stands up a fresh stack per scenario, drives tenant
//!    workloads over loopback (each introducing itself via the wire
//!    hello, engaging weighted-fair scheduling and per-tenant
//!    accounting), injects the plan on a wall-clock timeline, then
//!    audits: fsck, scrub, FACT exactness, crash-image recovery, and —
//!    for noisy-neighbor scenarios — the two-phase SLO gate.
//! 4. [`scenarios`]: the standard six-scenario suite; each scenario has a
//!    test (`latency_storm`'s in `tests/latency_storm.rs`, its own process,
//!    so its load never lands in `greedy_tenant`'s latency ratio).
//!
//! Replays: [`engine::replay`] parses a recorded journal and re-executes
//! its exact fault schedule. A failing scenario test prints its journal,
//! so a CI failure can be re-run locally, deterministically.

#![warn(missing_docs)]

pub mod engine;
pub mod faults;
pub mod journal;
pub mod scenarios;
pub mod stall;

pub use engine::{
    replay, run, AuditReport, FaultMix, ScenarioResult, ScenarioSpec, SloGate, SloOutcome,
    TenantSpec, TenantSummary,
};
pub use faults::{plan, Fault, FaultKind, PlannedFault};
pub use journal::{parse_plan, Journal};
pub use stall::StallStream;

#[cfg(test)]
mod tests {
    use crate::scenarios;

    /// Two runs of the same spec agree on the deterministic journal
    /// section; a different seed diverges.
    #[test]
    fn same_seed_same_journal() {
        let spec = scenarios::steady_multi_tenant(11).scaled(0.2);
        let a = crate::run(&spec);
        let b = crate::run(&spec);
        assert_eq!(a.deterministic_journal, b.deterministic_journal);
        assert!(a.passed(), "failures: {:?}\n{}", a.failures, a.journal);
        assert!(b.passed(), "failures: {:?}\n{}", b.failures, b.journal);
        let other = crate::run(&scenarios::steady_multi_tenant(12).scaled(0.2));
        assert_ne!(a.deterministic_journal, other.deterministic_journal);
    }

    /// A recorded journal replays to the same plan and a clean audit.
    #[test]
    fn recorded_journal_replays_deterministically() {
        let spec = scenarios::dedup_backlog(21).scaled(0.2);
        let first = crate::run(&spec);
        assert!(
            first.passed(),
            "failures: {:?}\n{}",
            first.failures,
            first.journal
        );
        let replayed = crate::replay(&spec, &first.journal).unwrap();
        assert_eq!(first.deterministic_journal, replayed.deterministic_journal);
        assert_eq!(first.plan, replayed.plan);
        assert!(
            replayed.passed(),
            "failures: {:?}\n{}",
            replayed.failures,
            replayed.journal
        );
    }

    /// Replay rejects journals that do not parse or name another scenario.
    #[test]
    fn replay_rejects_foreign_journals() {
        let spec = scenarios::steady_multi_tenant(5).scaled(0.2);
        assert!(crate::replay(&spec, "garbage").is_err());
        assert!(crate::replay(&spec, "scenario other\nseed 5\nend-plan\n").is_err());
    }

    /// Crash images captured mid-run recovery-mount to clean audits.
    #[test]
    fn crash_midrun_images_recover_clean() {
        let spec = scenarios::crash_midrun(31).scaled(0.3);
        let r = crate::run(&spec);
        assert!(r.passed(), "failures: {:?}\n{}", r.failures, r.journal);
        assert!(r.audit.crash_images >= 1, "no crash image:\n{}", r.journal);
        assert_eq!(
            r.audit.crash_images_clean, r.audit.crash_images,
            "{}",
            r.journal
        );
    }

    /// The stalled standby latches `repl.sync_degraded`, the primary
    /// rides through, and the scenario still audits clean.
    #[test]
    fn degraded_sync_latches_and_recovers() {
        let spec = scenarios::degraded_sync(41);
        let r = crate::run(&spec);
        assert!(r.passed(), "failures: {:?}\n{}", r.failures, r.journal);
        assert!(r.audit.sync_degraded, "never latched:\n{}", r.journal);
    }

    /// The noisy-neighbor gate: victims' p99 stays within the gate ratio
    /// of their solo baseline despite a flooding greedy tenant. Latency
    /// ratios are timing-sensitive on shared hosts, so like the bench
    /// crate's shape tests this accepts any of a few runs passing.
    #[test]
    fn greedy_tenant_passes_slo_gate() {
        let spec = scenarios::greedy_tenant(51).scaled(0.5);
        let mut r = crate::run(&spec);
        for _ in 0..2 {
            let only_slo =
                !r.failures.is_empty() && r.failures.iter().all(|f| f.starts_with("slo gate:"));
            if !only_slo {
                break;
            }
            r = crate::run(&spec);
        }
        assert!(r.passed(), "failures: {:?}\n{}", r.failures, r.journal);
        assert_eq!(r.slo.len(), 2, "both victims must be gated:\n{}", r.journal);
        for v in &r.slo {
            assert!(v.pass, "{} ratio {:.2}\n{}", v.victim, v.ratio, r.journal);
            assert!(v.solo_p99_ns > 0 && v.contended_p99_ns > 0);
        }
    }
}
