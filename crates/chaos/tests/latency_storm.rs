//! The `latency_storm` scenario, in a test process of its own: its
//! blocking latency spikes and tenant load would otherwise overlap the lib
//! suite's `greedy_tenant` test and skew that test's solo-vs-contended p99
//! ratio.

use denova_chaos::scenarios;

/// Back-to-back device latency spikes: every planned spike fires, and
/// writers and the dedup daemon ride them out to a clean audit.
#[test]
fn latency_storm_rides_out_every_spike() {
    let spec = scenarios::latency_storm(61).scaled(0.4);
    let r = denova_chaos::run(&spec);
    assert!(r.passed(), "failures: {:?}\n{}", r.failures, r.journal);
    assert!(r.plan.len() >= 3, "storm planned {} spikes", r.plan.len());
    let fired = r.journal.lines().filter(|l| l.starts_with("ran ")).count();
    assert_eq!(fired, r.plan.len(), "{}", r.journal);
    assert!(r.tenants.iter().all(|t| t.ops > 0), "{}", r.journal);
}
