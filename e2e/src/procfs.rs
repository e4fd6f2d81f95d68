//! Per-thread scheduler accounting read from `/proc/self/task/*`, folded by
//! thread class. This measures the layers' threads from outside the program:
//! the reactor, the service worker pool and the dedup daemon already name
//! their threads, so no program code changes.

use std::collections::BTreeMap;

/// Scheduler totals of one thread or one class of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// Time on a CPU, ns (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub runq_wait_ns: u64,
    /// Voluntary context switches: the thread blocked and was woken again.
    pub wakeups: u64,
    /// Involuntary context switches: the thread was preempted.
    pub preemptions: u64,
    /// Threads folded into this row.
    pub threads: u64,
}

impl SchedTotals {
    fn add(&mut self, other: &SchedTotals) {
        self.cpu_ns += other.cpu_ns;
        self.runq_wait_ns += other.runq_wait_ns;
        self.wakeups += other.wakeups;
        self.preemptions += other.preemptions;
        self.threads += other.threads;
    }

    /// Growth since `earlier` (saturating: a class whose threads were
    /// replaced between samples reads as zero, not as a huge number).
    pub fn since(&self, earlier: &SchedTotals) -> SchedTotals {
        SchedTotals {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            preemptions: self.preemptions.saturating_sub(earlier.preemptions),
            threads: self.threads,
        }
    }
}

/// `/proc/<pid>/task/<tid>/schedstat`: `"<cpu_ns> <runq_wait_ns> <slices>"`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace();
    let cpu = it.next()?.parse().ok()?;
    let wait = it.next()?.parse().ok()?;
    Some((cpu, wait))
}

/// The two context-switch counters of `/proc/<pid>/task/<tid>/status`:
/// `(voluntary, nonvoluntary)`.
pub fn parse_status_switches(text: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.trim().parse().ok())
    };
    Some((
        field("voluntary_ctxt_switches:")?,
        field("nonvoluntary_ctxt_switches:")?,
    ))
}

/// Peak resident set size in KiB (`VmHWM:` of `/proc/self/status`).
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Fold a thread name (`comm`, possibly newline-terminated and truncated to
/// 15 bytes by the kernel) into the layer it belongs to.
pub fn thread_class(comm: &str) -> &'static str {
    let comm = comm.trim();
    if comm.starts_with("reactor-") {
        "reactor"
    } else if comm.starts_with("svc-worker-") {
        "svc.pool"
    } else if comm.starts_with("denova-dd/") {
        "denova.daemon"
    } else if comm.starts_with("e2e-client") {
        "client"
    } else {
        "other"
    }
}

/// One sample of every live thread of this process, folded by class.
/// `None` when `/proc/self/task` cannot be read at all.
pub fn sample_threads() -> Option<BTreeMap<&'static str, SchedTotals>> {
    let mut classes: BTreeMap<&'static str, SchedTotals> = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        // A thread may exit between the directory listing and these reads;
        // skip it rather than failing the whole sample.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let sched = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s));
        let switches = std::fs::read_to_string(dir.join("status"))
            .ok()
            .and_then(|s| parse_status_switches(&s));
        let (Some((cpu_ns, runq_wait_ns)), Some((wakeups, preemptions))) = (sched, switches) else {
            continue;
        };
        classes
            .entry(thread_class(&comm))
            .or_default()
            .add(&SchedTotals {
                cpu_ns,
                runq_wait_ns,
                wakeups,
                preemptions,
                threads: 1,
            });
    }
    Some(classes)
}

/// Peak RSS of this process in MiB, if `/proc` says.
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&text).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tsvc-worker-1\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmHWM:\t  123456 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t4211\n\
        nonvoluntary_ctxt_switches:\t17\n";

    #[test]
    fn schedstat_parses_the_first_two_fields() {
        assert_eq!(
            parse_schedstat("123456789 4242 99\n"),
            Some((123_456_789, 4242))
        );
        assert_eq!(parse_schedstat("12\n"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn status_yields_both_switch_counters_and_hwm() {
        assert_eq!(parse_status_switches(STATUS), Some((4211, 17)));
        assert_eq!(parse_status_switches("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(123_456));
    }

    #[test]
    fn comm_folds_into_layer_classes() {
        assert_eq!(thread_class("reactor-0\n"), "reactor");
        assert_eq!(thread_class("svc-worker-1\n"), "svc.pool");
        assert_eq!(thread_class("denova-dd/0"), "denova.daemon");
        assert_eq!(thread_class("e2e-client-B"), "client");
        assert_eq!(thread_class("e2e"), "other");
        assert_eq!(thread_class("svc-conn-3"), "other");
    }

    #[test]
    fn totals_fold_and_subtract() {
        let a = SchedTotals {
            cpu_ns: 10,
            runq_wait_ns: 2,
            wakeups: 3,
            preemptions: 1,
            threads: 1,
        };
        let mut sum = SchedTotals::default();
        sum.add(&a);
        sum.add(&a);
        assert_eq!(sum.cpu_ns, 20);
        assert_eq!(sum.threads, 2);
        let d = sum.since(&a);
        assert_eq!((d.cpu_ns, d.wakeups, d.threads), (10, 3, 2));
        // Counters never run backwards into huge numbers.
        assert_eq!(a.since(&sum).cpu_ns, 0);
    }

    #[test]
    fn live_sample_sees_this_thread_on_linux() {
        if let Some(classes) = sample_threads() {
            assert!(classes.values().map(|c| c.threads).sum::<u64>() >= 1);
        }
    }
}
