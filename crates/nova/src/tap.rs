//! Post-commit operation tap: the hook the replication layer uses to
//! observe every mutating operation *after* its atomic log-tail commit.
//!
//! Unlike [`crate::hooks::NovaHooks`] — which belongs to the dedup layer and
//! only sees committed *write entries* — the op tap carries the full logical
//! operation (name, inode, payload) so a standby can replay it against an
//! independent file system. Observation is two-phase:
//!
//! 1. [`OpTap::op_committed`] fires while the committing lock (namespace
//!    lock for namespace ops, the inode lock for data ops) is still held,
//!    so the tap observes operations in exactly their commit order; a
//!    replication journal built from these calls is a faithful
//!    serialization of the primary's history. It must be cheap — anything
//!    slow here convoys every other user of that lock.
//! 2. [`OpTap::op_settled`] fires after the committing locks are released
//!    but before the operation returns to its caller. This is where a
//!    sync-ack replication tap may block waiting for standby
//!    acknowledgement without stalling unrelated namespace or inode
//!    operations.

use std::sync::Arc;

/// One committed mutating operation, in logical (replayable) form.
///
/// Inode numbers are the *primary's*; a standby replaying the stream maps
/// them to its own (they coincide after a snapshot transfer but may diverge
/// for files created later under different allocation order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// `create(name)` committed, yielding inode `ino`.
    Create {
        /// File name.
        name: String,
        /// Inode the primary allocated.
        ino: u64,
    },
    /// `write(ino, offset, data)` committed.
    Write {
        /// Primary inode number.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// The written bytes.
        data: Vec<u8>,
    },
    /// `unlink(name)` committed.
    Unlink {
        /// Removed name.
        name: String,
    },
    /// `link(existing, new_name)` committed for inode `ino`.
    Link {
        /// Existing file name.
        existing: String,
        /// The new hard-link name.
        new_name: String,
        /// The shared inode.
        ino: u64,
    },
    /// `rename(from, to)` committed.
    Rename {
        /// Old name.
        from: String,
        /// New name (clobbered if it existed).
        to: String,
    },
    /// `truncate(ino, size)` committed.
    Truncate {
        /// Primary inode number.
        ino: u64,
        /// New size in bytes.
        size: u64,
    },
}

impl FsOp {
    /// Payload bytes carried by the op (write data), for lag accounting.
    pub fn payload_bytes(&self) -> usize {
        match self {
            FsOp::Write { data, .. } => data.len(),
            _ => 0,
        }
    }
}

/// Observer of committed operations (see the module docs for the two-phase
/// protocol). [`OpTap::op_committed`] must be cheap and non-blocking: it
/// runs under the committing lock, so a slow tap serializes behind that
/// lock's other users. Deliberate blocking (sync-ack replication) belongs
/// in [`OpTap::op_settled`], which runs lock-free.
pub trait OpTap: Send + Sync {
    /// `op` has committed and is durable on the primary's device. Runs
    /// inside the committing critical section; calls arrive in commit
    /// order. Returns an opaque ticket handed back to
    /// [`OpTap::op_settled`] once the locks are released.
    fn op_committed(&self, op: FsOp) -> u64;

    /// The operation ticketed `_ticket` has released its committing locks
    /// but has not yet returned to the caller. May block (this is where a
    /// sync-ack tap waits for standby acknowledgement).
    fn op_settled(&self, _ticket: u64) {}
}

/// A tap that ignores everything (the default).
pub struct NoOpTap;

impl OpTap for NoOpTap {
    fn op_committed(&self, _op: FsOp) -> u64 {
        0
    }
}

/// Shared handle type installed on a file system.
pub type SharedOpTap = Arc<dyn OpTap>;

/// A committed-but-unsettled operation: the pairing of a tap with the
/// ticket its [`OpTap::op_committed`] returned. The committing code path
/// carries this out of the critical section and calls
/// [`PendingOp::settle`] after dropping the locks, before returning to the
/// caller.
#[must_use = "settle() must run after the committing locks are released"]
pub struct PendingOp {
    tap: Arc<dyn OpTap>,
    ticket: u64,
}

impl PendingOp {
    /// Pair `tap` with the ticket its `op_committed` returned.
    pub fn new(tap: Arc<dyn OpTap>, ticket: u64) -> PendingOp {
        PendingOp { tap, ticket }
    }

    /// Run the tap's post-lock phase ([`OpTap::op_settled`]).
    pub fn settle(self) {
        self.tap.op_settled(self.ticket);
    }
}
