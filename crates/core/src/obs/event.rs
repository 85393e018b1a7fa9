//! The structured trace-event model shared by both executors.
//!
//! Every event is a plain-old-data record of integers and small enums:
//! no floats, no strings, no heap indirection. That keeps recording cheap
//! and — critically — makes serialized traces *byte-identical* across
//! repeated deterministic simulation runs (floats would round-trip through
//! formatting; integers cannot).

use std::fmt::{self, Write as _};

use anthill_hetsim::{CopyDir, DeviceId, DeviceKind};

use super::json::Value;

/// Where an event originated.
///
/// Device-scoped events (`kind = Some(..)`) come from one worker thread /
/// simulated device; node-scoped events (`kind = None`) come from a
/// node-level component such as a stage queue or a reader.
///
/// In the simulated executor `node` is the cluster node id; in the local
/// threaded executor `node` is the *pipeline stage index* (the local
/// runtime is intra-node, so stages play the role of placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceRef {
    /// Hosting node (sim) or pipeline stage (local).
    pub node: u32,
    /// Device class, or `None` for node/stage-scoped events.
    pub kind: Option<DeviceKind>,
    /// Index among same-kind devices of the node (0 for node scope).
    pub index: u32,
}

impl DeviceRef {
    /// Origin for a specific simulated device.
    pub fn device(id: DeviceId) -> DeviceRef {
        DeviceRef {
            node: id.node as u32,
            kind: Some(id.kind),
            index: id.index as u32,
        }
    }

    /// Origin for a node-scoped (or stage-scoped) component.
    pub fn node_scope(node: usize) -> DeviceRef {
        DeviceRef {
            node: node as u32,
            kind: None,
            index: 0,
        }
    }

    /// Origin for a local-runtime worker thread: stage, device class and
    /// worker slot index within the stage.
    pub fn worker(stage: usize, kind: DeviceKind, index: usize) -> DeviceRef {
        DeviceRef {
            node: stage as u32,
            kind: Some(kind),
            index: index as u32,
        }
    }
}

impl fmt::Display for DeviceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            Some(k) => write!(f, "n{}/{}{}", self.node, k, self.index),
            None => write!(f, "n{}", self.node),
        }
    }
}

/// A payload field type of the trace schema: how a value prints in each
/// encoding and how it is read back from a parsed JSONL object.
pub(super) trait Field {
    /// JSONL form: a decimal integer or a quoted lowercase token.
    fn write_jsonl(&self, out: &mut String);

    /// Chrome `args` form; the JSONL form unless overridden.
    fn write_chrome(&self, out: &mut String) {
        self.write_jsonl(out);
    }

    /// Read field `key` of `obj`; a missing, mistyped or out-of-range
    /// value is an error naming the field.
    fn read(obj: &Value, key: &str) -> Result<Self, String>
    where
        Self: Sized;
}

/// An integer field, range-checked into `T` (a dump saying `"level":256`
/// is rejected, not read back as level 0).
pub(super) fn read_int<T: TryFrom<u64>>(obj: &Value, key: &str) -> Result<T, String> {
    let n = obj
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))?;
    T::try_from(n).map_err(|_| format!("field '{key}' out of range: {n}"))
}

pub(super) fn read_str<'a>(obj: &'a Value, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

macro_rules! int_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write_jsonl(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(obj: &Value, key: &str) -> Result<$ty, String> {
                read_int(obj, key)
            }
        }
    )*};
}
int_fields!(u64, u32, u8);

/// The lowercase JSONL token of a device class (also the `dev` prefix).
pub(super) fn device_token(k: DeviceKind) -> &'static str {
    match k {
        DeviceKind::Cpu => "cpu",
        DeviceKind::Gpu => "gpu",
    }
}

pub(super) fn parse_device_token(s: &str) -> Result<DeviceKind, String> {
    match s {
        "cpu" => Ok(DeviceKind::Cpu),
        "gpu" => Ok(DeviceKind::Gpu),
        other => Err(format!("unknown device token '{other}'")),
    }
}

impl Field for DeviceKind {
    fn write_jsonl(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", device_token(*self));
    }
    fn write_chrome(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
    fn read(obj: &Value, key: &str) -> Result<DeviceKind, String> {
        parse_device_token(read_str(obj, key)?)
    }
}

impl Field for CopyDir {
    fn write_jsonl(&self, out: &mut String) {
        out.push_str(match self {
            CopyDir::H2D => "\"h2d\"",
            CopyDir::D2H => "\"d2h\"",
        });
    }
    fn read(obj: &Value, key: &str) -> Result<CopyDir, String> {
        match read_str(obj, key)? {
            "h2d" => Ok(CopyDir::H2D),
            "d2h" => Ok(CopyDir::D2H),
            other => Err(format!("unknown copy direction '{other}'")),
        }
    }
}

/// The one definition of the trace schema. Each row declares a kind's
/// variant, its JSONL `kind` name, how Chrome draws it, and its payload
/// fields in wire order (`name: type = sample value`); the enum, the name
/// table, both encoders' field walks, the parser and the round-trip
/// samples are all generated from the rows, so they cannot disagree.
///
/// Chrome column: `instant "label" 't'|'p'` is a thread- or
/// process-scoped instant whose `args` are the fields minus `level`;
/// `slice` and `counter` kinds are drawn by hand in [`super::chrome`].
macro_rules! event_kinds {
    (@chrome instant $label:literal $scope:literal) => { Some(($label, $scope)) };
    (@chrome slice) => { None };
    (@chrome counter) => { None };
    ($(
        $(#[$meta:meta])*
        $variant:ident = $wire:literal, $shape:ident $($label:literal $scope:literal)?
        $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ty = $sample:expr ),* $(,)? })?
    )*) => {
        /// What happened. Payload fields are the integers needed to
        /// reconstruct the run: buffer ids, resolution levels, byte counts,
        /// durations in nanoseconds.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$meta])* $variant $({ $( $(#[$fmeta])* $field: $ty ),* })? ),*
        }

        impl EventKind {
            /// Short machine-readable name (the JSONL `kind` field).
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $wire ),*
                }
            }

            /// Visit the payload fields in wire order.
            pub(super) fn for_each_field(&self, mut f: impl FnMut(&'static str, &dyn Field)) {
                match self {
                    $( EventKind::$variant $({ $($field),* })? => {
                        $($( f(stringify!($field), $field); )*)?
                    } )*
                }
            }

            /// Rebuild the kind called `name` from a parsed JSONL object.
            pub(super) fn parse(name: &str, obj: &Value) -> Result<EventKind, String> {
                match name {
                    $( $wire => Ok(EventKind::$variant $({
                        $( $field: <$ty as Field>::read(obj, stringify!($field))? ),*
                    })?), )*
                    other => Err(format!("unknown event kind '{other}'")),
                }
            }

            /// Label and scope of a Chrome instant; `None` for the kinds
            /// [`super::chrome`] draws as slices and counters.
            pub(super) fn chrome_instant(&self) -> Option<(&'static str, char)> {
                match self {
                    $( EventKind::$variant { .. } => {
                        event_kinds!(@chrome $shape $($label $scope)?)
                    } )*
                }
            }

            /// One value of every kind, in table order.
            #[cfg(test)]
            pub(super) fn samples() -> Vec<EventKind> {
                vec![ $( EventKind::$variant $({ $($field: $sample),* })? ),* ]
            }
        }
    };
}

event_kinds! {
    /// A buffer entered a ready/stage queue.
    Enqueue = "enqueue", instant "enqueue" 't' {
        /// Buffer id.
        buffer: u64 = 7,
        /// Resolution level.
        level: u8 = 0,
    }
    /// A buffer was popped from a queue and assigned to a device.
    Dispatch = "dispatch", instant "dispatch" 't' {
        /// Buffer id.
        buffer: u64 = 7,
        /// Resolution level.
        level: u8 = 0,
    }
    /// Processing of a buffer began on the originating device.
    Start = "start", slice {
        /// Buffer id.
        buffer: u64 = 7,
        /// Resolution level.
        level: u8 = 0,
    }
    /// Processing of a buffer completed on the originating device.
    Finish = "finish", slice {
        /// Buffer id.
        buffer: u64 = 7,
        /// Resolution level.
        level: u8 = 0,
        /// Processing time attributed to the buffer, in nanoseconds.
        proc_ns: u64 = 890,
    }
    /// A host↔device copy occupied a GPU copy engine. The event timestamp
    /// is the engine-occupancy start; `end_ns` its completion.
    Transfer = "transfer", slice {
        /// Copy direction.
        dir: CopyDir = CopyDir::D2H,
        /// Payload bytes.
        bytes: u64 = 3136,
        /// Completion time (same clock as `ts_ns`), in nanoseconds.
        end_ns: u64 = 1_250,
    }
    /// The adaptive-streams controller (Algorithm 1) chose a new
    /// concurrent-event count after a batch.
    Streams = "streams", counter {
        /// Concurrent events/streams for the next batch.
        count: u32 = 4,
    }
    /// A DQAA request-window update: the thread's effective target window
    /// after processing (mirrors `SimReport::request_traces`).
    DqaaWindow = "dqaa_window", counter {
        /// Effective target request window.
        target: u32 = 3,
    }
    /// DBSA answered a data request by selecting the best queued buffer
    /// for the requesting processor type.
    DbsaSelect = "dbsa_select", instant "dbsa" 't' {
        /// Selected buffer id.
        buffer: u64 = 9,
        /// Processor type that triggered the request.
        proctype: DeviceKind = DeviceKind::Gpu,
    }
    /// A buffer's execution transiently failed on the originating device
    /// and the buffer was re-enqueued for another run.
    TaskRetried = "task_retried", instant "retry" 't' {
        /// Buffer id.
        buffer: u64 = 7,
        /// Resolution level.
        level: u8 = 0,
        /// Failure count for this buffer so far (1 on the first retry).
        attempt: u32 = 1,
    }
    /// The originating worker slot died permanently.
    WorkerDied = "worker_died", instant "worker died" 'p' {
        /// Buffers that were in execution on the slot at death time.
        inflight: u32 = 2,
    }
    /// A buffer owned by a dead worker (in execution, in flight, or
    /// stranded on an unreachable queue) was re-homed where live demand
    /// can reach it.
    TaskReassigned = "task_reassigned", instant "reassign" 't' {
        /// Buffer id.
        buffer: u64 = 7,
        /// Resolution level.
        level: u8 = 0,
    }
    /// The originating worker slot joined a live run (elastic membership).
    /// The slot starts cold: its request window warms up from `window`
    /// under DQAA instead of stampeding the readers. Membership
    /// transitions are process-scoped instants like `worker died`: they
    /// mark the pool changing shape, not work on a particular buffer.
    WorkerJoined = "worker_joined", instant "worker joined" 'p' {
        /// Initial target request window the joiner warms up from.
        window: u32 = 1,
    }
    /// The originating worker slot began a graceful drain: it stops
    /// pumping demand and dispatching, but its in-flight requests and
    /// running batch are allowed to finish.
    WorkerDraining = "worker_draining", instant "worker draining" 'p' {
        /// Requests still outstanding at drain start.
        outstanding: u32 = 2,
    }
    /// A draining worker slot finished its last in-flight work and was
    /// released from the pool (membership phase Gone).
    WorkerLeft = "worker_left", instant "worker left" 'p'
    /// A remote worker process began executing a buffer (net backend).
    /// The coordinator re-stamps the worker-reported span onto its own
    /// clock at `Complete` receipt, so remote events sort deterministically
    /// into the merged stream — and render as instants rather than slices
    /// (a slice would collide with the engine's own `Start`..`Finish` pair
    /// for the same buffer on the same device lane).
    RemoteStart = "remote_start", instant "remote start" 't' {
        /// Buffer id.
        buffer: u64 = 8,
        /// Resolution level.
        level: u8 = 1,
    }
    /// A remote worker process finished executing a buffer (net backend).
    RemoteFinish = "remote_finish", instant "remote finish" 't' {
        /// Buffer id.
        buffer: u64 = 8,
        /// Resolution level.
        level: u8 = 1,
        /// Measured worker-side handler span, in nanoseconds.
        proc_ns: u64 = 1234,
    }
    /// A buffer emitted by an upstream filter was routed over a dataflow
    /// edge and entered the destination filter's input queue. The origin
    /// node is the *destination* filter.
    EdgeEnqueued = "edge_enqueued", instant "edge enqueue" 't' {
        /// Graph edge id the buffer traveled over.
        edge: u32 = 1,
        /// Buffer id.
        buffer: u64 = 14,
        /// Resolution level.
        level: u8 = 0,
    }
    /// The admission controller accepted a generated task into the run
    /// (either immediately on arrival or later from the intake queue).
    TaskAdmitted = "task_admitted", instant "admit" 't' {
        /// Buffer id.
        buffer: u64 = 11,
        /// Resolution level.
        level: u8 = 0,
    }
    /// The admission controller discarded a task to bound the intake
    /// queue under the shed-oldest overload policy.
    TaskShed = "task_shed", instant "shed" 't' {
        /// Buffer id.
        buffer: u64 = 12,
        /// Resolution level.
        level: u8 = 0,
    }
    /// The admission controller dropped a queued task whose intake wait
    /// exceeded the deadline-drop policy's deadline.
    TaskDeadlineDropped = "task_deadline_dropped", instant "deadline drop" 't' {
        /// Buffer id.
        buffer: u64 = 13,
        /// Resolution level.
        level: u8 = 0,
        /// Time the task spent queued before expiry, in nanoseconds.
        waited_ns: u64 = 5_000_000,
    }
    /// An online weight provider folded the originating worker's observed
    /// service-time span into its `(device, shape)` profile cell.
    ProfileUpdated = "profile_updated", instant "profile update" 't' {
        /// Buffer id whose span was observed.
        buffer: u64 = 15,
        /// Stable shape key of the updated profile cell.
        key: u64 = 0xfeed_beef,
        /// Observation count of the cell after the update.
        count: u64 = 4,
        /// Updated EWMA mean of the cell, in nanoseconds.
        mean_ns: u64 = 812_000,
    }
    /// A learned policy (AFFINITY/BANDIT) rendered a device-assignment
    /// verdict for a buffer entering the ready queue.
    PolicyDecision = "policy_decision", instant "policy decision" 't' {
        /// Buffer id the decision is for.
        buffer: u64 = 16,
        /// Chosen device arm.
        arm: DeviceKind = DeviceKind::Cpu,
        /// 1 when the epsilon floor forced exploration, else 0.
        explore: u8 = 1,
        /// CPU weight the buffer was inserted with, parts-per-million.
        cpu_ppm: u64 = 250_000,
        /// GPU weight the buffer was inserted with, parts-per-million.
        gpu_ppm: u64 = 16_000_000,
    }
}

/// One recorded event: when, where, what.
///
/// `ts_ns` is virtual time (`SimTime::as_nanos`) in the simulated executor
/// and monotonic wall time since the run start in the local executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in nanoseconds (virtual or monotonic-relative).
    pub ts_ns: u64,
    /// Originating device or node-scoped component.
    pub origin: DeviceRef,
    /// The event payload.
    pub kind: EventKind,
}

/// [`EventKind::samples`] as a trace: increasing timestamps, origins
/// cycling over a CPU worker, a GPU worker and a node scope.
#[cfg(test)]
pub(super) fn sample_events() -> Vec<TraceEvent> {
    let origins = [
        DeviceRef::worker(0, DeviceKind::Cpu, 0),
        DeviceRef::worker(1, DeviceKind::Gpu, 1),
        DeviceRef::node_scope(2),
    ];
    (0u64..)
        .zip(EventKind::samples())
        .map(|(i, kind)| TraceEvent {
            ts_ns: 1_000 * i,
            origin: origins[i as usize % 3],
            kind,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_ref_display_forms() {
        let d = DeviceRef::device(DeviceId {
            node: 2,
            kind: DeviceKind::Gpu,
            index: 0,
        });
        assert_eq!(d.to_string(), "n2/GPU0");
        assert_eq!(DeviceRef::node_scope(3).to_string(), "n3");
        assert_eq!(
            DeviceRef::worker(0, DeviceKind::Cpu, 1).to_string(),
            "n0/CPU1"
        );
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<&str> = EventKind::samples().iter().map(EventKind::name).collect();
        assert_eq!(
            names,
            [
                "enqueue",
                "dispatch",
                "start",
                "finish",
                "transfer",
                "streams",
                "dqaa_window",
                "dbsa_select",
                "task_retried",
                "worker_died",
                "task_reassigned",
                "worker_joined",
                "worker_draining",
                "worker_left",
                "remote_start",
                "remote_finish",
                "edge_enqueued",
                "task_admitted",
                "task_shed",
                "task_deadline_dropped",
                "profile_updated",
                "policy_decision"
            ]
        );
    }
}
