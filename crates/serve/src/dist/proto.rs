//! Wire protocol between the distributed coordinator and its workers.
//!
//! Every message travels as one *frame*: a 4-byte big-endian length
//! prefix followed by that many bytes of UTF-8 JSON. Frames are small
//! (the largest is a migration grant's full GA snapshot; uploads carry
//! only the cache entries the coordinator lacks) and capped at
//! [`MAX_FRAME_BYTES`] so a corrupt or hostile peer cannot make either
//! side allocate unbounded memory.
//!
//! The protocol is deliberately connection-per-exchange: a worker opens
//! a fresh TCP connection for each request, writes exactly one frame,
//! reads exactly one reply frame, and closes. There is no session state
//! on the wire — all state lives in the coordinator's lease table, keyed
//! by worker name and lease id. This keeps both sides trivially
//! restartable and makes connection drops (including the injected
//! `dist.conn_drop` fault) indistinguishable from any other lost
//! exchange: the worker retries or the lease deadline reclaims the work.

use serde_json::{json, Value};
use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload. Generous enough for a GA
/// snapshot of any realistic campaign (populations are tens of
/// individuals over n <= a few hundred nodes) while still bounding a
/// malformed length prefix.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Writes one length-prefixed JSON frame.
///
/// # Errors
/// Any I/O error from the underlying stream, or `InvalidData` if the
/// encoded message exceeds [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(stream: &mut W, msg: &Msg) -> io::Result<()> {
    let body = serde_json::to_string(&msg.to_value())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap", bytes.len()),
        ));
    }
    let len = (bytes.len() as u32).to_be_bytes();
    stream.write_all(&len)?;
    stream.write_all(bytes)?;
    stream.flush()
}

/// Reads one length-prefixed JSON frame and parses it into a [`Msg`].
///
/// # Errors
/// `UnexpectedEof` on a truncated frame, `InvalidData` on an oversized
/// length prefix, non-UTF-8 payload, invalid JSON, or an unknown
/// message shape.
pub fn read_frame<R: Read>(stream: &mut R) -> io::Result<Msg> {
    read_frame_sized(stream).map(|(msg, _)| msg)
}

/// [`read_frame`], also returning the frame's payload length in bytes.
///
/// # Errors
/// As [`read_frame`].
pub fn read_frame_sized<R: Read>(stream: &mut R) -> io::Result<(Msg, usize)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    let text = std::str::from_utf8(&body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    let value: Value = serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame JSON: {e}")))?;
    let msg =
        Msg::from_value(&value).map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))?;
    Ok((msg, len))
}

/// One granted unit of work: run trial `trial` of job `job` with `seed`.
///
/// The grant is self-contained — it carries the full job configuration
/// and (for migrated work) the last uploaded GA snapshot — so a worker
/// needs no other state to execute it. `deadline_ms` tells the worker
/// how long the coordinator will wait before reclaiming the lease;
/// workers treat it as advisory (the coordinator enforces it).
/// `trial_deadline_ms` is the job's own trial deadline, which the worker
/// enforces with the same watchdog as a local trial.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseGrant {
    /// Lease id: 16-hex fingerprint of `{job, trial, seed, attempt}`.
    pub lease: String,
    /// Job id the trial belongs to.
    pub job: String,
    /// Trial index within the campaign.
    pub trial: usize,
    /// Exact RNG seed for this trial (primary or salted-retry).
    pub seed: u64,
    /// 1-based lease attempt for this (trial, seed) pair.
    pub attempt: usize,
    /// Full `ColdConfig` document for the job.
    pub config: Value,
    /// Lease deadline in milliseconds (advisory for the worker).
    pub deadline_ms: u64,
    /// Per-attempt wall-clock deadline in milliseconds (`cold-serve
    /// --deadline`); `None` (`null` on the wire) runs unguarded.
    pub trial_deadline_ms: Option<u64>,
    /// Upload a `GaCheckpoint` every this many generations.
    pub ckpt_every: usize,
    /// Trace id of the owning job, so worker-side spans join the same
    /// distributed trace the coordinator journals under.
    pub trace_id: String,
    /// Mid-run GA snapshot from a previous holder of this trial, if one
    /// was uploaded before that worker died. Resuming from it is
    /// bit-identical to never having been interrupted.
    pub snapshot: Option<Value>,
}

impl LeaseGrant {
    fn to_value(&self) -> Value {
        json!({
            "type": "lease_grant",
            "lease": self.lease,
            "job": self.job,
            "trial": self.trial,
            "seed": self.seed,
            "attempt": self.attempt,
            "config": self.config,
            "deadline_ms": self.deadline_ms,
            "trial_deadline_ms": self.trial_deadline_ms,
            "ckpt_every": self.ckpt_every,
            "trace_id": self.trace_id,
            "snapshot": match &self.snapshot {
                Some(s) => s.clone(),
                None => Value::Null,
            },
        })
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Self {
            lease: str_field(v, "lease")?,
            job: str_field(v, "job")?,
            trial: usize_field(v, "trial")?,
            seed: u64_field(v, "seed")?,
            attempt: usize_field(v, "attempt")?,
            config: v.get("config").cloned().ok_or("lease_grant: `config` missing")?,
            deadline_ms: u64_field(v, "deadline_ms")?,
            trial_deadline_ms: v.get("trial_deadline_ms").and_then(Value::as_u64),
            ckpt_every: usize_field(v, "ckpt_every")?,
            trace_id: str_field(v, "trace_id")?,
            snapshot: match v.get("snapshot") {
                None | Some(Value::Null) => None,
                Some(s) => Some(s.clone()),
            },
        })
    }
}

/// Every message either side can put on the wire.
///
/// Requests (worker -> coordinator): `Hello`, `Heartbeat`,
/// `LeaseRequest`, `TrialCheckpoint`, `TrialResult`, `TrialError`,
/// `Bye`. Replies (coordinator -> worker): `HelloOk`, `HeartbeatOk`,
/// `LeaseGrant` / `NoWork` / `Drain`, `CheckpointOk` /
/// `CheckpointRejected` / `LeaseRevoked`, `ResultOk`, `ByeOk`, `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker registration (idempotent; re-sent after eviction).
    Hello {
        /// Worker name.
        worker: String,
    },
    /// Registration accepted.
    HelloOk,
    /// Liveness beat; also the drain side-channel.
    Heartbeat {
        /// Worker name.
        worker: String,
    },
    /// Beat acknowledged; `drain` asks the worker to finish its current
    /// trial and exit.
    HeartbeatOk {
        /// Worker should stop requesting leases and exit.
        drain: bool,
    },
    /// Pull-based work request: the worker is idle and wants a trial.
    LeaseRequest {
        /// Worker name.
        worker: String,
    },
    /// Work granted.
    Grant(LeaseGrant),
    /// Nothing runnable right now; retry after `backoff_ms`.
    NoWork {
        /// Suggested wait before the next `LeaseRequest`.
        backoff_ms: u64,
    },
    /// Coordinator is draining: do not request more work, exit cleanly.
    Drain,
    /// Mid-run GA snapshot upload for a held lease: a `GaCheckpoint`
    /// document whose `cache` holds only the entries the coordinator has
    /// not acknowledged yet (all of them in a full upload).
    TrialCheckpoint {
        /// Worker name.
        worker: String,
        /// Lease the snapshot belongs to.
        lease: String,
        /// The `GaCheckpoint` document, cache cut to the delta.
        snapshot: Value,
        /// Entries in the worker's whole fitness cache at this snapshot;
        /// the coordinator's merged copy must hold exactly this many.
        cache_total: usize,
    },
    /// Snapshot merged into the coordinator's copy of the lease's run.
    CheckpointOk,
    /// The upload does not extend the coordinator's copy (it is older,
    /// or the copy lacks entries the delta assumes); the copy is left
    /// unchanged and the worker should send a full upload.
    CheckpointRejected {
        /// Human-readable reason.
        reason: String,
    },
    /// The worker no longer holds the lease (expired, re-queued, or the
    /// trial completed elsewhere): stop uploading for it.
    LeaseRevoked,
    /// Completed trial upload. Idempotent: duplicates (same job+trial)
    /// are acknowledged with `ResultOk { duplicate: true }` and dropped.
    TrialResult {
        /// Worker name.
        worker: String,
        /// Lease the result fulfills (may already be expired).
        lease: String,
        /// Job id (lets the coordinator accept results from expired
        /// leases it no longer tracks).
        job: String,
        /// Trial index.
        trial: usize,
        /// Seed the trial ran with.
        seed: u64,
        /// The `TrialRecord` document.
        record: Value,
    },
    /// Result accepted; `duplicate` means another upload won the race.
    ResultOk {
        /// The trial was already complete when this upload arrived.
        duplicate: bool,
    },
    /// The trial failed deterministically on the worker; requeue it now
    /// instead of waiting out the lease deadline.
    TrialError {
        /// Worker name.
        worker: String,
        /// Lease that failed.
        lease: String,
        /// Stringified error.
        error: String,
    },
    /// Graceful sign-off; outstanding leases (if any) are requeued.
    Bye {
        /// Worker name.
        worker: String,
    },
    /// Sign-off acknowledged.
    ByeOk,
    /// Protocol-level rejection (malformed payload, unknown lease on a
    /// checkpoint, ...). The exchange still completed; the worker logs
    /// and moves on.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Msg {
    /// Converts the message into its tagged JSON object form.
    pub fn to_value(&self) -> Value {
        match self {
            Msg::Hello { worker } => json!({"type": "hello", "worker": worker}),
            Msg::HelloOk => json!({"type": "hello_ok"}),
            Msg::Heartbeat { worker } => json!({"type": "heartbeat", "worker": worker}),
            Msg::HeartbeatOk { drain } => json!({"type": "heartbeat_ok", "drain": drain}),
            Msg::LeaseRequest { worker } => json!({"type": "lease_request", "worker": worker}),
            Msg::Grant(grant) => grant.to_value(),
            Msg::NoWork { backoff_ms } => json!({"type": "no_work", "backoff_ms": backoff_ms}),
            Msg::Drain => json!({"type": "drain"}),
            Msg::TrialCheckpoint { worker, lease, snapshot, cache_total } => json!({
                "type": "trial_checkpoint",
                "worker": worker,
                "lease": lease,
                "snapshot": snapshot,
                "cache_total": cache_total,
            }),
            Msg::CheckpointOk => json!({"type": "checkpoint_ok"}),
            Msg::CheckpointRejected { reason } => {
                json!({"type": "checkpoint_rejected", "reason": reason})
            }
            Msg::LeaseRevoked => json!({"type": "lease_revoked"}),
            Msg::TrialResult { worker, lease, job, trial, seed, record } => json!({
                "type": "trial_result",
                "worker": worker,
                "lease": lease,
                "job": job,
                "trial": trial,
                "seed": seed,
                "record": record,
            }),
            Msg::ResultOk { duplicate } => json!({"type": "result_ok", "duplicate": duplicate}),
            Msg::TrialError { worker, lease, error } => json!({
                "type": "trial_error",
                "worker": worker,
                "lease": lease,
                "error": error,
            }),
            Msg::Bye { worker } => json!({"type": "bye", "worker": worker}),
            Msg::ByeOk => json!({"type": "bye_ok"}),
            Msg::Error { message } => json!({"type": "error", "message": message}),
        }
    }

    /// Parses a message from its tagged JSON object form.
    ///
    /// # Errors
    /// A human-readable description of the first violated rule.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("message: `type` missing or not a string")?;
        match kind {
            "hello" => Ok(Msg::Hello { worker: str_field(v, "worker")? }),
            "hello_ok" => Ok(Msg::HelloOk),
            "heartbeat" => Ok(Msg::Heartbeat { worker: str_field(v, "worker")? }),
            "heartbeat_ok" => Ok(Msg::HeartbeatOk { drain: bool_field(v, "drain")? }),
            "lease_request" => Ok(Msg::LeaseRequest { worker: str_field(v, "worker")? }),
            "lease_grant" => Ok(Msg::Grant(LeaseGrant::from_value(v)?)),
            "no_work" => Ok(Msg::NoWork { backoff_ms: u64_field(v, "backoff_ms")? }),
            "drain" => Ok(Msg::Drain),
            "trial_checkpoint" => Ok(Msg::TrialCheckpoint {
                worker: str_field(v, "worker")?,
                lease: str_field(v, "lease")?,
                snapshot: v
                    .get("snapshot")
                    .cloned()
                    .ok_or("trial_checkpoint: `snapshot` missing")?,
                cache_total: usize_field(v, "cache_total")?,
            }),
            "checkpoint_ok" => Ok(Msg::CheckpointOk),
            "checkpoint_rejected" => {
                Ok(Msg::CheckpointRejected { reason: str_field(v, "reason")? })
            }
            "lease_revoked" => Ok(Msg::LeaseRevoked),
            "trial_result" => Ok(Msg::TrialResult {
                worker: str_field(v, "worker")?,
                lease: str_field(v, "lease")?,
                job: str_field(v, "job")?,
                trial: usize_field(v, "trial")?,
                seed: u64_field(v, "seed")?,
                record: v.get("record").cloned().ok_or("trial_result: `record` missing")?,
            }),
            "result_ok" => Ok(Msg::ResultOk { duplicate: bool_field(v, "duplicate")? }),
            "trial_error" => Ok(Msg::TrialError {
                worker: str_field(v, "worker")?,
                lease: str_field(v, "lease")?,
                error: str_field(v, "error")?,
            }),
            "bye" => Ok(Msg::Bye { worker: str_field(v, "worker")? }),
            "bye_ok" => Ok(Msg::ByeOk),
            "error" => Ok(Msg::Error { message: str_field(v, "message")? }),
            other => Err(format!("unknown message type `{other}`")),
        }
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("field `{key}` missing or not a string"))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .map(|u| u as usize)
        .ok_or_else(|| format!("field `{key}` missing or not a nonnegative integer"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("field `{key}` missing or not a nonnegative integer"))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("field `{key}` missing or not a boolean"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &msg).expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).expect("read");
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_round_trips_through_a_frame() {
        round_trip(Msg::Hello { worker: "w1".into() });
        round_trip(Msg::HelloOk);
        round_trip(Msg::Heartbeat { worker: "w1".into() });
        round_trip(Msg::HeartbeatOk { drain: true });
        round_trip(Msg::LeaseRequest { worker: "w1".into() });
        round_trip(Msg::Grant(LeaseGrant {
            lease: "1ea5e1ea5e1ea5e1".into(),
            job: "ab12cd34ef56ab78".into(),
            trial: 2,
            seed: 0xDEAD_BEEF,
            attempt: 3,
            config: json!({"n": 12}),
            deadline_ms: 120_000,
            trial_deadline_ms: Some(500),
            ckpt_every: 5,
            trace_id: "ab12cd34ef56ab78".into(),
            snapshot: Some(json!({"generation": 7})),
        }));
        round_trip(Msg::NoWork { backoff_ms: 200 });
        round_trip(Msg::Drain);
        round_trip(Msg::TrialCheckpoint {
            worker: "w1".into(),
            lease: "1ea5e1ea5e1ea5e1".into(),
            snapshot: json!({"generation": 7}),
            cache_total: 12,
        });
        round_trip(Msg::CheckpointOk);
        round_trip(Msg::CheckpointRejected { reason: "stale".into() });
        round_trip(Msg::LeaseRevoked);
        round_trip(Msg::TrialResult {
            worker: "w1".into(),
            lease: "1ea5e1ea5e1ea5e1".into(),
            job: "ab12cd34ef56ab78".into(),
            trial: 2,
            seed: 99,
            record: json!({"trial": 2}),
        });
        round_trip(Msg::ResultOk { duplicate: false });
        round_trip(Msg::TrialError {
            worker: "w1".into(),
            lease: "1ea5e1ea5e1ea5e1".into(),
            error: "boom".into(),
        });
        round_trip(Msg::Bye { worker: "w1".into() });
        round_trip(Msg::ByeOk);
        round_trip(Msg::Error { message: "nope".into() });
    }

    #[test]
    fn absent_snapshot_travels_as_null_and_parses_back_to_none() {
        let grant = LeaseGrant {
            lease: "1ea5e1ea5e1ea5e1".into(),
            job: "ab12cd34ef56ab78".into(),
            trial: 0,
            seed: 1,
            attempt: 1,
            config: json!({}),
            deadline_ms: 1000,
            trial_deadline_ms: None,
            ckpt_every: 5,
            trace_id: "ab12cd34ef56ab78".into(),
            snapshot: None,
        };
        let v = Msg::Grant(grant.clone()).to_value();
        assert!(v.get("snapshot").expect("snapshot key").is_null());
        assert_eq!(Msg::from_value(&v).expect("parse"), Msg::Grant(grant));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"junk");
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_reports_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Msg::HelloOk).expect("write");
        buf.truncate(buf.len() - 2);
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_message_type_is_invalid_data() {
        let mut buf = Vec::new();
        let body = serde_json::to_string(&json!({"type": "warp"})).expect("json");
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(body.as_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
